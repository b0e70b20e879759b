//! Request/response types shared across the memory system and the defenses.

use simkit::addr::LineAddr;
use simkit::cycles::Cycle;

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (goes through the L1I side of the hierarchy).
    InstFetch,
    /// Data load.
    Load,
    /// Data store (or the write half of an atomic).
    Store,
}

impl AccessKind {
    /// Whether this access needs exclusive (writable) coherence permission.
    pub const fn wants_exclusive(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// Which non-speculative cache levels a returning fill is installed into.
///
/// MuonTrap's speculative accesses use [`FillLevel::None`] — the data is
/// handed to the filter cache only — while commits and baseline accesses use
/// [`FillLevel::Normal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FillLevel {
    /// Install in the L1 (and L2 on the way) as a conventional cache would.
    #[default]
    Normal,
    /// Do not install anywhere: the requester keeps the data privately.
    None,
}

/// Which part of the hierarchy ultimately supplied the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServiceLevel {
    /// The requesting core's private L1.
    L1,
    /// The shared L2.
    L2,
    /// Another core's private L1 (dirty or exclusive data forwarded).
    RemoteL1,
    /// Main memory.
    Dram,
}

/// A memory access request presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRequest {
    /// Requesting core.
    pub core: usize,
    /// Physical line being accessed.
    pub line: LineAddr,
    /// What kind of access this is.
    pub kind: AccessKind,
    /// Cycle at which the access starts.
    pub when: Cycle,
    /// Where returning data is installed.
    pub fill: FillLevel,
    /// Program counter of the instruction performing the access (prefetcher
    /// training); zero when not applicable.
    pub pc: u64,
    /// Whether the prefetcher may be trained by this access.
    pub train_prefetcher: bool,
    /// Whether coherence downgrades of remote private lines are permitted.
    /// MuonTrap sets this to `false` for speculative accesses (§4.5); the
    /// hierarchy then reports `coherence_delayed` instead of downgrading.
    pub allow_remote_downgrade: bool,
}

impl AccessRequest {
    /// Creates a request with baseline semantics: normal fill, prefetcher
    /// training enabled, coherence downgrades allowed.
    pub fn new(core: usize, line: LineAddr, kind: AccessKind, when: Cycle) -> Self {
        AccessRequest {
            core,
            line,
            kind,
            when,
            fill: FillLevel::Normal,
            pc: 0,
            train_prefetcher: true,
            allow_remote_downgrade: true,
        }
    }

    /// Sets the PC used for prefetcher training.
    pub fn with_pc(mut self, pc: u64) -> Self {
        self.pc = pc;
        self
    }

    /// Sets the fill policy.
    pub fn with_fill(mut self, fill: FillLevel) -> Self {
        self.fill = fill;
        self
    }

    /// Disables prefetcher training for this access.
    pub fn without_prefetch_training(mut self) -> Self {
        self.train_prefetcher = false;
        self
    }

    /// Forbids downgrading remote private (M/E) lines; the access will be
    /// reported as delayed instead.
    pub fn without_remote_downgrade(mut self) -> Self {
        self.allow_remote_downgrade = false;
        self
    }
}

/// The hierarchy's answer to an [`AccessRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResponse {
    /// Total latency in cycles from request to data return.
    pub latency: u64,
    /// Which level supplied the data.
    pub served_by: ServiceLevel,
    /// The access needed to downgrade a remote core's private (M/E) line but
    /// was not allowed to (`allow_remote_downgrade == false`). The data has
    /// *not* been obtained; the requester must retry once non-speculative.
    pub coherence_delayed: bool,
}

impl AccessResponse {
    /// A response representing a coherence-delayed access: no data, no state
    /// change, the requester retries later.
    pub fn delayed(latency: u64) -> Self {
        AccessResponse {
            latency,
            served_by: ServiceLevel::L2,
            coherence_delayed: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_properties() {
        assert!(AccessKind::Store.wants_exclusive());
        assert!(!AccessKind::Load.wants_exclusive());
        assert!(!AccessKind::InstFetch.wants_exclusive());
    }

    #[test]
    fn request_builders_compose() {
        let r = AccessRequest::new(1, LineAddr::new(5), AccessKind::Load, Cycle::new(10))
            .with_pc(0x44)
            .with_fill(FillLevel::None)
            .without_prefetch_training()
            .without_remote_downgrade();
        assert_eq!(r.core, 1);
        assert_eq!(r.pc, 0x44);
        assert_eq!(r.fill, FillLevel::None);
        assert!(!r.train_prefetcher);
        assert!(!r.allow_remote_downgrade);
    }

    #[test]
    fn delayed_response_has_no_side_effect_markers() {
        let r = AccessResponse::delayed(3);
        assert!(r.coherence_delayed);
        assert_eq!(r.latency, 3);
    }
}
