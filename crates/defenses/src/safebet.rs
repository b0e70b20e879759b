//! SafeBet-style tracked-region speculation (arXiv:2306.07785).
//!
//! SafeBet's observation is that most speculative loads touch memory the
//! program accessed safely only moments ago, and re-touching such memory
//! reveals nothing an observer could not already have learned. The defense
//! keeps a per-core *Speculative Access Window* (SAW) of recently and safely
//! accessed regions:
//!
//! * a load under an unresolved conditional branch whose region is **in** the
//!   window proceeds exactly as on the unprotected hierarchy (fills, trains
//!   the prefetcher, participates in coherence);
//! * a load to a region **outside** the window is delayed
//!   ([`MemOutcome::RetryWhenNonSpeculative`]) until its guarding branch
//!   resolves — at which point it performs an ordinary access and its region
//!   enters the window;
//! * only *safe* accesses (no older unresolved branch, or committed) extend
//!   the window, so a wrong path can never admit the region it is about to
//!   leak through.
//!
//! Instruction fetches get an analogous window; out-of-window fetches under an
//! unresolved branch are serviced invisibly and installed at commit. The
//! window is a recency window over the access stream: a region stays a member
//! for 4096 subsequent safe accesses. Regions are 64-byte physical blocks, one
//! cache line: the finest transmitter-distinguishing granularity the litmus
//! attacks probe (coarser regions would let an in-bounds access whitelist the
//! secret-dependent line next to it).

use std::collections::HashMap;

use simkit::addr::{PhysAddr, VirtAddr};
use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use memsys::tlb::PageTable;
use memsys::Platform;

use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};

use crate::deferred::DeferredFetches;

/// Granularity at which the window tracks accesses, in bytes.
const REGION_BYTES: u64 = 64;
/// How many subsequent safe accesses a region stays in the window for.
const WINDOW_ACCESSES: u64 = 4096;

fn region(pa: PhysAddr) -> u64 {
    pa.raw() / REGION_BYTES
}

/// One per-core Speculative Access Window: a recency window over the safe
/// access stream, held as `region -> sequence number of its last safe access`
/// with lazy pruning (amortised O(1) per access).
#[derive(Debug, Default)]
struct Saw {
    last_seen: HashMap<u64, u64>,
    seq: u64,
}

impl Saw {
    fn contains(&self, region: u64) -> bool {
        self.last_seen
            .get(&region)
            .is_some_and(|&s| self.seq - s < WINDOW_ACCESSES)
    }

    fn record(&mut self, region: u64) {
        self.seq += 1;
        self.last_seen.insert(region, self.seq);
        // At most `WINDOW_ACCESSES` distinct regions can be live; prune
        // expired entries once the map doubles past that bound.
        if self.last_seen.len() as u64 > 2 * WINDOW_ACCESSES {
            let seq = self.seq;
            self.last_seen.retain(|_, &mut s| seq - s < WINDOW_ACCESSES);
        }
    }

    fn clear(&mut self) {
        self.last_seen.clear();
    }
}

simkit::counters! {
    /// SafeBet's events, reported as `safebet.*` once non-zero.
    struct SafeBetCounts {
        invisible_ifetches: u64,
        /// Out-of-window speculative loads refused: one per poll.
        delayed_loads: u64,
        window_hits: u64,
        committed_stores: u64,
        committed_ifetch_installs: u64,
    }
}

/// The SafeBet-style memory model.
///
/// # Examples
///
/// ```
/// use defenses::SafeBet;
/// use ooo_core::memmodel::{MemAccessCtx, MemOutcome, MemoryModel};
/// use simkit::addr::VirtAddr;
/// use simkit::config::SystemConfig;
/// use simkit::cycles::Cycle;
///
/// let mut model = SafeBet::new(&SystemConfig::paper_default());
/// let mut ctx = MemAccessCtx::simple(
///     0,
///     VirtAddr::new(0x8000),
///     VirtAddr::new(0x40_0000),
///     Cycle::ZERO,
///     false,
/// );
/// // A speculative load to a never-accessed region is delayed...
/// ctx.under_unresolved_branch = true;
/// assert_eq!(model.load(&ctx), MemOutcome::RetryWhenNonSpeculative);
/// // ...but once the region has been accessed safely,
/// ctx.under_unresolved_branch = false;
/// assert!(model.load(&ctx).latency().is_some());
/// // the same speculative load proceeds through the window.
/// ctx.under_unresolved_branch = true;
/// assert!(model.load(&ctx).latency().is_some());
/// ```
#[derive(Debug)]
pub struct SafeBet {
    platform: Platform,
    data_windows: Vec<Saw>,
    inst_windows: Vec<Saw>,
    /// Out-of-window fetches made under an unresolved branch, installed if
    /// they commit.
    deferred: DeferredFetches,
    counts: SafeBetCounts,
}

impl SafeBet {
    /// Builds the model over a fresh platform.
    pub fn new(config: &SystemConfig) -> Self {
        SafeBet {
            platform: Platform::new(config),
            data_windows: (0..config.cores).map(|_| Saw::default()).collect(),
            inst_windows: (0..config.cores).map(|_| Saw::default()).collect(),
            deferred: DeferredFetches::new(config.cores),
            counts: SafeBetCounts::default(),
        }
    }

    /// The platform underneath, whose hierarchy shows what speculation left
    /// behind.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Whether `core`'s *data* window currently covers `vaddr`'s region (test
    /// and diagnostic hook; no timing side effects).
    pub fn data_window_covers(&self, core: usize, vaddr: VirtAddr) -> bool {
        let pa = self.platform.phys_addr(core, vaddr);
        self.data_windows[core].contains(region(pa))
    }
}

impl MemoryModel for SafeBet {
    fn name(&self) -> &str {
        "safebet"
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let t = self.platform.mmu(ctx.core).translate_inst(ctx.vaddr);
        let line = self.platform.line(t.paddr);
        let latency = if !ctx.under_unresolved_branch {
            self.inst_windows[ctx.core].record(region(t.paddr));
            self.platform.fetch_line(ctx.core, line, ctx.when)
        } else if !self.inst_windows[ctx.core].contains(region(t.paddr)) {
            // Out-of-window fetch on a speculative path: serviced invisibly,
            // installed at commit if it turns out to be correct-path.
            self.counts.invisible_ifetches += 1;
            self.deferred
                .fetch(&mut self.platform, ctx.core, line, ctx.when)
        } else {
            self.platform.fetch_line(ctx.core, line, ctx.when)
        };
        MemOutcome::Done {
            latency: latency + t.latency,
        }
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let t = self.platform.mmu(ctx.core).translate_data(ctx.vaddr);
        let window = &mut self.data_windows[ctx.core];
        if ctx.speculative && ctx.under_unresolved_branch {
            if !window.contains(region(t.paddr)) {
                // Outside the window: nothing about this region was recently
                // revealed safely, so touching it now would transmit. The core
                // re-polls every cycle; the delay lapses when the guarding
                // branch resolves and the access lands in the safe arm below.
                self.counts.delayed_loads += 1;
                return MemOutcome::RetryWhenNonSpeculative;
            }
            // In-window speculation is deemed unobservable: full-speed access.
            self.counts.window_hits += 1;
        } else {
            // Safe (no unresolved older branch): the access itself extends
            // the window.
            window.record(region(t.paddr));
        }
        let line = self.platform.line(t.paddr);
        let resp = self
            .platform
            .load_line(ctx.core, line, ctx.pc, ctx.is_store, ctx.when);
        MemOutcome::Done {
            latency: resp.latency + t.latency,
        }
    }

    fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {
        // No speculative store prefetch: store addresses may be tainted.
    }

    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
        let t = self.platform.mmu(ctx.core).translate_data(ctx.vaddr);
        self.data_windows[ctx.core].record(region(t.paddr));
        if ctx.is_store {
            self.counts.committed_stores += 1;
            let line = self.platform.line(t.paddr);
            self.platform.commit_store(ctx.core, line, ctx.pc, ctx.when);
        }
        0
    }

    fn commit_fetch(&mut self, ctx: &MemAccessCtx) {
        let t = self.platform.mmu(ctx.core).translate_inst(ctx.vaddr);
        self.inst_windows[ctx.core].record(region(t.paddr));
        let line = self.platform.line(t.paddr);
        if self
            .deferred
            .commit(&mut self.platform, ctx.core, line, ctx.when)
        {
            self.counts.committed_ifetch_installs += 1;
        }
    }

    fn set_page_table(&mut self, core: usize, table: PageTable) {
        self.platform.set_page_table(core, table);
    }

    fn on_squash(&mut self, core: usize, _when: Cycle) {
        // The windows hold only safely-revealed regions, so they survive a
        // squash; the wrong path's invisible fetches must not install.
        self.deferred.clear(core);
    }

    fn on_domain_switch(&mut self, core: usize, _kind: DomainSwitch, _when: Cycle) {
        // A new protection domain must not inherit (or extend) the previous
        // domain's window.
        self.data_windows[core].clear();
        self.inst_windows[core].clear();
        self.deferred.clear(core);
    }

    fn stats(&self) -> StatSet {
        let mut stats = self.platform.stats();
        self.counts.export_nonzero(&mut stats, "safebet");
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::addr::VirtAddr;

    fn ctx(core: usize, vaddr: u64, speculative: bool, is_store: bool) -> MemAccessCtx {
        let pc = VirtAddr::new(0x40_0000);
        MemAccessCtx {
            speculative,
            under_unresolved_branch: speculative,
            ..MemAccessCtx::simple(core, VirtAddr::new(vaddr), pc, Cycle::ZERO, is_store)
        }
    }

    #[test]
    fn cold_regions_are_delayed_and_fill_nothing() {
        let mut m = SafeBet::new(&SystemConfig::paper_default());
        assert_eq!(
            m.load(&ctx(0, 0x8000, true, false)),
            MemOutcome::RetryWhenNonSpeculative
        );
        let line = m.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(!m.platform().hierarchy.own_l1_contains(0, line));
        assert!(!m.platform().hierarchy.l2_contains(line));
    }

    #[test]
    fn safe_access_admits_the_region_for_later_speculation() {
        let mut m = SafeBet::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8000, false, false));
        assert!(m.data_window_covers(0, VirtAddr::new(0x8000)));
        let outcome = m.load(&ctx(0, 0x8000, true, false));
        assert!(outcome.latency().is_some(), "in-window speculation runs");
    }

    #[test]
    fn window_is_line_granular_by_default() {
        // The next line over is a different region: an in-bounds access must
        // not whitelist its neighbour (that is how Spectre transmits).
        let mut m = SafeBet::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8000, false, false));
        assert_eq!(
            m.load(&ctx(0, 0x8040, true, false)),
            MemOutcome::RetryWhenNonSpeculative
        );
    }

    #[test]
    fn speculation_does_not_extend_the_window() {
        let mut m = SafeBet::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8000, false, false));
        // In-window speculative access to 0x8000 is fine, but it must not
        // admit anything new — the still-cold neighbour stays delayed.
        let _ = m.load(&ctx(0, 0x8000, true, false));
        assert!(!m.data_window_covers(0, VirtAddr::new(0x9000)));
    }

    #[test]
    fn regions_expire_after_window_accesses() {
        let mut m = SafeBet::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8000, false, false));
        for i in 0..WINDOW_ACCESSES {
            let _ = m.load(&ctx(0, 0x10_0000 + i * 64, false, false));
        }
        assert!(!m.data_window_covers(0, VirtAddr::new(0x8000)));
        assert_eq!(
            m.load(&ctx(0, 0x8000, true, false)),
            MemOutcome::RetryWhenNonSpeculative
        );
    }

    #[test]
    fn domain_switch_clears_the_window() {
        let mut m = SafeBet::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8000, false, false));
        m.on_domain_switch(0, DomainSwitch::Syscall, Cycle::ZERO);
        assert!(!m.data_window_covers(0, VirtAddr::new(0x8000)));
    }

    #[test]
    fn windows_are_per_core() {
        let mut m = SafeBet::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8000, false, false));
        assert_eq!(
            m.load(&ctx(1, 0x8000, true, false)),
            MemOutcome::RetryWhenNonSpeculative
        );
    }

    #[test]
    fn out_of_window_fetches_stay_invisible_until_commit() {
        let mut m = SafeBet::new(&SystemConfig::paper_default());
        let _ = m.fetch_instruction(&ctx(0, 0x41_0000, true, false));
        let line = m.platform().phys_line(0, VirtAddr::new(0x41_0000));
        assert!(!m.platform().hierarchy.l2_contains(line));
        // Commit happens after the speculative fetch's fill has long landed
        // (otherwise the install coalesces with the in-flight invisible miss).
        let mut commit = ctx(0, 0x41_0000, false, false);
        commit.when = Cycle::new(10_000);
        m.commit_fetch(&commit);
        assert!(m.platform().hierarchy.l2_contains(line));
    }
}
