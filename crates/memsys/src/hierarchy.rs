//! The multi-core memory hierarchy.
//!
//! [`MemoryHierarchy`] owns the private L1 instruction and data caches of
//! every core, the shared L2, the DRAM model and the L2 stride prefetcher, and
//! implements MESI coherence between the private L1s. It exposes both the
//! conventional access path (used by the unprotected baseline) and the
//! fine-grained operations the defense layers need:
//!
//! * fills that bypass the non-speculative levels ([`FillLevel::None`]), used
//!   by MuonTrap for speculative accesses,
//! * commit-time write-through and asynchronous exclusive upgrades,
//! * side-effect-free coherence probes (is a line private to another core?),
//! * per-core invalidation queues so external structures (filter caches) can
//!   observe exclusive upgrades performed by other cores.
//!
//! The model mutates cache state immediately at access time and returns a
//! latency, rather than exchanging timed coherence messages. ARCHITECTURE.md
//! ("The event queue and the memory timing") gives the timing rules that
//! latency comes from.

use simkit::addr::LineAddr;
use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use crate::cache::CacheArray;
use crate::dram::Dram;
use crate::mesi::MesiState;
use crate::mshr::MshrFile;
use crate::prefetch::StridePrefetcher;
use crate::types::{AccessKind, AccessRequest, AccessResponse, FillLevel, ServiceLevel};

/// Extra latency of forwarding data from a remote core's L1 (on top of the L2
/// tag lookup that discovered it).
const REMOTE_FORWARD_LATENCY: u64 = 12;

/// Latency of an upgrade (invalidation) bus transaction.
const UPGRADE_LATENCY: u64 = 8;

/// One core's private cache resources.
#[derive(Debug)]
struct CoreCaches {
    l1i: CacheArray<()>,
    l1d: CacheArray<()>,
    l1d_mshrs: MshrFile,
    l1i_mshrs: MshrFile,
}

simkit::counters! {
    /// The hierarchy's events, reported by [`stats`](MemoryHierarchy::stats)
    /// as `hierarchy.*` once non-zero.
    struct HierarchyCounts {
        ifetch_accesses: u64,
        l1i_hits: u64,
        l1i_misses: u64,
        data_accesses: u64,
        l1d_hits: u64,
        l1d_misses: u64,
        l2_hits: u64,
        l2_misses: u64,
        /// L1 hits that needed write permission and invalidated the other
        /// copies.
        upgrades: u64,
        /// Asynchronous upgrades to exclusive ([`MemoryHierarchy::upgrade_exclusive`]).
        exclusive_upgrades: u64,
        /// Accesses refused because a remote L1 owns the line and the request
        /// may not downgrade it.
        coherence_delays: u64,
        remote_forwards: u64,
        remote_invalidations: u64,
        prefetch_fills: u64,
        l1d_writebacks: u64,
        l2_writebacks: u64,
    }
}

/// The full multi-core cache hierarchy.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cores: Vec<CoreCaches>,
    l2: CacheArray<()>,
    l2_mshrs: MshrFile,
    dram: Dram,
    prefetcher: StridePrefetcher,
    /// Lines invalidated by exclusive upgrades, queued per core for external
    /// structures (filter caches) to consume.
    invalidation_queues: Vec<Vec<LineAddr>>,
    counts: HierarchyCounts,
    l1d_hit_latency: u64,
    l1i_hit_latency: u64,
    /// Latency of one shared-L2 tag/data lookup (line transfer included).
    l2_hit_latency: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: &SystemConfig) -> Self {
        let cores = (0..config.cores)
            .map(|_| CoreCaches {
                l1i: CacheArray::new(&config.l1i, config.line_bytes),
                l1d: CacheArray::new(&config.l1d, config.line_bytes),
                l1d_mshrs: MshrFile::new(config.l1d.mshrs),
                l1i_mshrs: MshrFile::new(config.l1i.mshrs),
            })
            .collect();
        MemoryHierarchy {
            cores,
            l2: CacheArray::new(&config.l2, config.line_bytes),
            l2_mshrs: MshrFile::new(config.l2.mshrs),
            dram: Dram::new(config.dram, config.line_bytes),
            prefetcher: StridePrefetcher::new(config.prefetch_degree),
            invalidation_queues: vec![Vec::new(); config.cores],
            counts: HierarchyCounts::default(),
            l1d_hit_latency: config.l1d.hit_latency,
            l1i_hit_latency: config.l1i.hit_latency,
            l2_hit_latency: config.l2.hit_latency,
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> StatSet {
        let mut stats = StatSet::new();
        self.counts.export_nonzero(&mut stats, "hierarchy");
        stats
    }

    /// Drains the pending filter-cache invalidation notifications for `core`
    /// into `buf` (cleared first).
    ///
    /// Exclusive upgrades by *other* cores append the upgraded line here; the
    /// defense layer applies them to its filter structures when it next runs.
    /// The buffers are swapped, so the per-cycle drain in the defense layers'
    /// `tick` never allocates: the queue keeps `buf`'s capacity and `buf`
    /// receives the queued lines.
    pub fn drain_invalidations_into(&mut self, core: usize, buf: &mut Vec<LineAddr>) {
        buf.clear();
        std::mem::swap(&mut self.invalidation_queues[core], buf);
    }

    /// Whether `core` has invalidation notifications queued and not yet
    /// drained. The system loop consults this (through
    /// `MemoryModel::is_idle`) before fast-forwarding over idle cycles: a
    /// non-empty queue means the next `tick` does real work.
    pub fn has_pending_invalidations(&self, core: usize) -> bool {
        !self.invalidation_queues[core].is_empty()
    }

    /// Whether `line` is held in Modified or Exclusive state by the private L1
    /// data cache of any core other than `core`. Side-effect free.
    pub fn remote_private_holds_exclusive(&self, core: usize, line: LineAddr) -> bool {
        self.cores.iter().enumerate().any(|(i, c)| {
            i != core
                && c.l1d
                    .peek(line)
                    .map(|l| l.state.is_private())
                    .unwrap_or(false)
        })
    }

    /// Whether any cache in the system other than `core`'s own private caches
    /// holds a copy of `line` (any state). Side-effect free.
    pub fn any_other_copy(&self, core: usize, line: LineAddr) -> bool {
        let remote_l1 = self
            .cores
            .iter()
            .enumerate()
            .any(|(i, c)| i != core && c.l1d.contains(line));
        remote_l1 || self.l2.contains(line)
    }

    /// Whether `core`'s own L1 data cache holds `line` with write permission.
    pub fn own_l1_exclusive(&self, core: usize, line: LineAddr) -> bool {
        self.cores[core]
            .l1d
            .peek(line)
            .map(|l| l.state.can_write())
            .unwrap_or(false)
    }

    /// Whether `core`'s own L1 data cache holds `line` at all.
    pub fn own_l1_contains(&self, core: usize, line: LineAddr) -> bool {
        self.cores[core].l1d.contains(line)
    }

    /// Whether `core`'s own L1 instruction cache holds `line`.
    pub fn own_l1i_contains(&self, core: usize, line: LineAddr) -> bool {
        self.cores[core].l1i.contains(line)
    }

    /// Whether the shared L2 holds `line`.
    pub fn l2_contains(&self, line: LineAddr) -> bool {
        self.l2.contains(line)
    }

    /// Performs a memory access, mutating cache and coherence state and
    /// returning the latency and serving level.
    pub fn access(&mut self, req: &AccessRequest) -> AccessResponse {
        assert!(req.core < self.cores.len(), "core index out of range");
        match req.kind {
            AccessKind::InstFetch => self.access_instruction(req),
            _ => self.access_data(req),
        }
    }

    /// Installs `line` into `core`'s L1 data cache with at least shared
    /// permission, fetching it from below if absent. Used by defenses for
    /// commit-time write-through (§4.2), which is asynchronous: no requester
    /// waits for the fill.
    pub fn commit_fill_l1(&mut self, core: usize, line: LineAddr, when: Cycle) {
        let req =
            AccessRequest::new(core, line, AccessKind::Load, when).without_prefetch_training();
        self.access(&req);
    }

    /// Performs an asynchronous upgrade of `line` to exclusive ownership for
    /// `core` (the commit-time `SE` upgrade of §4.5). Invalidates all other
    /// copies and notifies other cores' filter structures.
    pub fn upgrade_exclusive(&mut self, core: usize, line: LineAddr) {
        self.invalidate_remote_copies(core, line);
        if let Some(l) = self.cores[core].l1d.peek_mut(line) {
            if !l.state.can_write() {
                l.state = MesiState::Exclusive;
            }
        }
        self.counts.exclusive_upgrades += 1;
    }

    /// Fills `line` into the shared L2 (prefetch fill). No latency is charged
    /// to any requester; the benefit shows up as later hits.
    pub fn prefetch_fill_l2(&mut self, line: LineAddr) {
        if !self.l2.contains(line) {
            self.counts.prefetch_fills += 1;
            let ev = self.l2.insert(line, MesiState::Shared, ());
            if let Some(victim) = ev.victim {
                if victim.dirty {
                    self.counts.l2_writebacks += 1;
                }
            }
        }
    }

    /// Explicitly trains the prefetcher with a committed access and performs
    /// any prefetch fills it requests. MuonTrap calls this at commit time
    /// (§4.6); the baseline trains implicitly inside [`MemoryHierarchy::access`].
    pub fn train_prefetcher(&mut self, pc: u64, line: LineAddr) {
        let candidates = self.prefetcher.train(pc, line);
        for candidate in candidates {
            self.prefetch_fill_l2(candidate);
        }
    }

    // ------------------------------------------------------------------
    // internal paths
    // ------------------------------------------------------------------

    fn access_instruction(&mut self, req: &AccessRequest) -> AccessResponse {
        self.counts.ifetch_accesses += 1;
        let mut latency = self.l1i_hit_latency;
        if self.cores[req.core].l1i.lookup(req.line).is_some() {
            self.counts.l1i_hits += 1;
            return AccessResponse {
                latency,
                served_by: ServiceLevel::L1,
                coherence_delayed: false,
            };
        }
        self.counts.l1i_misses += 1;
        let mshr = self.cores[req.core].l1i_mshrs.check(req.line, req.when);
        if mshr.coalesced {
            // The fill is already in flight; ride along with it. The line is
            // still installed according to this request's fill policy because
            // the returning data satisfies this request too.
            latency += mshr.fill_ready_at.since(req.when);
            if req.fill == FillLevel::Normal {
                self.cores[req.core]
                    .l1i
                    .insert(req.line, MesiState::Shared, ());
            }
            return AccessResponse {
                latency,
                served_by: ServiceLevel::L2,
                coherence_delayed: false,
            };
        }
        latency += mshr.issue_delay(req.when);
        let (below_latency, served_by) = self.fetch_from_l2_or_memory(req.line, req.when, req.fill);
        latency += below_latency;
        self.cores[req.core]
            .l1i_mshrs
            .allocate(req.line, req.when.saturating_add(latency));
        if req.fill == FillLevel::Normal {
            self.cores[req.core]
                .l1i
                .insert(req.line, MesiState::Shared, ());
        }
        AccessResponse {
            latency,
            served_by,
            coherence_delayed: false,
        }
    }

    fn access_data(&mut self, req: &AccessRequest) -> AccessResponse {
        self.counts.data_accesses += 1;
        let wants_exclusive = req.kind.wants_exclusive();
        let mut latency = self.l1d_hit_latency;

        // L1 hit path.
        let hit_state = self.cores[req.core].l1d.lookup(req.line).map(|l| l.state);
        if let Some(state) = hit_state {
            self.counts.l1d_hits += 1;
            if wants_exclusive && !state.can_write() {
                // Upgrade: invalidate every other copy.
                if !req.allow_remote_downgrade
                    && self.remote_private_holds_exclusive(req.core, req.line)
                {
                    self.counts.coherence_delays += 1;
                    return AccessResponse::delayed(latency);
                }
                self.invalidate_remote_copies(req.core, req.line);
                latency += UPGRADE_LATENCY;
                self.counts.upgrades += 1;
            }
            if let Some(l) = self.cores[req.core].l1d.peek_mut(req.line) {
                if wants_exclusive {
                    l.state = MesiState::Modified;
                    l.dirty = true;
                }
            }
            if req.train_prefetcher {
                self.train_prefetcher(req.pc, req.line);
            }
            return AccessResponse {
                latency,
                served_by: ServiceLevel::L1,
                coherence_delayed: false,
            };
        }

        // L1 miss.
        self.counts.l1d_misses += 1;

        // Check whether another core holds the line privately.
        let remote_exclusive = self.remote_private_holds_exclusive(req.core, req.line);
        if remote_exclusive && !req.allow_remote_downgrade {
            self.counts.coherence_delays += 1;
            return AccessResponse::delayed(latency);
        }

        let mshr = self.cores[req.core].l1d_mshrs.check(req.line, req.when);
        if mshr.coalesced {
            // A fill for this line is already in flight; ride along with it.
            // The returning data also satisfies this request, so it is still
            // installed according to this request's fill policy.
            latency += mshr.fill_ready_at.since(req.when).max(1);
            if wants_exclusive {
                self.invalidate_remote_copies(req.core, req.line);
            }
            if req.fill == FillLevel::Normal {
                let state = if wants_exclusive {
                    MesiState::Modified
                } else {
                    MesiState::Shared
                };
                let _ = self.cores[req.core].l1d.insert(req.line, state, ());
                if wants_exclusive {
                    if let Some(l) = self.cores[req.core].l1d.peek_mut(req.line) {
                        l.dirty = true;
                    }
                }
            }
            return AccessResponse {
                latency,
                served_by: ServiceLevel::L2,
                coherence_delayed: false,
            };
        }
        latency += mshr.issue_delay(req.when);

        let served_by;
        if remote_exclusive {
            // Dirty/exclusive data forwarded from a remote L1; downgrade it.
            // The forward rides through the L2 lookup (which discovered the
            // remote owner) plus the core-to-core transfer.
            served_by = ServiceLevel::RemoteL1;
            latency += self.l2_hit_latency + REMOTE_FORWARD_LATENCY;
            if self.downgrade_remote_copies(req.core, req.line, wants_exclusive) {
                // Dirty data gets written back into the shared L2 on the way.
                self.l2.insert(req.line, MesiState::Shared, ());
            }
            self.counts.remote_forwards += 1;
        } else {
            let (below_latency, level) = self.fetch_from_l2_or_memory(req.line, req.when, req.fill);
            latency += below_latency;
            served_by = level;
        }

        if wants_exclusive {
            self.invalidate_remote_copies(req.core, req.line);
        }

        self.cores[req.core]
            .l1d_mshrs
            .allocate(req.line, req.when.saturating_add(latency));

        // Install into the L1 according to the fill policy.
        if req.fill == FillLevel::Normal {
            let new_state = if wants_exclusive {
                MesiState::Modified
            } else if !self.any_other_copy(req.core, req.line) {
                MesiState::Exclusive
            } else {
                MesiState::Shared
            };
            let ev = self.cores[req.core].l1d.insert(req.line, new_state, ());
            if wants_exclusive {
                if let Some(l) = self.cores[req.core].l1d.peek_mut(req.line) {
                    l.dirty = true;
                }
            }
            if let Some(victim) = ev.victim {
                if victim.state.is_dirty() || victim.dirty {
                    // Dirty victim written back into the L2.
                    self.counts.l1d_writebacks += 1;
                    let l2ev = self.l2.insert(victim.addr, MesiState::Shared, ());
                    if let Some(l) = self.l2.peek_mut(victim.addr) {
                        l.dirty = true;
                    }
                    if let Some(l2victim) = l2ev.victim {
                        if l2victim.dirty {
                            self.counts.l2_writebacks += 1;
                        }
                    }
                }
            }
        }

        if req.train_prefetcher {
            self.train_prefetcher(req.pc, req.line);
        }

        AccessResponse {
            latency,
            served_by,
            coherence_delayed: false,
        }
    }

    /// Looks `line` up in the L2, going to DRAM on a miss, and returns the
    /// additional latency below the L1 plus the serving level. Fills the L2
    /// unless the fill policy says not to install anywhere.
    fn fetch_from_l2_or_memory(
        &mut self,
        line: LineAddr,
        when: Cycle,
        fill: FillLevel,
    ) -> (u64, ServiceLevel) {
        let mut latency = self.l2_hit_latency;
        if self.l2.lookup(line).is_some() {
            self.counts.l2_hits += 1;
            return (latency, ServiceLevel::L2);
        }
        self.counts.l2_misses += 1;
        let mshr = self.l2_mshrs.check(line, when);
        if mshr.coalesced {
            latency += mshr.fill_ready_at.since(when).max(1);
            if fill != FillLevel::None {
                let _ = self.l2.insert(line, MesiState::Shared, ());
            }
            return (latency, ServiceLevel::Dram);
        }
        latency += mshr.issue_delay(when);
        let dram = self.dram.access(line, when.saturating_add(latency));
        latency += dram.latency;
        self.l2_mshrs.allocate(line, when.saturating_add(latency));
        if fill != FillLevel::None {
            let ev = self.l2.insert(line, MesiState::Shared, ());
            if let Some(victim) = ev.victim {
                if victim.dirty {
                    self.counts.l2_writebacks += 1;
                }
            }
        }
        (latency, ServiceLevel::Dram)
    }

    /// Invalidates every remote L1 copy of `line` and queues a notification
    /// for every other core's filter structures.
    fn invalidate_remote_copies(&mut self, core: usize, line: LineAddr) {
        for i in 0..self.cores.len() {
            if i == core {
                continue;
            }
            if self.cores[i].l1d.invalidate(line).is_some() {
                self.counts.remote_invalidations += 1;
            }
            self.invalidation_queues[i].push(line);
        }
    }

    /// Downgrades remote private copies of `line` to shared (read) or invalid
    /// (write). Returns whether any copy was dirty.
    fn downgrade_remote_copies(&mut self, core: usize, line: LineAddr, invalidate: bool) -> bool {
        let mut was_dirty = false;
        for i in 0..self.cores.len() {
            if i == core {
                continue;
            }
            if invalidate {
                if let Some(l) = self.cores[i].l1d.invalidate(line) {
                    was_dirty |= l.state.is_dirty() || l.dirty;
                    self.invalidation_queues[i].push(line);
                }
            } else if let Some(l) = self.cores[i].l1d.peek_mut(line) {
                was_dirty |= l.state.is_dirty() || l.dirty;
                l.state = l.state.after_remote_read();
                l.dirty = false;
            }
        }
        was_dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&SystemConfig::paper_default())
    }

    fn load(core: usize, line: u64, when: u64) -> AccessRequest {
        AccessRequest::new(
            core,
            LineAddr::new(line),
            AccessKind::Load,
            Cycle::new(when),
        )
    }

    fn store(core: usize, line: u64, when: u64) -> AccessRequest {
        AccessRequest::new(
            core,
            LineAddr::new(line),
            AccessKind::Store,
            Cycle::new(when),
        )
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_in_l1() {
        let mut h = hierarchy();
        let first = h.access(&load(0, 42, 0));
        assert_eq!(first.served_by, ServiceLevel::Dram);
        assert!(first.latency > 50);
        let second = h.access(&load(0, 42, 1000));
        assert_eq!(second.served_by, ServiceLevel::L1);
        assert_eq!(second.latency, 2);
    }

    #[test]
    fn second_core_hits_in_l2_after_first_core_fetches() {
        let mut h = hierarchy();
        let _ = h.access(&load(0, 7, 0));
        let r = h.access(&load(1, 7, 1000));
        assert_eq!(r.served_by, ServiceLevel::L2);
        assert!(r.latency < 60);
    }

    #[test]
    fn store_gains_modified_state_and_invalidates_sharers() {
        let mut h = hierarchy();
        let _ = h.access(&load(0, 9, 0));
        let _ = h.access(&load(1, 9, 500)); // both cores share the line
        let _ = h.access(&store(0, 9, 1000));
        assert!(h.own_l1_exclusive(0, LineAddr::new(9)));
        assert!(
            !h.own_l1_contains(1, LineAddr::new(9)),
            "the sharer in core 1 must be invalidated"
        );
        assert_eq!(h.stats().counter("hierarchy.remote_invalidations"), 1);
        // Core 1's filter-cache notification queue sees the invalidation.
        let mut invs = Vec::new();
        h.drain_invalidations_into(1, &mut invs);
        assert!(invs.contains(&LineAddr::new(9)));
    }

    #[test]
    fn remote_modified_line_is_forwarded_and_downgraded() {
        let mut h = hierarchy();
        let _ = h.access(&store(0, 11, 0));
        assert!(h.own_l1_exclusive(0, LineAddr::new(11)));
        let r = h.access(&load(1, 11, 500));
        assert_eq!(r.served_by, ServiceLevel::RemoteL1);
        // Core 0 keeps a clean Shared copy: its dirty data went to the L2.
        let owner = h.cores[0].l1d.peek(LineAddr::new(11)).expect("still held");
        assert_eq!(owner.state, MesiState::Shared);
        assert!(!owner.dirty, "dirty data must be written back");
        assert!(h.l2_contains(LineAddr::new(11)));
        assert!(!h.own_l1_exclusive(0, LineAddr::new(11)));
    }

    #[test]
    fn disallowed_remote_downgrade_is_reported_as_delay() {
        let mut h = hierarchy();
        let _ = h.access(&store(0, 13, 0));
        let req = load(1, 13, 500).without_remote_downgrade();
        let r = h.access(&req);
        assert!(r.coherence_delayed);
        // The remote line must be untouched.
        assert!(h.own_l1_exclusive(0, LineAddr::new(13)));
        assert_eq!(h.stats().counter("hierarchy.coherence_delays"), 1);
    }

    #[test]
    fn fill_level_none_leaves_caches_untouched() {
        let mut h = hierarchy();
        let req = load(0, 21, 0).with_fill(FillLevel::None);
        let r = h.access(&req);
        assert_eq!(r.served_by, ServiceLevel::Dram);
        assert!(!h.own_l1_contains(0, LineAddr::new(21)));
        assert!(!h.l2_contains(LineAddr::new(21)));
    }

    #[test]
    fn exclusive_upgrade_notifies_other_cores() {
        let mut h = hierarchy();
        let _ = h.access(&load(1, 30, 0));
        h.upgrade_exclusive(0, LineAddr::new(30));
        assert!(!h.own_l1_contains(1, LineAddr::new(30)));
        assert_eq!(h.stats().counter("hierarchy.remote_invalidations"), 1);
        let mut invs = Vec::new();
        h.drain_invalidations_into(1, &mut invs);
        assert!(invs.contains(&LineAddr::new(30)));
        h.drain_invalidations_into(1, &mut invs);
        assert!(invs.is_empty(), "queue drains once taken");
    }

    /// The state a load installs in its L1: Exclusive only when no other
    /// cache, the L2 included, holds the line. The decision runs after the
    /// fill has put the line in the L2, so a line that no cache held before
    /// the load installs Shared as well.
    #[test]
    fn load_install_state_depends_on_the_other_copies() {
        let mut h = hierarchy();
        let installed = |h: &MemoryHierarchy, core: usize, line: u64| {
            h.cores[core].l1d.peek(LineAddr::new(line)).map(|l| l.state)
        };
        // Held nowhere before the load.
        let _ = h.access(&load(0, 40, 0));
        assert_eq!(installed(&h, 0, 40), Some(MesiState::Shared));
        // Held by another core's L1 (and the L2).
        let _ = h.access(&load(1, 40, 500));
        assert_eq!(installed(&h, 1, 40), Some(MesiState::Shared));
        // Held by the L2 only.
        h.prefetch_fill_l2(LineAddr::new(41));
        let _ = h.access(&load(2, 41, 1000));
        assert_eq!(installed(&h, 2, 41), Some(MesiState::Shared));
        // A store installs Modified whoever else held the line.
        let _ = h.access(&store(3, 41, 1500));
        assert_eq!(installed(&h, 3, 41), Some(MesiState::Modified));
    }

    #[test]
    fn prefetcher_brings_lines_into_l2_on_streaming_access() {
        let mut h = hierarchy();
        // Stream with unit stride from one PC; after a few accesses the
        // prefetcher should have filled the next line(s) into the L2.
        for i in 0..6u64 {
            let req = load(0, 100 + i, i * 10).with_pc(0x4000);
            let _ = h.access(&req);
        }
        assert!(h.l2_contains(LineAddr::new(106)) || h.l2_contains(LineAddr::new(107)));
        assert!(h.stats().counter("hierarchy.prefetch_fills") > 0);
    }

    #[test]
    fn prefetch_training_can_be_suppressed() {
        let mut h = hierarchy();
        for i in 0..6u64 {
            let req = load(0, 200 + i, i * 10)
                .with_pc(0x5000)
                .without_prefetch_training();
            let _ = h.access(&req);
        }
        assert!(!h.l2_contains(LineAddr::new(206)));
        assert!(!h.l2_contains(LineAddr::new(207)));
    }

    #[test]
    fn commit_fill_installs_into_l1() {
        let mut h = hierarchy();
        assert!(!h.own_l1_contains(0, LineAddr::new(55)));
        h.commit_fill_l1(0, LineAddr::new(55), Cycle::new(10));
        assert!(h.own_l1_contains(0, LineAddr::new(55)));
    }

    #[test]
    fn instruction_fetches_use_the_l1i() {
        let mut h = hierarchy();
        let req = AccessRequest::new(0, LineAddr::new(900), AccessKind::InstFetch, Cycle::ZERO);
        let first = h.access(&req);
        assert_ne!(first.served_by, ServiceLevel::L1);
        let again = h.access(&AccessRequest::new(
            0,
            LineAddr::new(900),
            AccessKind::InstFetch,
            Cycle::new(100),
        ));
        assert_eq!(again.served_by, ServiceLevel::L1);
        assert_eq!(again.latency, 1);
    }

    #[test]
    fn probes_are_side_effect_free() {
        let mut h = hierarchy();
        let _ = h.access(&store(2, 77, 0));
        let before = h.stats();
        assert!(h.remote_private_holds_exclusive(0, LineAddr::new(77)));
        assert!(!h.remote_private_holds_exclusive(2, LineAddr::new(77)));
        assert!(h.any_other_copy(0, LineAddr::new(77)));
        assert_eq!(h.stats(), before);
    }

    #[test]
    fn l1_eviction_of_dirty_line_writes_back_to_l2() {
        let cfg = SystemConfig::small_test();
        let mut h = MemoryHierarchy::new(&cfg);
        // Dirty a line, then stream enough conflicting lines through the small
        // L1 to force its eviction.
        let _ = h.access(&store(0, 0, 0));
        let l1_lines = cfg.l1d.num_lines(cfg.line_bytes) as u64;
        for i in 1..(l1_lines * 3) {
            let _ = h.access(&load(0, i, 10 + i));
        }
        assert!(h.stats().counter("hierarchy.l1d_writebacks") > 0);
        assert!(h.l2_contains(LineAddr::new(0)));
        // Streaming through more lines than the L2 holds evicts the now-dirty
        // L2 copy too, which writes it back to memory.
        assert_eq!(h.stats().counter("hierarchy.l2_writebacks"), 0);
        let l2_lines = cfg.l2.num_lines(cfg.line_bytes) as u64;
        for i in (l1_lines * 3)..(l2_lines * 3) {
            let _ = h.access(&load(0, i, 10 + i));
        }
        assert!(!h.l2_contains(LineAddr::new(0)));
        assert!(h.stats().counter("hierarchy.l2_writebacks") > 0);
    }

    #[test]
    fn mshr_pressure_increases_latency() {
        let mut cfg = SystemConfig::paper_default();
        cfg.l1d.mshrs = 1;
        let mut h = MemoryHierarchy::new(&cfg);
        // Two different cold misses at the same cycle: the second must wait for
        // the single MSHR.
        let a = h.access(&load(0, 1000, 0));
        let b = h.access(&load(0, 2000, 0));
        assert!(
            b.latency > a.latency,
            "structural hazard should delay the second miss"
        );
    }
}
