//! The MuonTrap memory model.
//!
//! [`MuonTrap`] wires the per-core filter structures in front of the shared
//! non-speculative hierarchy and implements the [`MemoryModel`] interface the
//! out-of-order core drives. Every MuonTrap has its data filter cache (L0D);
//! six toggles of [`ProtectionConfig`] choose what guards it:
//! `secure_filter` (commit-time write-through, filter TLB and domain-switch
//! flushes), `coherence_protection`, `instruction_filter_cache`,
//! `prefetch_at_commit`, `clear_on_misspeculate` and `parallel_l1_access`.
//! That is how the cost-breakdown experiments (figures 8 and 9) and the
//! "insecure L0" baseline are produced from this one implementation.

use simkit::addr::{LineAddr, PhysAddr, VirtAddr};
use simkit::config::{ProtectionConfig, SystemConfig};
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use memsys::tlb::PageTable;
use memsys::types::{AccessKind, AccessRequest, FillLevel};
use memsys::Platform;

use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};

use crate::filter_cache::FilterCache;
use crate::filter_tlb::FilterTlb;

/// Per-core protection state.
#[derive(Debug)]
struct CoreState {
    data_filter: FilterCache,
    inst_filter: FilterCache,
    filter_tlb: FilterTlb,
}

simkit::counters! {
    /// MuonTrap's own events, reported as `muontrap.*` once non-zero. What a
    /// filter cache sees (hits, misses, invalidations, flushes) it counts
    /// itself; [`FilterTotals`] sums those over the cores.
    struct MuonTrapCounts {
        /// Speculative loads refused because a remote core owns the line: one
        /// per poll.
        coherence_nacks: u64,
        committed_loads: u64,
        committed_stores: u64,
        filter_tlb_promotions: u64,
        commit_writethroughs: u64,
        /// Uncommitted lines a speculative load evicted from the data filter
        /// cache (a store prefetch's evictions are not counted here).
        l0d_uncommitted_evictions: u64,
        store_prefetches: u64,
        /// Committed stores whose upgrade had to invalidate other copies
        /// (figure 7).
        store_upgrade_broadcasts: u64,
        se_upgrades: u64,
        l0i_commit_writethroughs: u64,
        misspeculation_flushes: u64,
        context_switch_flushes: u64,
        syscall_flushes: u64,
        sandbox_flushes: u64,
    }
}

simkit::counters! {
    /// The per-core filter-cache counts summed over every core, reported as
    /// `muontrap.*` once non-zero.
    struct FilterTotals {
        l0d_hits: u64,
        l0d_misses: u64,
        l0i_hits: u64,
        l0i_misses: u64,
        filter_invalidations_received: u64,
        filter_flushes: u64,
    }
}

/// The MuonTrap protection scheme as a pluggable memory model.
#[derive(Debug)]
pub struct MuonTrap {
    platform: Platform,
    protection: ProtectionConfig,
    cores: Vec<CoreState>,
    counts: MuonTrapCounts,
    /// Reusable buffer for draining the hierarchy's invalidation queues, so
    /// the per-access/per-tick drain never allocates.
    inval_scratch: Vec<LineAddr>,
}

impl MuonTrap {
    /// Builds MuonTrap (and all baseline variants selected through
    /// `config.protection`) over a fresh platform.
    pub fn new(config: &SystemConfig) -> Self {
        let cores = (0..config.cores)
            .map(|_| CoreState {
                data_filter: FilterCache::new(&config.data_filter, config.line_bytes),
                inst_filter: FilterCache::new(&config.inst_filter, config.line_bytes),
                filter_tlb: FilterTlb::new(config.filter_tlb_entries),
            })
            .collect();
        MuonTrap {
            platform: Platform::new(config),
            protection: config.protection,
            cores,
            counts: MuonTrapCounts::default(),
            inval_scratch: Vec::new(),
        }
    }

    /// The platform underneath, whose non-speculative hierarchy shows what
    /// became architecturally visible.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Whether `core`'s data filter cache currently holds the line containing
    /// `vaddr`.
    pub fn data_filter_contains(&self, core: usize, vaddr: VirtAddr) -> bool {
        let line = self.platform.phys_line(core, vaddr);
        self.cores[core].data_filter.contains(line)
    }

    /// Whether `core`'s instruction filter cache currently holds the line
    /// containing `vaddr`.
    pub fn inst_filter_contains(&self, core: usize, vaddr: VirtAddr) -> bool {
        let line = self.platform.phys_line(core, vaddr);
        self.cores[core].inst_filter.contains(line)
    }

    /// Occupancy of the data filter cache of `core` in lines.
    pub fn data_filter_occupancy(&self, core: usize) -> usize {
        self.cores[core].data_filter.occupancy()
    }

    /// Flushes every filter structure on `core` (§4.3, §4.9).
    fn flush_core_filters(&mut self, core: usize) {
        let state = &mut self.cores[core];
        state.data_filter.flush();
        state.inst_filter.flush();
        state.filter_tlb.flush();
    }

    /// Applies pending invalidations broadcast by other cores' exclusive
    /// upgrades to this core's filter caches (§4.5: exclusive upgrades must
    /// invalidate filter caches so their timing stays independent). Runs on
    /// every tick and before every access, so the common empty-queue case
    /// returns immediately and the drain reuses one scratch buffer.
    fn drain_invalidations(&mut self, core: usize) {
        let hierarchy = &mut self.platform.hierarchy;
        if !hierarchy.has_pending_invalidations(core) {
            return;
        }
        let mut lines = std::mem::take(&mut self.inval_scratch);
        hierarchy.drain_invalidations_into(core, &mut lines);
        for &line in &lines {
            let state = &mut self.cores[core];
            state.data_filter.external_invalidate(line);
            state.inst_filter.external_invalidate(line);
        }
        lines.clear();
        self.inval_scratch = lines;
    }

    /// Translates a data access, routing speculative translations through the
    /// filter TLB when the filter is secure. Returns the physical line and the
    /// translation latency.
    fn translate_data(&mut self, core: usize, ctx: &MemAccessCtx) -> (LineAddr, u64) {
        let filter_tlb = &mut self.cores[core].filter_tlb;
        if !(self.protection.secure_filter && ctx.speculative) {
            return self.platform.data_line(core, ctx.vaddr);
        }
        let tlb = &self.platform.config().tlb;
        let (page_bytes, hit_latency) = (tlb.page_bytes, tlb.hit_latency);
        let vpn = ctx.vaddr.page_number(page_bytes);
        if let Some(ppn) = filter_tlb.lookup(vpn) {
            let pa = ppn * page_bytes + ctx.vaddr.page_offset(page_bytes);
            return (self.platform.line(PhysAddr::new(pa)), hit_latency);
        }
        // Consult the main TLB without filling it; walk if needed and put the
        // speculative translation in the filter TLB.
        let t = self.platform.mmu(core).translate_data_no_fill(ctx.vaddr);
        filter_tlb.fill(t.vpn, t.paddr.raw() / page_bytes);
        (self.platform.line(t.paddr), t.latency)
    }

    /// The extra lookup penalty the L0 adds in front of the L1 (§4, "Adding
    /// this small cache increases lookup time in the L1 by one cycle"), unless
    /// the parallel-lookup option is enabled.
    fn l0_miss_penalty(&self) -> u64 {
        if self.protection.parallel_l1_access {
            0
        } else {
            self.platform.config().data_filter.hit_latency
        }
    }
}

impl MemoryModel for MuonTrap {
    fn name(&self) -> &str {
        if self.protection.secure_filter {
            "muontrap"
        } else {
            "insecure-l0"
        }
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let core = ctx.core;
        let (line, xlat) = self.platform.inst_line(core, ctx.vaddr);

        if self.protection.instruction_filter_cache && self.protection.secure_filter {
            if let Some(meta) = self.cores[core].inst_filter.lookup(line) {
                let wait = meta.fill_ready_at.since(ctx.when);
                return MemOutcome::Done {
                    latency: self.platform.config().inst_filter.hit_latency.max(wait) + xlat,
                };
            }
            let fill = if ctx.speculative {
                FillLevel::None
            } else {
                FillLevel::Normal
            };
            let req = AccessRequest::new(core, line, AccessKind::InstFetch, ctx.when)
                .with_fill(fill)
                .without_prefetch_training();
            let resp = self.platform.hierarchy.access(&req);
            let latency = resp.latency + self.platform.config().inst_filter.hit_latency + xlat;
            self.cores[core]
                .inst_filter
                .insert_speculative(line, false, ctx.when + latency);
            MemOutcome::Done { latency }
        } else {
            MemOutcome::Done {
                latency: self.platform.fetch_line(core, line, ctx.when) + xlat,
            }
        }
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let core = ctx.core;
        let secure = self.protection.secure_filter;
        self.drain_invalidations(core);
        let (line, xlat_latency) = self.translate_data(core, ctx);

        // A non-speculative access that needs write permission (an atomic at
        // the head of the ROB) behaves like a committed store: it may update
        // the non-speculative hierarchy and acquire exclusive ownership.
        if !ctx.speculative && ctx.is_store {
            let resp = self.platform.load_line(core, line, ctx.pc, true, ctx.when);
            self.cores[core].data_filter.insert_committed(line);
            return MemOutcome::Done {
                latency: resp.latency + self.l0_miss_penalty() + xlat_latency,
            };
        }

        // Filter-cache hit: 1-cycle access, unless the fill that brought the
        // line in is still in flight, in which case this access rides along
        // with it like an MSHR-coalesced secondary miss.
        if let Some(meta) = self.cores[core].data_filter.lookup(line) {
            let wait = meta.fill_ready_at.since(ctx.when);
            return MemOutcome::Done {
                latency: self.platform.config().data_filter.hit_latency.max(wait) + xlat_latency,
            };
        }

        // Reduced coherence speculation: a speculative access may not force a
        // remote private line out of M/E (§4.5). It is nacked and retried once
        // non-speculative.
        if secure
            && self.protection.coherence_protection
            && ctx.speculative
            && self
                .platform
                .hierarchy
                .remote_private_holds_exclusive(core, line)
        {
            self.counts.coherence_nacks += 1;
            return MemOutcome::RetryWhenNonSpeculative;
        }

        // Fetch the data. With the secure filter, nothing is installed in the
        // non-speculative caches; the insecure L0 fills them as usual.
        let fill = if secure && ctx.speculative {
            FillLevel::None
        } else {
            FillLevel::Normal
        };
        let mut req = AccessRequest::new(core, line, AccessKind::Load, ctx.when)
            .with_pc(ctx.pc.raw())
            .with_fill(fill);
        if self.protection.prefetch_at_commit {
            req = req.without_prefetch_training();
        }
        if secure && self.protection.coherence_protection && ctx.speculative {
            req = req.without_remote_downgrade();
        }
        let hierarchy = &mut self.platform.hierarchy;
        let resp = hierarchy.access(&req);
        if resp.coherence_delayed {
            self.counts.coherence_nacks += 1;
            return MemOutcome::RetryWhenNonSpeculative;
        }

        // Decide SE eligibility: the line is in no other private cache, so an
        // unprotected system would have taken it Exclusive.
        let exclusive_eligible = secure
            && !ctx.is_store
            && !hierarchy.any_other_copy(core, line)
            && !hierarchy.own_l1_contains(core, line);

        let latency = resp.latency + self.l0_miss_penalty() + xlat_latency;
        let evicted = self.cores[core].data_filter.insert_speculative(
            line,
            exclusive_eligible,
            ctx.when + latency,
        );
        if evicted.is_some() {
            self.counts.l0d_uncommitted_evictions += 1;
        }

        MemOutcome::Done { latency }
    }

    fn store_address_ready(&mut self, ctx: &MemAccessCtx) {
        // A speculative store may prefetch its line into the filter cache in
        // Shared state (but never exclusively, §4.5).
        if !self.protection.secure_filter {
            return;
        }
        self.drain_invalidations(ctx.core);
        let (line, _) = self.translate_data(ctx.core, ctx);
        if self.cores[ctx.core].data_filter.contains(line) {
            return;
        }
        let hierarchy = &mut self.platform.hierarchy;
        if self.protection.coherence_protection
            && hierarchy.remote_private_holds_exclusive(ctx.core, line)
        {
            // Cannot even fetch a shared copy without downgrading the owner;
            // the store will get its data at commit instead.
            return;
        }
        let req = AccessRequest::new(ctx.core, line, AccessKind::Load, ctx.when)
            .with_pc(ctx.pc.raw())
            .with_fill(FillLevel::None)
            .without_prefetch_training()
            .without_remote_downgrade();
        let resp = hierarchy.access(&req);
        if !resp.coherence_delayed {
            self.counts.store_prefetches += 1;
            self.cores[ctx.core].data_filter.insert_speculative(
                line,
                false,
                ctx.when + resp.latency,
            );
        }
    }

    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
        self.drain_invalidations(ctx.core);
        let core = ctx.core;
        // Commit-time translation uses (and fills) the non-speculative TLB;
        // the speculative entry, if any, is promoted out of the filter TLB.
        let vpn = ctx.vaddr.page_number(self.platform.config().tlb.page_bytes);
        if self.protection.secure_filter && self.cores[core].filter_tlb.take(vpn).is_some() {
            self.platform.mmu(core).fill_data_tlb(vpn);
            self.counts.filter_tlb_promotions += 1;
        }
        let (line, _) = self.platform.data_line(core, ctx.vaddr);

        if ctx.is_store {
            self.counts.committed_stores += 1;
        } else {
            self.counts.committed_loads += 1;
        }

        if !self.protection.secure_filter {
            // Insecure L0: the access already updated the hierarchy at execute
            // time; a store still needs exclusive permission now.
            if ctx.is_store {
                self.platform.commit_store(core, line, ctx.pc, ctx.when);
                self.cores[core].data_filter.insert_committed(line);
            }
            if self.protection.prefetch_at_commit {
                self.platform.hierarchy.train_prefetcher(ctx.pc.raw(), line);
            }
            return 0;
        }

        // Secure filter cache: write-through at commit (§4.2).
        let meta_before = self.cores[core].data_filter.mark_committed(line);
        let was_uncommitted = meta_before.map(|m| !m.committed).unwrap_or(true);
        let exclusive_eligible = meta_before.map(|m| m.exclusive_eligible).unwrap_or(false);
        // Whether our own L1 already held the line exclusively *before* this
        // commit: only then can a store avoid the invalidation broadcast that
        // keeps other filter caches timing-invariant (§4.5, figure 7).
        let hierarchy = &mut self.platform.hierarchy;
        let already_exclusive = hierarchy.own_l1_exclusive(core, line);

        if was_uncommitted {
            // Install the line into the non-speculative L1 (re-fetching it if
            // it was evicted from the filter cache before commit, §4.2). This
            // is asynchronous and does not stall commit.
            hierarchy.commit_fill_l1(core, line, ctx.when);
            self.counts.commit_writethroughs += 1;
        }

        if ctx.is_store {
            // The store needs exclusive ownership. If our own L1 already had
            // it, nothing is broadcast; otherwise the upgrade must invalidate
            // every other copy including other filter caches (fig. 7 counts
            // how often that broadcast happens).
            if !already_exclusive {
                hierarchy.upgrade_exclusive(core, line);
                self.counts.store_upgrade_broadcasts += 1;
            }
        } else if exclusive_eligible {
            // SE pseudo-state: launch the asynchronous upgrade to Exclusive.
            hierarchy.upgrade_exclusive(core, line);
            self.counts.se_upgrades += 1;
        }

        // Prefetcher training from the committed stream only (§4.6).
        if self.protection.prefetch_at_commit {
            hierarchy.train_prefetcher(ctx.pc.raw(), line);
        }
        0
    }

    fn commit_fetch(&mut self, ctx: &MemAccessCtx) {
        if !(self.protection.instruction_filter_cache && self.protection.secure_filter) {
            return;
        }
        let core = ctx.core;
        let (line, _) = self.platform.inst_line(core, ctx.pc);
        let meta = self.cores[core].inst_filter.mark_committed(line);
        if matches!(meta, Some(m) if !m.committed) {
            // Instruction lines are read-only: committing them just installs
            // them in the L1I; no coherence transaction is needed (§4.7).
            let req = AccessRequest::new(core, line, AccessKind::InstFetch, ctx.when)
                .without_prefetch_training();
            let _ = self.platform.hierarchy.access(&req);
            self.counts.l0i_commit_writethroughs += 1;
        }
    }

    fn set_page_table(&mut self, core: usize, table: PageTable) {
        self.platform.set_page_table(core, table);
    }

    fn on_squash(&mut self, core: usize, _when: Cycle) {
        if self.protection.clear_on_misspeculate && self.protection.secure_filter {
            self.flush_core_filters(core);
            self.counts.misspeculation_flushes += 1;
        }
    }

    fn on_domain_switch(&mut self, core: usize, kind: DomainSwitch, _when: Cycle) {
        if !self.protection.secure_filter {
            return;
        }
        self.flush_core_filters(core);
        let counts = &mut self.counts;
        match kind {
            DomainSwitch::ContextSwitch => counts.context_switch_flushes += 1,
            DomainSwitch::Syscall => counts.syscall_flushes += 1,
            DomainSwitch::SandboxBoundary => counts.sandbox_flushes += 1,
        }
    }

    fn tick(&mut self, core: usize, _now: Cycle) {
        self.drain_invalidations(core);
    }

    fn is_idle(&self, core: usize) -> bool {
        // The only per-cycle background work is draining invalidation
        // broadcasts; with an empty queue, `tick` is a no-op and idle cycles
        // may be fast-forwarded.
        !self.platform.hierarchy.has_pending_invalidations(core)
    }

    fn stats(&self) -> StatSet {
        let mut out = self.platform.stats();
        self.counts.export_nonzero(&mut out, "muontrap");
        let mut totals = FilterTotals::default();
        for (i, c) in self.cores.iter().enumerate() {
            let (l0d, l0i) = (c.data_filter.counts(), c.inst_filter.counts());
            l0d.export(&mut out, &format!("muontrap.core{i}.l0d"));
            l0i.export(&mut out, &format!("muontrap.core{i}.l0i"));
            totals.l0d_hits += l0d.hits;
            totals.l0d_misses += l0d.misses;
            totals.l0i_hits += l0i.hits;
            totals.l0i_misses += l0i.misses;
            totals.filter_invalidations_received += l0d.external_invalidations;
            totals.filter_flushes += l0d.flushes;
        }
        totals.export_nonzero(&mut out, "muontrap");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(core: usize, vaddr: u64, speculative: bool, is_store: bool) -> MemAccessCtx {
        let pc = VirtAddr::new(0x40_0000);
        MemAccessCtx {
            speculative,
            under_unresolved_branch: speculative,
            ..MemAccessCtx::simple(core, VirtAddr::new(vaddr), pc, Cycle::ZERO, is_store)
        }
    }

    fn muontrap() -> MuonTrap {
        MuonTrap::new(&SystemConfig::paper_default())
    }

    #[test]
    fn speculative_load_fills_only_the_filter_cache() {
        let mut mt = muontrap();
        let c = ctx(0, 0x8000, true, false);
        let outcome = mt.load(&c);
        assert!(matches!(outcome, MemOutcome::Done { .. }));
        let line = mt.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(mt.data_filter_contains(0, VirtAddr::new(0x8000)));
        assert!(
            !mt.platform().hierarchy.own_l1_contains(0, line),
            "speculative data must not enter the L1"
        );
        assert!(
            !mt.platform().hierarchy.l2_contains(line),
            "speculative data must not enter the L2"
        );
    }

    #[test]
    fn filter_cache_hit_is_single_cycle() {
        let mut mt = muontrap();
        let c = ctx(0, 0x8000, true, false);
        let first = mt.load(&c).latency().expect("first access completes");
        // A repeat access *after the fill has arrived* is the 1-cycle L0 hit
        // (translation is cached in the filter TLB). A repeat access while the
        // fill is still outstanding waits for it, like a coalesced miss.
        let mut early = ctx(0, 0x8000, true, false);
        early.when = Cycle::new(1);
        let while_in_flight = mt.load(&early).latency().unwrap();
        assert!(while_in_flight >= first.saturating_sub(2));
        let mut late = ctx(0, 0x8000, true, false);
        late.when = Cycle::new(first + 10);
        assert_eq!(mt.load(&late), MemOutcome::Done { latency: 1 });
    }

    #[test]
    fn commit_writes_the_line_through_to_the_l1() {
        let mut mt = muontrap();
        let spec = ctx(0, 0x8000, true, false);
        let _ = mt.load(&spec);
        let line = mt.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(!mt.platform().hierarchy.own_l1_contains(0, line));
        let commit = ctx(0, 0x8000, false, false);
        let extra = mt.commit_access(&commit);
        assert_eq!(
            extra, 0,
            "the write-through is asynchronous and must not stall commit"
        );
        assert!(mt.platform().hierarchy.own_l1_contains(0, line));
        let s = mt.stats();
        assert_eq!(s.counter("muontrap.commit_writethroughs"), 1);
    }

    #[test]
    fn commit_refetches_lines_evicted_from_the_filter_cache() {
        let mut mt = muontrap();
        // Fill the 32-line filter cache far past capacity so early lines are
        // evicted before they commit.
        for i in 0..128u64 {
            let _ = mt.load(&ctx(0, 0x10_0000 + i * 64, true, false));
        }
        let target = VirtAddr::new(0x10_0000);
        assert!(
            !mt.data_filter_contains(0, target),
            "the first line must have been evicted"
        );
        let line = mt.platform().phys_line(0, target);
        let _ = mt.commit_access(&ctx(0, 0x10_0000, false, false));
        assert!(
            mt.platform().hierarchy.own_l1_contains(0, line),
            "commit must bring the line into the L1 anyway"
        );
    }

    #[test]
    fn domain_switch_flushes_all_filter_structures() {
        let mut mt = muontrap();
        let _ = mt.load(&ctx(0, 0x8000, true, false));
        let _ = mt.fetch_instruction(&ctx(0, 0x40_0000, true, false));
        assert!(mt.data_filter_occupancy(0) > 0);
        mt.on_domain_switch(0, DomainSwitch::ContextSwitch, Cycle::ZERO);
        assert_eq!(mt.data_filter_occupancy(0), 0);
        assert!(!mt.inst_filter_contains(0, VirtAddr::new(0x40_0000)));
        let s = mt.stats();
        assert_eq!(s.counter("muontrap.context_switch_flushes"), 1);
    }

    #[test]
    fn clear_on_misspeculate_is_opt_in() {
        let mut cfg = SystemConfig::paper_default();
        cfg.protection = ProtectionConfig::muontrap_default();
        let mut mt = MuonTrap::new(&cfg);
        let _ = mt.load(&ctx(0, 0x8000, true, false));
        mt.on_squash(0, Cycle::ZERO);
        assert!(
            mt.data_filter_contains(0, VirtAddr::new(0x8000)),
            "default keeps data on squash"
        );

        cfg.protection = ProtectionConfig::muontrap_clear_on_misspeculate();
        let mut mt = MuonTrap::new(&cfg);
        let _ = mt.load(&ctx(0, 0x8000, true, false));
        mt.on_squash(0, Cycle::ZERO);
        assert!(
            !mt.data_filter_contains(0, VirtAddr::new(0x8000)),
            "clear-on-misspeculate flushes"
        );
    }

    #[test]
    fn speculative_access_to_remote_exclusive_line_is_nacked() {
        let mut cfg = SystemConfig::paper_default();
        // Both "processes" use the same page table so the cores genuinely
        // share physical lines in this unit test.
        let mut mt = MuonTrap::new(&cfg);
        mt.set_page_table(0, PageTable::new(cfg.tlb.page_bytes, 0));
        mt.set_page_table(1, PageTable::new(cfg.tlb.page_bytes, 0));
        // Core 1 commits a store, so its L1 holds the line in Modified.
        let _ = mt.commit_access(&ctx(1, 0x9000, false, true));
        assert!(mt
            .platform()
            .hierarchy
            .own_l1_exclusive(1, mt.platform().phys_line(1, VirtAddr::new(0x9000))));
        // Core 0 now tries to load the same line speculatively: nacked.
        let outcome = mt.load(&ctx(0, 0x9000, true, false));
        assert_eq!(outcome, MemOutcome::RetryWhenNonSpeculative);
        // Once non-speculative the access succeeds.
        let outcome = mt.load(&ctx(0, 0x9000, false, false));
        assert!(matches!(outcome, MemOutcome::Done { .. }));
        cfg.protection.coherence_protection = false;
        let mut mt = MuonTrap::new(&cfg);
        mt.set_page_table(0, PageTable::new(cfg.tlb.page_bytes, 0));
        mt.set_page_table(1, PageTable::new(cfg.tlb.page_bytes, 0));
        let _ = mt.commit_access(&ctx(1, 0x9000, false, true));
        let outcome = mt.load(&ctx(0, 0x9000, true, false));
        assert!(
            matches!(outcome, MemOutcome::Done { .. }),
            "without coherence protection the speculative access downgrades the owner"
        );
    }

    #[test]
    fn store_commit_broadcast_only_when_not_already_exclusive() {
        let mut mt = muontrap();
        // First store to a private line: the L1 does not yet hold it, so the
        // upgrade broadcast happens.
        let _ = mt.commit_access(&ctx(0, 0xa000, false, true));
        let s1 = mt.stats().counter("muontrap.store_upgrade_broadcasts");
        assert_eq!(s1, 1);
        // Second store to the same line: the L1 already has it exclusively.
        let _ = mt.commit_access(&ctx(0, 0xa000, false, true));
        let s2 = mt.stats().counter("muontrap.store_upgrade_broadcasts");
        assert_eq!(s2, 1, "no new broadcast for an already-exclusive line");
        assert_eq!(mt.stats().counter("muontrap.committed_stores"), 2);
    }

    #[test]
    fn exclusive_upgrade_invalidates_other_filter_caches() {
        let cfg = SystemConfig::paper_default();
        let mut mt = MuonTrap::new(&cfg);
        mt.set_page_table(0, PageTable::new(cfg.tlb.page_bytes, 0));
        mt.set_page_table(1, PageTable::new(cfg.tlb.page_bytes, 0));
        // Core 1 speculatively loads a line into its filter cache.
        let _ = mt.load(&ctx(1, 0xb000, true, false));
        assert!(mt.data_filter_contains(1, VirtAddr::new(0xb000)));
        // Core 0 commits a store to the same line: the upgrade must reach core
        // 1's filter cache on its next activity.
        let _ = mt.commit_access(&ctx(0, 0xb000, false, true));
        mt.tick(1, Cycle::new(10));
        assert!(
            !mt.data_filter_contains(1, VirtAddr::new(0xb000)),
            "the filter-cache copy must be invalidated by the exclusive upgrade"
        );
    }

    #[test]
    fn prefetcher_only_learns_from_committed_stream() {
        let mut mt = muontrap();
        // Speculative streaming accesses: the prefetcher must stay untrained.
        for i in 0..8u64 {
            let mut c = ctx(0, 0x20_0000 + i * 64, true, false);
            c.pc = VirtAddr::new(0x40_1000);
            let _ = mt.load(&c);
        }
        assert_eq!(
            mt.platform()
                .hierarchy
                .stats()
                .counter("hierarchy.prefetch_fills"),
            0
        );
        // The same stream committing trains it.
        for i in 0..8u64 {
            let mut c = ctx(0, 0x20_0000 + i * 64, false, false);
            c.pc = VirtAddr::new(0x40_1000);
            let _ = mt.commit_access(&c);
        }
        assert!(
            mt.platform()
                .hierarchy
                .stats()
                .counter("hierarchy.prefetch_fills")
                > 0
        );
    }

    #[test]
    fn insecure_l0_fills_the_normal_hierarchy() {
        let mut cfg = SystemConfig::paper_default();
        cfg.protection = ProtectionConfig::insecure_l0();
        let mut mt = MuonTrap::new(&cfg);
        assert_eq!(mt.name(), "insecure-l0");
        let _ = mt.load(&ctx(0, 0x8000, true, false));
        let line = mt.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(
            mt.platform().hierarchy.own_l1_contains(0, line),
            "the insecure L0 does not isolate the L1"
        );
    }

    #[test]
    fn instruction_filter_cache_captures_speculative_fetches() {
        let mut mt = muontrap();
        let c = ctx(0, 0x40_0000, true, false);
        let first = mt.fetch_instruction(&c);
        assert!(matches!(first, MemOutcome::Done { .. }));
        assert!(mt.inst_filter_contains(0, VirtAddr::new(0x40_0000)));
        let line = mt.platform().phys_line(0, VirtAddr::new(0x40_0000));
        assert!(
            !mt.platform().hierarchy.l2_contains(line),
            "speculative fetch must not fill the L2"
        );
        // Committing the fetch installs the line in the non-speculative side.
        mt.commit_fetch(&c);
        assert!(mt.platform().hierarchy.own_l1i_contains(0, line));
        assert_eq!(mt.stats().counter("muontrap.l0i_commit_writethroughs"), 1);
    }

    #[test]
    fn parallel_l1_access_reduces_miss_latency() {
        let mut serial_cfg = SystemConfig::paper_default();
        serial_cfg.protection = ProtectionConfig::muontrap_default();
        let mut parallel_cfg = SystemConfig::paper_default();
        parallel_cfg.protection = ProtectionConfig::muontrap_parallel_l1();

        let mut serial = MuonTrap::new(&serial_cfg);
        let mut parallel = MuonTrap::new(&parallel_cfg);
        // Warm both L1s non-speculatively, then measure a speculative L0 miss
        // that hits in the L1.
        let warm = ctx(0, 0xc000, false, false);
        let _ = serial.commit_access(&warm);
        let _ = parallel.commit_access(&warm);
        serial.flush_core_filters(0);
        parallel.flush_core_filters(0);
        let probe = ctx(0, 0xc000, true, false);
        let s = serial.load(&probe).latency().unwrap();
        let p = parallel.load(&probe).latency().unwrap();
        assert!(
            p < s,
            "parallel L0/L1 lookup must be faster on an L0 miss ({p} vs {s})"
        );
    }

    #[test]
    fn store_address_prefetch_brings_line_in_shared_state_only() {
        let mut mt = muontrap();
        let c = ctx(0, 0xd000, true, true);
        mt.store_address_ready(&c);
        assert!(mt.data_filter_contains(0, VirtAddr::new(0xd000)));
        let line = mt.platform().phys_line(0, VirtAddr::new(0xd000));
        assert!(!mt.platform().hierarchy.own_l1_exclusive(0, line));
        assert!(!mt.platform().hierarchy.own_l1_contains(0, line));
        assert_eq!(mt.stats().counter("muontrap.store_prefetches"), 1);
    }

    #[test]
    fn filter_totals_are_the_per_core_sums() {
        let cfg = SystemConfig::paper_default();
        let mut mt = MuonTrap::new(&cfg);
        mt.set_page_table(0, PageTable::new(cfg.tlb.page_bytes, 0));
        mt.set_page_table(1, PageTable::new(cfg.tlb.page_bytes, 0));
        for core in 0..2 {
            for vaddr in [0xb000, 0xb000, 0xc000 + core as u64 * 0x40] {
                let mut c = ctx(core, vaddr, true, false);
                c.when = Cycle::new(1_000);
                let _ = mt.load(&c);
            }
            let _ = mt.fetch_instruction(&ctx(core, 0x40_0000, true, false));
        }
        let _ = mt.fetch_instruction(&ctx(1, 0x40_0000, true, false));
        // Core 0's store upgrade invalidates core 1's filter copy of 0xb000.
        let _ = mt.commit_access(&ctx(0, 0xb000, false, true));
        mt.tick(1, Cycle::new(2_000));
        mt.on_domain_switch(0, DomainSwitch::Syscall, Cycle::ZERO);

        let s = mt.stats();
        let per_core = |field: &str| -> u64 {
            (0..2)
                .map(|i| s.counter(&format!("muontrap.core{i}.{field}")))
                .sum()
        };
        let derived = [
            ("muontrap.l0d_hits", per_core("l0d.hits")),
            ("muontrap.l0d_misses", per_core("l0d.misses")),
            ("muontrap.l0i_hits", per_core("l0i.hits")),
            ("muontrap.l0i_misses", per_core("l0i.misses")),
            (
                "muontrap.filter_invalidations_received",
                per_core("l0d.external_invalidations"),
            ),
            ("muontrap.filter_flushes", per_core("l0d.flushes")),
        ];
        for (name, sum) in derived {
            assert!(sum > 0, "{name}: the scenario must exercise it");
            assert_eq!(s.counter(name), sum, "{name}");
        }
        assert_eq!(s.counter("muontrap.l0d_hits"), 2);
        assert_eq!(s.counter("muontrap.l0i_hits"), 1);
        assert_eq!(s.counter("muontrap.filter_invalidations_received"), 1);
        assert_eq!(s.counter("muontrap.filter_flushes"), 1);
    }

    #[test]
    fn stats_include_hierarchy_and_filter_counters() {
        let mut mt = muontrap();
        let _ = mt.load(&ctx(0, 0x8000, true, false));
        let s = mt.stats();
        assert!(s.counter("hierarchy.data_accesses") > 0);
        assert!(s.counter("muontrap.core0.l0d.misses") > 0);
    }
}
