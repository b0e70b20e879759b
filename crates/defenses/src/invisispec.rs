//! InvisiSpec-style invisible speculation (Yan et al., MICRO 2018),
//! re-implemented as a memory model over the shared hierarchy.
//!
//! Speculative loads are serviced into a per-core *speculative buffer* without
//! changing any cache state (no fills, no coherence transitions). When the
//! load reaches its visibility point, the access is *exposed*: a second,
//! ordinary access updates the caches and — because the original access did
//! not participate in coherence — may need to validate or reload the data,
//! which can delay the end of the pipeline.
//!
//! Fidelity note: the original design exposes loads as soon as their
//! visibility condition holds (for the Spectre variant, once no older
//! unresolved branch remains; for the Future variant, once the load cannot be
//! squashed). Our core notifies memory models of safety only at commit, so
//! both variants expose at commit and the variants differ in how much of the
//! exposure latency stalls commit:
//!
//! * **Spectre** — exposure is assumed to have overlapped with the time
//!   between the visibility point and commit; commit only pays a short
//!   validation charge when the line is no longer present nearby.
//! * **Future** — the exposure could not start before commit, so the full
//!   re-access latency is paid at the head of the ROB, matching the
//!   substantially larger slowdowns the paper reports for this variant.

use std::collections::HashMap;

use simkit::addr::LineAddr;
use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use memsys::tlb::PageTable;
use memsys::types::{AccessKind, AccessRequest, FillLevel};
use memsys::Platform;

use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};

/// Which attack model the InvisiSpec configuration defends against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvisiSpecVariant {
    /// Data may become visible once the load is not dependent on any
    /// unresolved branch.
    Spectre,
    /// Data may become visible only once the load can no longer be squashed.
    Future,
}

/// Cost (in cycles) of a successful validation at exposure time: the line was
/// still where the speculative access found it.
const VALIDATION_LATENCY: u64 = 3;

/// Per-core InvisiSpec state: the lines currently held only in the speculative
/// buffer, with the cycle at which each line's fill completes (so secondary
/// speculative accesses behave like coalesced misses rather than magically
/// hitting before the data exists).
#[derive(Debug, Default)]
struct CoreBuffer {
    lines: HashMap<LineAddr, Cycle>,
}

simkit::counters! {
    /// InvisiSpec's events, reported as `invisispec.*` once non-zero.
    struct InvisiSpecCounts {
        /// Every load, speculative or not.
        spec_loads: u64,
        spec_buffer_hits: u64,
        /// Speculative loads refused because a remote core owns the line: one
        /// per poll.
        delayed_remote_owned: u64,
        committed_stores: u64,
        committed_loads: u64,
        exposures: u64,
        exposure_misses: u64,
        squash_buffer_clears: u64,
    }
}

/// The InvisiSpec memory model.
#[derive(Debug)]
pub struct InvisiSpec {
    platform: Platform,
    variant: InvisiSpecVariant,
    buffers: Vec<CoreBuffer>,
    counts: InvisiSpecCounts,
}

impl InvisiSpec {
    /// Builds an InvisiSpec configuration of the given variant.
    pub fn new(config: &SystemConfig, variant: InvisiSpecVariant) -> Self {
        InvisiSpec {
            platform: Platform::new(config),
            variant,
            buffers: (0..config.cores).map(|_| CoreBuffer::default()).collect(),
            counts: InvisiSpecCounts::default(),
        }
    }

    /// The configured variant.
    pub fn variant(&self) -> InvisiSpecVariant {
        self.variant
    }

    /// The platform underneath, whose hierarchy shows what speculation left
    /// behind.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Number of lines currently in `core`'s speculative buffer.
    pub fn buffer_occupancy(&self, core: usize) -> usize {
        self.buffers[core].lines.len()
    }
}

impl MemoryModel for InvisiSpec {
    fn name(&self) -> &str {
        match self.variant {
            InvisiSpecVariant::Spectre => "invisispec-spectre",
            InvisiSpecVariant::Future => "invisispec-future",
        }
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        // InvisiSpec does not protect the instruction cache; fetches behave as
        // in the unprotected system.
        MemOutcome::Done {
            latency: self.platform.fetch(ctx.core, ctx.vaddr, ctx.when),
        }
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let (line, xlat) = self.platform.data_line(ctx.core, ctx.vaddr);
        self.counts.spec_loads += 1;

        // Non-speculative accesses (atomics at the head of the ROB, retried
        // loads) behave exactly as on the unprotected hierarchy.
        if !ctx.speculative {
            let resp = self
                .platform
                .load_line(ctx.core, line, ctx.pc, ctx.is_store, ctx.when);
            self.buffers[ctx.core].lines.remove(&line);
            return MemOutcome::Done {
                latency: resp.latency + xlat,
            };
        }

        // Repeat speculative access to a buffered line: served from the
        // speculative buffer at L1 speed once the fill has arrived.
        if let Some(ready_at) = self.buffers[ctx.core].lines.get(&line).copied() {
            self.counts.spec_buffer_hits += 1;
            let wait = ready_at.since(ctx.when);
            return MemOutcome::Done {
                latency: self.platform.config().l1d.hit_latency.max(wait) + xlat,
            };
        }

        // An invisible access: no cache state may change, so the data is
        // fetched without filling any cache and without downgrading remote
        // owners. InvisiSpec does not claim to protect the prefetcher (§7.2 of
        // the MuonTrap paper), so the prefetcher is trained here exactly as in
        // the unprotected system.
        let req = AccessRequest::new(ctx.core, line, AccessKind::Load, ctx.when)
            .with_pc(ctx.pc.raw())
            .with_fill(FillLevel::None)
            .without_remote_downgrade();
        let resp = self.platform.hierarchy.access(&req);
        if resp.coherence_delayed {
            // The data is exclusively owned elsewhere; an invisible read of it
            // could be observed through that owner's timing, so InvisiSpec
            // waits until the load is safe and re-issues it then.
            self.counts.delayed_remote_owned += 1;
            return MemOutcome::RetryWhenNonSpeculative;
        }
        let latency = resp.latency + xlat;
        self.buffers[ctx.core]
            .lines
            .insert(line, ctx.when.saturating_add(latency));
        MemOutcome::Done { latency }
    }

    fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {
        // Stores are not speculatively visible; nothing to do until commit.
    }

    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
        let (line, _) = self.platform.data_line(ctx.core, ctx.vaddr);
        let was_buffered = self.buffers[ctx.core].lines.remove(&line).is_some();

        if ctx.is_store {
            self.counts.committed_stores += 1;
            self.platform.commit_store(ctx.core, line, ctx.pc, ctx.when);
            return 0;
        }

        self.counts.committed_loads += 1;
        // Exposure: the real access that installs the line in the cache
        // hierarchy and participates in coherence. The prefetcher was already
        // trained by the original speculative access, so it is not trained
        // again here.
        let hierarchy = &mut self.platform.hierarchy;
        let nearby_before =
            hierarchy.own_l1_contains(ctx.core, line) || hierarchy.l2_contains(line);
        let req = AccessRequest::new(ctx.core, line, AccessKind::Load, ctx.when)
            .with_pc(ctx.pc.raw())
            .without_prefetch_training();
        let resp = hierarchy.access(&req);

        if !was_buffered {
            // The load was never speculatively buffered (e.g. it executed
            // non-speculatively); no exposure cost beyond the access itself.
            return 0;
        }
        self.counts.exposures += 1;
        match self.variant {
            InvisiSpecVariant::Spectre => {
                // Exposure overlapped with the window between the visibility
                // point and commit; only an unlucky validation (data no longer
                // nearby) charges the pipeline.
                if nearby_before {
                    VALIDATION_LATENCY
                } else {
                    self.counts.exposure_misses += 1;
                    resp.latency.min(self.platform.config().l2.hit_latency)
                }
            }
            InvisiSpecVariant::Future => {
                // The exposure could not begin until the load was unsquashable
                // (commit), so its latency lands on the critical path.
                if nearby_before {
                    VALIDATION_LATENCY
                } else {
                    self.counts.exposure_misses += 1;
                    resp.latency
                }
            }
        }
    }

    fn set_page_table(&mut self, core: usize, table: PageTable) {
        self.platform.set_page_table(core, table);
    }

    fn on_squash(&mut self, core: usize, _when: Cycle) {
        // Squashed loads' buffer entries are simply dropped; they were never
        // visible to anyone else.
        self.buffers[core].lines.clear();
        self.counts.squash_buffer_clears += 1;
    }

    fn on_domain_switch(&mut self, core: usize, _kind: DomainSwitch, _when: Cycle) {
        self.buffers[core].lines.clear();
    }

    fn stats(&self) -> StatSet {
        let mut stats = self.platform.stats();
        self.counts.export_nonzero(&mut stats, "invisispec");
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
    fn speculative_loads_do_not_touch_the_caches() {
        let mut m = InvisiSpec::new(&SystemConfig::paper_default(), InvisiSpecVariant::Spectre);
        let _ = m.load(&ctx(0, 0x8000, true, false));
        let line = m.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(!m.platform().hierarchy.own_l1_contains(0, line));
        assert!(!m.platform().hierarchy.l2_contains(line));
        assert_eq!(m.buffer_occupancy(0), 1);
    }

    #[test]
    fn exposure_at_commit_installs_the_line() {
        let mut m = InvisiSpec::new(&SystemConfig::paper_default(), InvisiSpecVariant::Future);
        let _ = m.load(&ctx(0, 0x8000, true, false));
        let extra = m.commit_access(&ctx(0, 0x8000, false, false));
        let line = m.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(m.platform().hierarchy.own_l1_contains(0, line));
        assert!(extra > 0, "the Future variant pays the exposure at commit");
        assert_eq!(m.buffer_occupancy(0), 0);
    }

    #[test]
    fn spectre_variant_commit_charge_is_smaller_than_future() {
        let cfg = SystemConfig::paper_default();
        let mut spectre = InvisiSpec::new(&cfg, InvisiSpecVariant::Spectre);
        let mut future = InvisiSpec::new(&cfg, InvisiSpecVariant::Future);
        let _ = spectre.load(&ctx(0, 0x8000, true, false));
        let _ = future.load(&ctx(0, 0x8000, true, false));
        let s = spectre.commit_access(&ctx(0, 0x8000, false, false));
        let f = future.commit_access(&ctx(0, 0x8000, false, false));
        assert!(
            s <= f,
            "Spectre variant must not stall commit longer than Future ({s} vs {f})"
        );
    }

    #[test]
    fn squash_clears_the_speculative_buffer() {
        let mut m = InvisiSpec::new(&SystemConfig::paper_default(), InvisiSpecVariant::Spectre);
        let _ = m.load(&ctx(0, 0x8000, true, false));
        let _ = m.load(&ctx(0, 0x9000, true, false));
        assert_eq!(m.buffer_occupancy(0), 2);
        m.on_squash(0, Cycle::ZERO);
        assert_eq!(m.buffer_occupancy(0), 0);
        // Nothing leaked into the caches either.
        let line = m.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(!m.platform().hierarchy.own_l1_contains(0, line));
    }

    #[test]
    fn remote_exclusive_lines_delay_speculative_loads() {
        let cfg = SystemConfig::paper_default();
        let mut m = InvisiSpec::new(&cfg, InvisiSpecVariant::Spectre);
        m.set_page_table(0, PageTable::new(cfg.tlb.page_bytes, 0));
        m.set_page_table(1, PageTable::new(cfg.tlb.page_bytes, 0));
        let _ = m.commit_access(&ctx(1, 0x9000, false, true));
        let outcome = m.load(&ctx(0, 0x9000, true, false));
        assert_eq!(outcome, MemOutcome::RetryWhenNonSpeculative);
    }

    #[test]
    fn buffered_lines_hit_on_repeat_speculative_access() {
        let mut m = InvisiSpec::new(&SystemConfig::paper_default(), InvisiSpecVariant::Spectre);
        let first = m.load(&ctx(0, 0x8000, true, false)).latency().unwrap();
        // A repeat access *after the fill has arrived* is served from the
        // speculative buffer at L1 speed; a repeat access while the fill is
        // still in flight waits for it like a coalesced miss.
        let mut early = ctx(0, 0x8000, true, false);
        early.when = Cycle::new(1);
        let while_in_flight = m.load(&early).latency().unwrap();
        assert!(while_in_flight >= first.saturating_sub(2));
        let mut late = ctx(0, 0x8000, true, false);
        late.when = Cycle::new(first + 100);
        let second = m.load(&late).latency().unwrap();
        assert!(second < first);
    }
}
