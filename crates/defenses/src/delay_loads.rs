//! DelayLoads: no speculative cache fills, period.
//!
//! A deliberately naive InvisiSpec-style defense, kept distinct from the
//! modelled [`InvisiSpec`](crate::InvisiSpec) variants in two ways:
//!
//! * **no speculative buffer** — a repeat speculative access to the same line
//!   pays the full miss latency again instead of hitting a per-core buffer;
//! * **no speculative prefetcher training** — the prefetcher only learns from
//!   the committed access stream (InvisiSpec leaves the prefetcher exposed,
//!   which is exactly what attack 5 exploits against it).
//!
//! Speculative loads are serviced without filling any cache level and without
//! downgrading remote owners; the line is installed (and the prefetcher
//! trained) by an ordinary access when the load commits. Instruction fetches
//! under an unresolved branch are handled the same way: invisible now,
//! installed at commit.

use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use memsys::tlb::PageTable;
use memsys::types::{AccessKind, AccessRequest, FillLevel};
use memsys::Platform;

use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};

use crate::deferred::DeferredFetches;

simkit::counters! {
    /// The delay-loads model's events, reported as `delay_loads.*` once non-zero.
    struct DelayLoadsCounts {
        invisible_ifetches: u64,
        nonspec_loads: u64,
        spec_loads: u64,
        /// Speculative loads refused because a remote core owns the line: one
        /// per poll.
        delayed_remote_owned: u64,
        committed_stores: u64,
        committed_loads: u64,
        committed_ifetch_installs: u64,
    }
}

/// The no-speculative-fills memory model.
///
/// # Examples
///
/// ```
/// use defenses::DelayLoads;
/// use ooo_core::memmodel::{MemAccessCtx, MemoryModel};
/// use simkit::addr::VirtAddr;
/// use simkit::config::SystemConfig;
/// use simkit::cycles::Cycle;
///
/// let mut model = DelayLoads::new(&SystemConfig::paper_default());
/// let ctx = MemAccessCtx::simple(
///     0,
///     VirtAddr::new(0x8000),
///     VirtAddr::new(0x40_0000),
///     Cycle::ZERO,
///     false,
/// );
/// // A speculative load completes, but leaves nothing in any cache.
/// assert!(model.load(&ctx).latency().is_some());
/// let line = model.platform().phys_line(0, VirtAddr::new(0x8000));
/// assert!(!model.platform().hierarchy.own_l1_contains(0, line));
/// ```
#[derive(Debug)]
pub struct DelayLoads {
    platform: Platform,
    /// Fetches made under an unresolved branch, installed if they commit.
    deferred: DeferredFetches,
    counts: DelayLoadsCounts,
}

impl DelayLoads {
    /// Builds the model over a fresh platform.
    pub fn new(config: &SystemConfig) -> Self {
        DelayLoads {
            platform: Platform::new(config),
            deferred: DeferredFetches::new(config.cores),
            counts: DelayLoadsCounts::default(),
        }
    }

    /// The platform underneath, whose hierarchy shows what speculation left
    /// behind.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl MemoryModel for DelayLoads {
    fn name(&self) -> &str {
        "delay-loads"
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let (line, xlat) = self.platform.inst_line(ctx.core, ctx.vaddr);
        let latency = if ctx.under_unresolved_branch {
            self.counts.invisible_ifetches += 1;
            self.deferred
                .fetch(&mut self.platform, ctx.core, line, ctx.when)
        } else {
            self.platform.fetch_line(ctx.core, line, ctx.when)
        };
        MemOutcome::Done {
            latency: latency + xlat,
        }
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        let (line, xlat) = self.platform.data_line(ctx.core, ctx.vaddr);

        // Non-speculative accesses (atomics at the head of the ROB, retried
        // loads) behave exactly as on the unprotected hierarchy.
        if !ctx.speculative {
            self.counts.nonspec_loads += 1;
            let resp = self
                .platform
                .load_line(ctx.core, line, ctx.pc, ctx.is_store, ctx.when);
            return MemOutcome::Done {
                latency: resp.latency + xlat,
            };
        }

        // The defining restriction: a speculative load may read the data but
        // fills nothing, trains nothing and downgrades no remote owner. There
        // is no speculative buffer, so a repeat access starts from scratch.
        self.counts.spec_loads += 1;
        let req = AccessRequest::new(ctx.core, line, AccessKind::Load, ctx.when)
            .with_pc(ctx.pc.raw())
            .with_fill(FillLevel::None)
            .without_prefetch_training()
            .without_remote_downgrade();
        let resp = self.platform.hierarchy.access(&req);
        if resp.coherence_delayed {
            // Exclusively owned elsewhere: even an invisible read would be
            // observable through the owner's timing, so wait until safe.
            self.counts.delayed_remote_owned += 1;
            return MemOutcome::RetryWhenNonSpeculative;
        }
        MemOutcome::Done {
            latency: resp.latency + xlat,
        }
    }

    fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {
        // No speculative store prefetch: stores touch memory only at commit.
    }

    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
        let (line, _) = self.platform.data_line(ctx.core, ctx.vaddr);
        if ctx.is_store {
            self.counts.committed_stores += 1;
        } else {
            // The deferred fill: an ordinary access at commit installs the
            // line and gives the prefetcher its only (committed-stream)
            // training. The fill is asynchronous — the data itself was
            // already delivered at execute — so commit is not stalled.
            self.counts.committed_loads += 1;
        }
        let _ = self
            .platform
            .load_line(ctx.core, line, ctx.pc, ctx.is_store, ctx.when);
        0
    }

    fn commit_fetch(&mut self, ctx: &MemAccessCtx) {
        let (line, _) = self.platform.inst_line(ctx.core, ctx.vaddr);
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
        self.deferred.clear(core);
    }

    fn on_domain_switch(&mut self, core: usize, _kind: DomainSwitch, _when: Cycle) {
        self.deferred.clear(core);
    }

    fn stats(&self) -> StatSet {
        let mut stats = self.platform.stats();
        self.counts.export_nonzero(&mut stats, "delay_loads");
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
    fn speculative_loads_fill_nothing() {
        let mut m = DelayLoads::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8000, true, false));
        let line = m.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(!m.platform().hierarchy.own_l1_contains(0, line));
        assert!(!m.platform().hierarchy.l2_contains(line));
    }

    #[test]
    fn no_speculative_buffer_means_repeats_stay_slow() {
        // The naive distinction from InvisiSpec: nothing caches the data
        // between two speculative accesses to the same line. Warm the TLB
        // with a different line of the same page first so the comparison
        // sees only cache state.
        let mut m = DelayLoads::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8800, true, false));
        let first = m.load(&ctx(0, 0x8000, true, false)).latency().unwrap();
        let second = m.load(&ctx(0, 0x8000, true, false)).latency().unwrap();
        assert!(second + 2 >= first, "{second} vs {first}");
    }

    #[test]
    fn commit_installs_the_line() {
        let mut m = DelayLoads::new(&SystemConfig::paper_default());
        let _ = m.load(&ctx(0, 0x8000, true, false));
        let extra = m.commit_access(&ctx(0, 0x8000, false, false));
        assert_eq!(extra, 0, "the deferred fill is asynchronous");
        let line = m.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(m.platform().hierarchy.own_l1_contains(0, line));
    }

    #[test]
    fn remote_exclusive_lines_delay_speculative_loads() {
        let cfg = SystemConfig::paper_default();
        let mut m = DelayLoads::new(&cfg);
        m.set_page_table(0, PageTable::new(cfg.tlb.page_bytes, 0));
        m.set_page_table(1, PageTable::new(cfg.tlb.page_bytes, 0));
        let _ = m.commit_access(&ctx(1, 0x9000, false, true));
        assert_eq!(
            m.load(&ctx(0, 0x9000, true, false)),
            MemOutcome::RetryWhenNonSpeculative
        );
        assert_eq!(m.stats().counter("delay_loads.delayed_remote_owned"), 1);
    }

    #[test]
    fn wrong_path_fetches_leave_no_cache_state() {
        let mut m = DelayLoads::new(&SystemConfig::paper_default());
        let _ = m.fetch_instruction(&ctx(0, 0x41_0000, true, false));
        let line = m.platform().phys_line(0, VirtAddr::new(0x41_0000));
        assert!(!m.platform().hierarchy.l2_contains(line));
        m.on_squash(0, Cycle::ZERO);
        m.commit_fetch(&ctx(0, 0x41_0000, false, false));
        assert!(!m.platform().hierarchy.l2_contains(line));
    }

    #[test]
    fn committed_fetches_install_their_line() {
        let mut m = DelayLoads::new(&SystemConfig::paper_default());
        let _ = m.fetch_instruction(&ctx(0, 0x41_0000, true, false));
        // Commit happens after the speculative fetch's fill has long landed
        // (otherwise the install coalesces with the in-flight invisible miss).
        let mut commit = ctx(0, 0x41_0000, false, false);
        commit.when = Cycle::new(10_000);
        m.commit_fetch(&commit);
        let line = m.platform().phys_line(0, VirtAddr::new(0x41_0000));
        assert!(m.platform().hierarchy.l2_contains(line));
    }
}
