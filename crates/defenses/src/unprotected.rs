//! The unprotected baseline.
//!
//! Every figure in the paper is normalised to this configuration: a
//! conventional hierarchy in which speculative loads fill the L1/L2 as usual,
//! the prefetcher trains on every access, and nothing is flushed on
//! protection-domain switches (other than the TLBs on a context switch, which
//! every OS does).

use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use memsys::tlb::PageTable;
use memsys::Platform;

use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};

simkit::counters! {
    /// The unprotected baseline's events, reported as `unprotected.*` once non-zero.
    struct UnprotectedCounts {
        loads: u64,
        stores: u64,
    }
}

/// The insecure baseline memory model.
#[derive(Debug)]
pub struct Unprotected {
    platform: Platform,
    counts: UnprotectedCounts,
}

impl Unprotected {
    /// Builds the baseline over a fresh platform.
    pub fn new(config: &SystemConfig) -> Self {
        Unprotected {
            platform: Platform::new(config),
            counts: UnprotectedCounts::default(),
        }
    }

    /// The platform underneath, whose hierarchy shows what speculation left
    /// behind.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl MemoryModel for Unprotected {
    fn name(&self) -> &str {
        "unprotected"
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        MemOutcome::Done {
            latency: self.platform.fetch(ctx.core, ctx.vaddr, ctx.when),
        }
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        self.counts.loads += 1;
        MemOutcome::Done {
            latency: self
                .platform
                .load(ctx.core, ctx.vaddr, ctx.pc, ctx.is_store, ctx.when),
        }
    }

    fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {}

    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64 {
        let (line, _) = self.platform.data_line(ctx.core, ctx.vaddr);
        if ctx.is_store {
            self.counts.stores += 1;
            self.platform.commit_store(ctx.core, line, ctx.pc, ctx.when);
        }
        0
    }

    fn set_page_table(&mut self, core: usize, table: PageTable) {
        self.platform.set_page_table(core, table);
    }

    fn on_squash(&mut self, _core: usize, _when: Cycle) {}

    // Caches are left exactly as speculation perturbed them, which is what
    // the attacks exploit; the TLBs were flushed by the page-table install
    // that precedes every context switch.
    fn on_domain_switch(&mut self, _core: usize, _kind: DomainSwitch, _when: Cycle) {}

    fn stats(&self) -> StatSet {
        let mut stats = self.platform.stats();
        self.counts.export_nonzero(&mut stats, "unprotected");
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
    fn speculative_loads_fill_the_l1() {
        let mut u = Unprotected::new(&SystemConfig::paper_default());
        let _ = u.load(&ctx(0, 0x8000, true, false));
        let line = u.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(
            u.platform().hierarchy.own_l1_contains(0, line),
            "this is exactly the Spectre vulnerability"
        );
    }

    #[test]
    fn repeat_loads_hit_quickly() {
        let mut u = Unprotected::new(&SystemConfig::paper_default());
        let first = u.load(&ctx(0, 0x8000, true, false)).latency().unwrap();
        let second = u.load(&ctx(0, 0x8000, true, false)).latency().unwrap();
        assert!(second < first);
        assert!(second <= 3);
    }

    #[test]
    fn domain_switches_do_not_clear_caches() {
        let mut u = Unprotected::new(&SystemConfig::paper_default());
        let _ = u.load(&ctx(0, 0x8000, true, false));
        u.on_domain_switch(0, DomainSwitch::ContextSwitch, Cycle::ZERO);
        let line = u.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(u.platform().hierarchy.own_l1_contains(0, line));
    }

    #[test]
    fn commit_of_store_updates_coherence() {
        let mut u = Unprotected::new(&SystemConfig::paper_default());
        let _ = u.commit_access(&ctx(0, 0x9000, false, true));
        let line = u.platform().phys_line(0, VirtAddr::new(0x9000));
        assert!(u.platform().hierarchy.own_l1_exclusive(0, line));
    }

    #[test]
    fn stats_report_hierarchy_activity() {
        let mut u = Unprotected::new(&SystemConfig::paper_default());
        let _ = u.load(&ctx(0, 0x8000, true, false));
        assert!(u.stats().counter("hierarchy.data_accesses") > 0);
        assert_eq!(u.stats().counter("unprotected.loads"), 1);
        let has = |u: &Unprotected, name| u.stats().iter_counters().any(|(n, _)| n == name);
        assert!(
            !has(&u, "unprotected.stores"),
            "absent until a store commits"
        );
        let _ = u.commit_access(&ctx(0, 0x9000, false, true));
        assert_eq!(u.stats().counter("unprotected.stores"), 1);
    }
}
