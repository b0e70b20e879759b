//! Speculative taint tracking (STT, Yu et al., MICRO 2019), re-implemented as
//! a memory model over the shared hierarchy.
//!
//! The policy family (which also covers NDA, SpecShield and Conditional
//! Speculation) does not hide speculative cache fills; instead it prevents
//! secrets from reaching a *transmitter*. Loads whose address depends on the
//! value produced by an unsafe speculative load are blocked until that source
//! load reaches its visibility point:
//!
//! * **Spectre variant** — a source load is unsafe while it has an older
//!   unresolved conditional branch;
//! * **Future variant** — a source load is unsafe while anything older than it
//!   has not finished executing (it could still be squashed).
//!
//! The dataflow tracking itself lives in the core (`ooo-core` computes the
//! `addr_tainted_*` flags only when [`MemoryModel::needs_taint_tracking`]
//! returns true); this model just applies the blocking policy and otherwise
//! behaves exactly like the unprotected hierarchy — which is why its cache
//! side effects are identical to the baseline and its cost is purely the
//! delayed execution of dependent loads.

use simkit::config::SystemConfig;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

use memsys::tlb::PageTable;
use memsys::Platform;

use ooo_core::memmodel::{DomainSwitch, MemAccessCtx, MemOutcome, MemoryModel};

/// Which attack model the STT configuration defends against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SttVariant {
    /// Block transmitters only while their source load sits behind an
    /// unresolved branch.
    Spectre,
    /// Block transmitters while their source load could be squashed at all.
    Future,
}

simkit::counters! {
    /// STT's events, reported as `stt.*` once non-zero.
    struct SttCounts {
        /// Loads refused because their address is tainted: one per poll.
        blocked_transmits: u64,
        loads: u64,
        stores: u64,
    }
}

/// The speculative-taint-tracking memory model.
#[derive(Debug)]
pub struct Stt {
    platform: Platform,
    variant: SttVariant,
    counts: SttCounts,
}

impl Stt {
    /// Builds an STT configuration of the given variant.
    pub fn new(config: &SystemConfig, variant: SttVariant) -> Self {
        Stt {
            platform: Platform::new(config),
            variant,
            counts: SttCounts::default(),
        }
    }

    /// The configured variant.
    pub fn variant(&self) -> SttVariant {
        self.variant
    }

    /// The platform underneath, whose hierarchy shows what speculation left
    /// behind.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    fn blocked(&self, ctx: &MemAccessCtx) -> bool {
        if !ctx.speculative {
            return false;
        }
        match self.variant {
            SttVariant::Spectre => ctx.addr_tainted_spectre,
            SttVariant::Future => ctx.addr_tainted_future,
        }
    }
}

impl MemoryModel for Stt {
    fn name(&self) -> &str {
        match self.variant {
            SttVariant::Spectre => "stt-spectre",
            SttVariant::Future => "stt-future",
        }
    }

    fn needs_taint_tracking(&self) -> bool {
        true
    }

    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        MemOutcome::Done {
            latency: self.platform.fetch(ctx.core, ctx.vaddr, ctx.when),
        }
    }

    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
        if self.blocked(ctx) {
            // The address is derived from an unsafe speculative load's value:
            // executing this access would transmit the secret into the cache
            // state, so STT stalls it until the source becomes safe (the core
            // retries and the taint flag clears, or the load reaches the head
            // of the ROB and is non-speculative).
            self.counts.blocked_transmits += 1;
            return MemOutcome::RetryWhenNonSpeculative;
        }
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

    fn on_domain_switch(&mut self, _core: usize, _kind: DomainSwitch, _when: Cycle) {}

    fn stats(&self) -> StatSet {
        let mut stats = self.platform.stats();
        self.counts.export_nonzero(&mut stats, "stt");
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::addr::VirtAddr;

    fn ctx(vaddr: u64, tainted_spectre: bool, tainted_future: bool) -> MemAccessCtx {
        let pc = VirtAddr::new(0x40_0000);
        MemAccessCtx {
            under_unresolved_branch: true,
            addr_tainted_spectre: tainted_spectre,
            addr_tainted_future: tainted_future,
            ..MemAccessCtx::simple(0, VirtAddr::new(vaddr), pc, Cycle::ZERO, false)
        }
    }

    #[test]
    fn untainted_loads_proceed_normally() {
        let mut m = Stt::new(&SystemConfig::paper_default(), SttVariant::Spectre);
        let outcome = m.load(&ctx(0x8000, false, false));
        assert!(matches!(outcome, MemOutcome::Done { .. }));
        let line = m.platform().phys_line(0, VirtAddr::new(0x8000));
        assert!(
            m.platform().hierarchy.own_l1_contains(0, line),
            "STT does not hide cache fills"
        );
    }

    #[test]
    fn tainted_loads_are_blocked_per_variant() {
        let mut spectre = Stt::new(&SystemConfig::paper_default(), SttVariant::Spectre);
        let mut future = Stt::new(&SystemConfig::paper_default(), SttVariant::Future);
        // Tainted only under the futuristic model (source load no longer under
        // a branch, but still squashable): Spectre permits it, Future blocks.
        let c = ctx(0x8000, false, true);
        assert!(matches!(spectre.load(&c), MemOutcome::Done { .. }));
        assert_eq!(future.load(&c), MemOutcome::RetryWhenNonSpeculative);
        // Tainted under both models: both block.
        let c = ctx(0x9000, true, true);
        assert_eq!(spectre.load(&c), MemOutcome::RetryWhenNonSpeculative);
        assert_eq!(future.load(&c), MemOutcome::RetryWhenNonSpeculative);
        assert_eq!(spectre.stats().counter("stt.blocked_transmits"), 1);
    }

    #[test]
    fn non_speculative_accesses_are_never_blocked() {
        let mut m = Stt::new(&SystemConfig::paper_default(), SttVariant::Future);
        let mut c = ctx(0x8000, true, true);
        c.speculative = false;
        assert!(matches!(m.load(&c), MemOutcome::Done { .. }));
    }

    #[test]
    fn taint_tracking_is_requested_from_the_core() {
        let m = Stt::new(&SystemConfig::paper_default(), SttVariant::Spectre);
        assert!(m.needs_taint_tracking());
    }

    #[test]
    fn store_commit_gains_ownership() {
        let mut m = Stt::new(&SystemConfig::paper_default(), SttVariant::Spectre);
        let mut c = ctx(0xa000, false, false);
        c.is_store = true;
        c.speculative = false;
        let _ = m.commit_access(&c);
        let line = m.platform().phys_line(0, VirtAddr::new(0xa000));
        assert!(m.platform().hierarchy.own_l1_exclusive(0, line));
    }
}
