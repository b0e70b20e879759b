//! The interface between the out-of-order core and the (defended) memory
//! system.
//!
//! The core is deliberately ignorant of how the memory hierarchy is protected.
//! Every timing-relevant memory interaction goes through the [`MemoryModel`]
//! trait, which is implemented by the unprotected baseline, by MuonTrap, and
//! by the InvisiSpec and STT comparison defenses in the `defenses` crate. The
//! core tells the model *when* accesses happen, whether they are still
//! speculative, when they commit, when speculation is squashed, and when the
//! protection domain changes; the model answers with latencies and may refuse
//! a load for now. The core then parks the access and re-polls the model with
//! it on every cycle the access lies in the issue window, with fresh
//! speculation, branch and taint state, until the model accepts it. Defenses
//! whose condition lapses early (Fence, SafeBet, STT) rely on those polls;
//! the poll at the ROB head is non-speculative and must be accepted.

use simkit::addr::VirtAddr;
use simkit::cycles::Cycle;
use simkit::stats::StatSet;

/// Identifies the kind of protection-domain change taking place.
///
/// MuonTrap flushes its filter structures on all of these (§4.3, §4.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainSwitch {
    /// The OS scheduler switched this core to a different process.
    ContextSwitch,
    /// The running process performed a system call (kernel entry).
    Syscall,
    /// Execution moved into or out of a sandboxed region within the process.
    SandboxBoundary,
}

/// Description of one memory access presented to the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessCtx {
    /// Which core is performing the access.
    pub core: usize,
    /// Virtual address of the access.
    pub vaddr: VirtAddr,
    /// Program counter (as a virtual address) of the instruction.
    pub pc: VirtAddr,
    /// Cycle at which the access is issued.
    pub when: Cycle,
    /// Whether the instruction performing the access is still speculative
    /// (not yet guaranteed to commit). The core treats every instruction as
    /// speculative until it reaches in-order commit, matching MuonTrap's
    /// definition (§6.2).
    pub speculative: bool,
    /// Whether the access wants write (exclusive) permission.
    pub is_store: bool,
    /// Whether there is at least one older, still-unresolved conditional
    /// branch in the pipeline. This is the "Spectre-variant" visibility
    /// condition used by InvisiSpec-Spectre and STT-Spectre.
    pub under_unresolved_branch: bool,
    /// Whether the address of this access depends (through the in-flight
    /// dataflow) on the result of a speculative load that still has an older
    /// unresolved branch. This is the condition STT-Spectre uses to block
    /// transmitting instructions.
    pub addr_tainted_spectre: bool,
    /// Whether the address depends on the result of a speculative load that
    /// could still be squashed for any reason (the stricter STT-Future /
    /// "futuristic" attack model).
    pub addr_tainted_future: bool,
}

impl MemAccessCtx {
    /// Creates a context with the conservative defaults used in unit tests:
    /// speculative, not under an unresolved branch, untainted.
    pub fn simple(core: usize, vaddr: VirtAddr, pc: VirtAddr, when: Cycle, is_store: bool) -> Self {
        MemAccessCtx {
            core,
            vaddr,
            pc,
            when,
            speculative: true,
            is_store,
            under_unresolved_branch: false,
            addr_tainted_spectre: false,
            addr_tainted_future: false,
        }
    }
}

/// The memory model's answer to a speculative access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOutcome {
    /// The access completes after `latency` cycles.
    Done {
        /// Cycles until the data is available.
        latency: u64,
    },
    /// The access may not be performed while speculative (for example it
    /// would downgrade another core's private cache line under MuonTrap's
    /// reduced coherence speculation, or the defense blocks speculative
    /// execution of this load entirely). The core parks the access and polls
    /// again on every cycle it lies in the issue window — not only once it is
    /// non-speculative — so a condition that lapses early lets it go early.
    /// The poll at the ROB head is non-speculative and must not be refused.
    RetryWhenNonSpeculative,
}

impl MemOutcome {
    /// Convenience accessor: the latency of a completed access.
    pub fn latency(&self) -> Option<u64> {
        match self {
            MemOutcome::Done { latency } => Some(*latency),
            MemOutcome::RetryWhenNonSpeculative => None,
        }
    }
}

/// The memory system as seen by a core.
///
/// Implementations hold the shared [`memsys::Platform`] (the hierarchy plus
/// one MMU per core) plus whatever per-core protection structures their
/// policy needs (filter caches, speculative buffers, access windows). All
/// methods take `&mut self` — the simulation is single-threaded and cores are
/// ticked round-robin within a cycle.
pub trait MemoryModel {
    /// A short human-readable name ("unprotected", "muontrap", ...).
    fn name(&self) -> &str;

    /// Whether the core should compute the dataflow-taint flags
    /// (`addr_tainted_spectre` / `addr_tainted_future`) for memory accesses.
    /// Only taint-tracking defenses (STT) need them; computing them costs a
    /// dependence-chain walk per load, so it is opt-in.
    fn needs_taint_tracking(&self) -> bool {
        false
    }

    /// Timing for fetching the instruction at `pc`.
    fn fetch_instruction(&mut self, ctx: &MemAccessCtx) -> MemOutcome;

    /// A data load issued (speculatively) by the core.
    fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome;

    /// A data store's address and data are known; the store itself will only
    /// be performed at commit. Defenses may use this to prefetch the line in
    /// shared state (MuonTrap allows this, §4.5).
    fn store_address_ready(&mut self, ctx: &MemAccessCtx);

    /// The load or store at `ctx` reached in-order commit. For MuonTrap this
    /// is where the filter-cache line is written through to the L1 and any
    /// exclusive upgrade is launched; for InvisiSpec it is where the access is
    /// validated/replayed. Returns any extra latency commit must wait for
    /// (zero for most defenses; InvisiSpec-style replay may charge cycles).
    fn commit_access(&mut self, ctx: &MemAccessCtx) -> u64;

    /// All speculative instructions younger than a mispredicted branch were
    /// squashed on `core` at `when`.
    fn on_squash(&mut self, core: usize, when: Cycle);

    /// An instruction at `ctx.pc` reached in-order commit. MuonTrap's
    /// instruction filter cache uses this to set the committed bit on the
    /// corresponding line and write it through to the L1I (§4.7). The default
    /// implementation does nothing.
    fn commit_fetch(&mut self, _ctx: &MemAccessCtx) {}

    /// Installs the page table the memory model must use to translate `core`'s
    /// virtual addresses from now on (the OS model calls this when scheduling
    /// a thread). The default implementation ignores translation entirely.
    fn set_page_table(&mut self, _core: usize, _table: memsys::PageTable) {}

    /// The protection domain changed on `core` (context switch, syscall or
    /// sandbox boundary) at `when`.
    fn on_domain_switch(&mut self, core: usize, kind: DomainSwitch, when: Cycle);

    /// Advances any background work the model does (draining queues,
    /// asynchronous upgrades). Called once per core tick. The system loop
    /// skips the cycles a core sleeps through, and they are never ticked:
    /// a model with pending work keeps its core awake through
    /// [`is_idle`](Self::is_idle) and wakes it through
    /// [`next_event`](Self::next_event).
    fn tick(&mut self, _core: usize, _now: Cycle) {}

    /// Whether [`tick`](Self::tick) would be a no-op for `core` right now —
    /// no queued background work (pending filter-cache invalidations,
    /// draining buffers) that per-cycle ticking would advance. The system
    /// loop asks at the end of each of the core's ticks and lets the core
    /// sleep only while the model is idle for it, so a model doing genuine
    /// per-cycle work must return `false` here to stay bit-identical under
    /// the event-skipping loop.
    /// The default (`true`) is correct for models whose state changes only
    /// in response to accesses and commit/squash/domain notifications.
    fn is_idle(&self, _core: usize) -> bool {
        true
    }

    /// Whether `core` has background work that a [`tick`](Self::tick)
    /// would advance now — queued invalidations to drain — as a cycle: at
    /// or before `now` when it has, `Cycle::NEVER` when it has not.
    ///
    /// The system loop wakes a sleeping core on the first cycle the answer
    /// is `<= now`, and on no other: it never jumps to a later cycle the
    /// model names, so a future cycle reads as "no work yet". It also
    /// re-reads the answer only after a core ticks: once after every
    /// processed cycle, for the next cycle, and within a cycle, for a
    /// sleeping core, once an earlier-indexed core has ticked in it. Work
    /// must therefore appear only through calls a core's tick makes
    /// (accesses, commits, squashes, its domain switches) — never by the
    /// passage of time, and never for another core through the scheduler's
    /// context-switch [`on_domain_switch`](Self::on_domain_switch). The
    /// default derives the answer from [`is_idle`](Self::is_idle), which
    /// fits every model whose `tick` drains its queues at once.
    fn next_event(&self, core: usize, now: Cycle) -> Cycle {
        if self.is_idle(core) {
            Cycle::NEVER
        } else {
            now
        }
    }

    /// Statistics accumulated by the model.
    fn stats(&self) -> StatSet;
}

/// A trivially permissive memory model in which every access takes a fixed
/// latency and nothing is ever delayed. Used by core unit tests so they do not
/// depend on the `defenses` crate, and useful as a "perfect memory" idealised
/// baseline.
#[derive(Debug, Clone)]
pub struct FixedLatencyMemory {
    /// Latency charged to every data access.
    pub data_latency: u64,
    /// Latency charged to every instruction fetch.
    pub fetch_latency: u64,
    counts: FixedCounts,
}

simkit::counters! {
    /// The calls a [`FixedLatencyMemory`] saw, exported as `fixed.*`.
    struct FixedCounts {
        loads: u64,
        stores: u64,
        commits: u64,
        squashes: u64,
        domain_switches: u64,
    }
}

impl FixedLatencyMemory {
    /// Creates a fixed-latency memory model.
    pub fn new(data_latency: u64, fetch_latency: u64) -> Self {
        FixedLatencyMemory {
            data_latency,
            fetch_latency,
            counts: FixedCounts::default(),
        }
    }
}

impl Default for FixedLatencyMemory {
    fn default() -> Self {
        FixedLatencyMemory::new(2, 1)
    }
}

impl MemoryModel for FixedLatencyMemory {
    fn name(&self) -> &str {
        "fixed-latency"
    }

    fn fetch_instruction(&mut self, _ctx: &MemAccessCtx) -> MemOutcome {
        MemOutcome::Done {
            latency: self.fetch_latency,
        }
    }

    fn load(&mut self, _ctx: &MemAccessCtx) -> MemOutcome {
        self.counts.loads += 1;
        MemOutcome::Done {
            latency: self.data_latency,
        }
    }

    fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {
        self.counts.stores += 1;
    }

    fn commit_access(&mut self, _ctx: &MemAccessCtx) -> u64 {
        self.counts.commits += 1;
        0
    }

    fn on_squash(&mut self, _core: usize, _when: Cycle) {
        self.counts.squashes += 1;
    }

    fn on_domain_switch(&mut self, _core: usize, _kind: DomainSwitch, _when: Cycle) {
        self.counts.domain_switches += 1;
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        self.counts.export(&mut s, "fixed");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> MemAccessCtx {
        MemAccessCtx::simple(
            0,
            VirtAddr::new(0x1000),
            VirtAddr::new(0x400),
            Cycle::ZERO,
            false,
        )
    }

    #[test]
    fn fixed_latency_model_counts_events() {
        let mut m = FixedLatencyMemory::new(5, 2);
        assert_eq!(m.load(&ctx()), MemOutcome::Done { latency: 5 });
        assert_eq!(m.fetch_instruction(&ctx()), MemOutcome::Done { latency: 2 });
        m.store_address_ready(&ctx());
        let extra = m.commit_access(&ctx());
        assert_eq!(extra, 0);
        m.on_squash(0, Cycle::ZERO);
        m.on_domain_switch(0, DomainSwitch::Syscall, Cycle::ZERO);
        let stats = m.stats();
        assert_eq!(stats.counter("fixed.loads"), 1);
        assert_eq!(stats.counter("fixed.stores"), 1);
        assert_eq!(stats.counter("fixed.commits"), 1);
        assert_eq!(stats.counter("fixed.squashes"), 1);
        assert_eq!(stats.counter("fixed.domain_switches"), 1);
    }

    #[test]
    fn outcome_latency_accessor() {
        assert_eq!(MemOutcome::Done { latency: 7 }.latency(), Some(7));
        assert_eq!(MemOutcome::RetryWhenNonSpeculative.latency(), None);
    }
}
