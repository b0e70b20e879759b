//! The out-of-order pipeline.
//!
//! [`OooCore`] is an execute-at-issue out-of-order timing model. Instructions
//! are fetched along the predicted path, dispatched into a reorder buffer,
//! executed once their operands are available and a functional unit is free,
//! and retired in program order. Wrong-path instructions genuinely execute —
//! including their memory accesses, which go through the pluggable
//! [`MemoryModel`] — and are squashed when the mispredicted branch resolves.
//! Stores update functional memory only at commit, so architectural state is
//! always correct; the speculative damage the paper studies is confined to the
//! cache side, exactly as on real hardware.
//!
//! # Layout
//!
//! [`tick`](OooCore::tick) is the innermost loop of every experiment. It runs
//! one stage per module, in reverse pipeline order: `commit`, `complete`,
//! `issue`, then `fetch`, which hands each fetched instruction to `dispatch`.
//! Each module documents the incremental structures its stage keeps so that
//! it costs O(work done) rather than O(ROB), allocation-free (see
//! ARCHITECTURE.md § "The hot path"). `rob` holds the reorder buffer on the
//! slot ring that the wakeup/select state shares. `sleep` decides when the
//! driving loop may skip ticks that provably do nothing, and `oracle` (test
//! and debug builds only) re-derives the issue stage's incremental state
//! from the ROB.

use std::collections::VecDeque;

use simkit::addr::VirtAddr;
use simkit::config::{PipelineConfig, SystemConfig};
use simkit::cycles::Cycle;
use simkit::timeq::EventQueue;

use uarch_isa::inst::{InstClass, Instruction};
use uarch_isa::prog::INST_BYTES;
use uarch_isa::reg::NUM_REGS;

use crate::branch::BranchPredictor;
use crate::context::ThreadContext;
use crate::events::CoreEvent;
use crate::memmodel::{MemAccessCtx, MemoryModel};
use crate::wakeup::{SlotBits, WaitLists};
use rob::Rob;

mod commit;
mod complete;
mod dispatch;
mod fetch;
mod issue;
#[cfg(any(test, debug_assertions))]
mod oracle;
mod rob;
mod sleep;
#[cfg(test)]
mod tests;

/// Sentinel for "no in-flight producer: read the architectural register".
const NO_PRODUCER: u64 = u64::MAX;

/// Execution status of a reorder-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Dispatched, waiting for operands or a functional unit.
    Waiting,
    /// Executing; the result is available at the contained cycle.
    Executing(Cycle),
    /// A memory access the memory model refused for now: the issue stage
    /// re-polls it until the model accepts it.
    Parked,
    /// Finished executing.
    Done,
}

/// One reorder-buffer entry.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    pc: usize,
    inst: Instruction,
    status: Status,
    result: Option<u64>,
    /// Sequence numbers of the youngest older producer of each source
    /// register, captured from the scoreboard at dispatch ([`NO_PRODUCER`]
    /// means the architectural register file). In-order commit guarantees the
    /// link stays correct for the entry's whole life: the linked producer
    /// either still sits in the ROB or has committed its result to the
    /// register file, and a squash that removes a producer removes every
    /// (younger) consumer with it.
    src_producers: [u64; 2],
    /// Computed virtual address for memory operations.
    mem_addr: Option<VirtAddr>,
    /// Value to be stored (for stores/atomics), captured at execute.
    store_data: Option<u64>,
    /// Fetch-time prediction: the instruction index fetched after this one.
    predicted_next: usize,
    /// Resolved actual next PC (valid once `Done` for control flow).
    actual_next: usize,
}

impl RobEntry {
    fn is_done(&self) -> bool {
        matches!(self.status, Status::Done)
    }

    fn is_parked(&self) -> bool {
        matches!(self.status, Status::Parked)
    }

    fn is_memory(&self) -> bool {
        self.inst.class().is_memory()
    }

    fn is_load(&self) -> bool {
        matches!(self.inst.class(), InstClass::Load | InstClass::Atomic)
    }

    fn is_store(&self) -> bool {
        matches!(self.inst.class(), InstClass::Store | InstClass::Atomic)
    }

    fn is_branch(&self) -> bool {
        self.inst.class().is_control()
    }
}

simkit::counters! {
    /// Statistics accumulated by one core, exported as `coreN.*`.
    pub struct CoreStats {
        /// Cycles this core has been ticked (idle cycles skipped by the
        /// fast-forward loop are credited here, so the count is identical to
        /// the naive loop's).
        pub cycles: u64,
        /// Instructions committed.
        pub committed: u64,
        /// Committed loads.
        pub loads: u64,
        /// Committed stores.
        pub stores: u64,
        /// Committed branches (conditional only).
        pub branches: u64,
        /// Mispredicted branches (of any kind) that caused a squash.
        pub mispredictions: u64,
        /// Instructions squashed from the ROB.
        pub squashed: u64,
        /// Loads that were issued speculatively and later squashed.
        pub squashed_loads: u64,
        /// Refused memory-model polls: one per load or atomic access the
        /// model answered [`MemOutcome::RetryWhenNonSpeculative`], counting
        /// every re-poll of a parked access (each cycle it lies in the issue
        /// window), not distinct accesses.
        ///
        /// [`MemOutcome::RetryWhenNonSpeculative`]: crate::memmodel::MemOutcome::RetryWhenNonSpeculative
        pub mem_retries: u64,
    }
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The out-of-order core.
pub struct OooCore {
    core_id: usize,
    pipeline: PipelineConfig,
    predictor: BranchPredictor,
    /// The reorder buffer, on the slot ring (see the `rob` module).
    rob: Rob,
    thread: Option<ThreadContext>,
    /// Speculative fetch program counter (instruction index).
    fetch_pc: usize,
    /// Front end is refilling until this cycle (misprediction or I-miss).
    fetch_stalled_until: Cycle,
    /// Fetch stops after a halt or running off the program.
    fetch_halted: bool,
    /// Last instruction-cache line fetched, to charge I-fetch once per line.
    last_fetch_line: Option<u64>,
    /// Commit is stalled until this cycle (memory model commit charges).
    commit_stalled_until: Cycle,
    halted: bool,
    stats: CoreStats,

    // --- incremental hot-loop structures --------------------------------
    /// Length of the contiguous `Done` prefix at the ROB head: the head
    /// `done_prefix` entries are finished. O(1) commit-readiness and the
    /// `rdcycle` "every older instruction done" gate.
    done_prefix: usize,
    /// Register scoreboard: for each architectural register, the sequence
    /// number of its youngest in-flight producer ([`NO_PRODUCER`] if the
    /// committed register file holds the current value).
    reg_producer: [u64; NUM_REGS],
    /// In-flight loads (atomics count), maintained at dispatch/commit/squash.
    loads_in_flight: usize,
    /// Sequence numbers of in-flight stores (atomics count), oldest first:
    /// its length is the store-queue occupancy, and memory disambiguation
    /// walks only these (few) older stores instead of every older ROB entry.
    store_seqs: VecDeque<u64>,
    /// Sequence numbers of in-flight control-flow instructions that have not
    /// resolved, oldest first; resolved/committed entries are lazily popped,
    /// so the front is always the oldest unresolved branch.
    branch_seqs: VecDeque<u64>,
    /// Whether the last [`tick`](Self::tick) performed any pipeline work.
    tick_active: bool,
    /// Completion tickets: `(done_at, seq)` pushed whenever an entry enters
    /// `Executing(done_at)`. The complete stage pops the due tickets instead
    /// of scanning the whole ROB, and prunes the stale tickets squashes leave
    /// behind off the heap top, so the minimum names live work.
    completion_q: EventQueue<u64>,
    /// Entries currently in `Status::Waiting` (operands/FU pending): the
    /// population of `waiting_bits`. The issue stage is skipped while it and
    /// `retry_count` are both zero, and the `iq_entries` window rank is only
    /// computed when it exceeds the window.
    waiting_count: usize,
    /// Entries in `Status::Parked`: the population of `retry_bits`. Each is
    /// re-polled by the issue stage every cycle it lies inside the window.
    retry_count: usize,
    /// Reusable scratch of due sequence numbers for the complete stage.
    due_scratch: Vec<u64>,

    // --- wakeup/select (see the `wakeup` module) ------------------------
    /// Slots holding a `Status::Waiting` entry.
    waiting_bits: SlotBits,
    /// Waiting slots whose operands are all available, that are not parked
    /// behind an older store with an unknown address and, for an atomic,
    /// that head the ROB. Such an entry may still be refused at issue (a
    /// functional unit, `rdcycle` behind unfinished work, or a store it has
    /// not yet been parked behind); every other Waiting entry provably would
    /// be.
    ready_bits: SlotBits,
    /// Slots holding a `Status::Parked` entry.
    retry_bits: SlotBits,
    /// Slots holding a serialising instruction (valid for live slots only;
    /// rewritten at dispatch).
    serial_bits: SlotBits,
    /// Slots holding an atomic (same validity as `serial_bits`). An atomic
    /// executes only at the ROB head, so it joins `ready_bits` only when it
    /// is the head with its operands ready.
    atomic_bits: SlotBits,
    /// Per slot: producers this Waiting entry still waits for (0–2).
    pending_srcs: Vec<u8>,
    /// Operand wakeup lists: one list per producer slot, one node per
    /// consumer source (`2 * slot + source`). Drained when the producer
    /// turns `Done`.
    operand_waiters: WaitLists,
    /// Store-address wakeup lists: list = store (or atomic) slot, node =
    /// load slot. Drained when the store computes its address.
    store_waiters: WaitLists,
    // Reusable scratch for the taint walk (STT support) — allocated once.
    taint_stack: Vec<u64>,
    taint_visited: Vec<bool>,
}

impl OooCore {
    /// Creates a core with the given id using the pipeline and predictor
    /// parameters from `config`.
    pub fn new(core_id: usize, config: &SystemConfig) -> Self {
        let slots = config.pipeline.rob_entries.max(1).next_power_of_two();
        OooCore {
            core_id,
            pipeline: config.pipeline,
            predictor: BranchPredictor::new(&config.branch_predictor),
            rob: Rob::new(slots),
            thread: None,
            fetch_pc: 0,
            fetch_stalled_until: Cycle::ZERO,
            fetch_halted: false,
            last_fetch_line: None,
            commit_stalled_until: Cycle::ZERO,
            halted: true,
            stats: CoreStats::default(),
            done_prefix: 0,
            reg_producer: [NO_PRODUCER; NUM_REGS],
            loads_in_flight: 0,
            store_seqs: VecDeque::new(),
            branch_seqs: VecDeque::new(),
            tick_active: false,
            completion_q: EventQueue::new(),
            waiting_count: 0,
            retry_count: 0,
            due_scratch: Vec::new(),
            waiting_bits: SlotBits::new(slots),
            ready_bits: SlotBits::new(slots),
            retry_bits: SlotBits::new(slots),
            serial_bits: SlotBits::new(slots),
            atomic_bits: SlotBits::new(slots),
            pending_srcs: vec![0; slots],
            operand_waiters: WaitLists::new(slots, 2 * slots),
            store_waiters: WaitLists::new(slots, slots),
            taint_stack: Vec::new(),
            taint_visited: Vec::new(),
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> usize {
        self.core_id
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the core currently has no runnable thread (idle or halted).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Mutable access to the branch predictor (the OS model flushes the BTB on
    /// context switches when that mitigation is enabled).
    pub fn predictor_mut(&mut self) -> &mut BranchPredictor {
        &mut self.predictor
    }

    fn pc_addr(&self, pc: usize) -> VirtAddr {
        match &self.thread {
            Some(t) => t.program.inst_addr(pc),
            None => VirtAddr::new(pc as u64 * INST_BYTES),
        }
    }

    /// The context of this core's access at cycle `at` to `vaddr` for the
    /// instruction at `pc`, as a committed access presents it: not
    /// speculative, under no unresolved branch, untainted. The fetch and
    /// issue stages override the speculation fields.
    fn access_ctx(&self, vaddr: VirtAddr, pc: VirtAddr, at: Cycle, is_store: bool) -> MemAccessCtx {
        MemAccessCtx {
            core: self.core_id,
            vaddr,
            pc,
            when: at,
            speculative: false,
            is_store,
            under_unresolved_branch: false,
            addr_tainted_spectre: false,
            addr_tainted_future: false,
        }
    }

    /// Installs a thread on this core, discarding any in-flight speculative
    /// work, and returns the previously running thread's context.
    pub fn swap_thread(&mut self, new_thread: Option<ThreadContext>) -> Option<ThreadContext> {
        self.rob.clear();
        self.done_prefix = 0;
        self.reg_producer = [NO_PRODUCER; NUM_REGS];
        self.loads_in_flight = 0;
        self.store_seqs.clear();
        self.branch_seqs.clear();
        self.completion_q.clear();
        self.waiting_count = 0;
        self.retry_count = 0;
        self.waiting_bits.clear_all();
        self.ready_bits.clear_all();
        self.retry_bits.clear_all();
        self.operand_waiters.clear_all();
        self.store_waiters.clear_all();
        self.last_fetch_line = None;
        let old = self.thread.take();
        self.thread = new_thread;
        if let Some(t) = &self.thread {
            self.fetch_pc = t.pc;
            self.fetch_halted = t.halted;
            self.halted = t.halted;
        } else {
            self.halted = true;
            self.fetch_halted = true;
        }
        old
    }

    /// Runs a single-threaded program to completion on this core with the
    /// given memory model, returning the cycle at which it halted.
    ///
    /// Idle stretches (every in-flight instruction waiting on a known wake
    /// cycle, fetch stalled) are fast-forwarded; the reported cycle count and
    /// all statistics are identical to ticking every cycle.
    ///
    /// # Errors
    /// Returns `Err(cycles_simulated)` if the program does not halt within
    /// `max_cycles`.
    pub fn run_to_halt(
        &mut self,
        thread: ThreadContext,
        mem: &mut dyn MemoryModel,
        max_cycles: u64,
    ) -> Result<u64, u64> {
        self.swap_thread(Some(thread));
        let mut events = Vec::new();
        let mut now = Cycle::ZERO;
        while !self.halted && now.raw() < max_cycles {
            events.clear();
            self.tick(now, mem, &mut events);
            now += 1;
            if self.halted {
                break;
            }
            let wake = self.next_tick(now, mem).raw().min(max_cycles);
            if wake > now.raw() {
                self.skip_idle_cycles(wake - now.raw());
                now = Cycle::new(wake);
            }
        }
        if self.halted {
            Ok(now.raw())
        } else {
            Err(now.raw())
        }
    }

    /// Advances the core by one cycle, appending the architectural events that
    /// committed during this cycle to `events` (the buffer is *not* cleared —
    /// the caller owns and reuses it, so the hot loop never allocates).
    pub fn tick(&mut self, now: Cycle, mem: &mut dyn MemoryModel, events: &mut Vec<CoreEvent>) {
        if self.thread.is_none() || self.halted {
            self.tick_active = false;
            return;
        }
        self.stats.cycles += 1;
        mem.tick(self.core_id, now);

        let commit_active = self.commit_stage(now, mem, events);
        let complete_active = self.complete_stage(now, mem);
        let issue_active = self.issue_stage(now, mem);
        #[cfg(debug_assertions)]
        self.check_wakeup_state();
        let fetch_active = self.fetch_stage(now, mem);
        self.tick_active = commit_active || complete_active || issue_active || fetch_active;
    }
}

impl std::fmt::Debug for OooCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OooCore")
            .field("core_id", &self.core_id)
            .field("rob_occupancy", &self.rob.len())
            .field("fetch_pc", &self.fetch_pc)
            .field("halted", &self.halted)
            .field("committed", &self.stats.committed)
            .finish()
    }
}
