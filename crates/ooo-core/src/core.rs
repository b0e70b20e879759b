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
//! # The hot loop
//!
//! [`tick`](OooCore::tick) is the innermost loop of every experiment, so it is
//! written to be allocation-free and to avoid re-deriving anything a cheap
//! incremental structure can carry (see ARCHITECTURE.md § "The hot path"):
//!
//! * committed events go into a **caller-provided buffer** instead of a fresh
//!   `Vec` per cycle;
//! * each ROB entry records **dispatch-time producer links** (the sequence
//!   number of the in-flight producer of each source register, captured from a
//!   register scoreboard), so operand lookup is O(1) instead of a backward
//!   ROB scan;
//! * a **done-prefix counter** tracks how many entries at the head are
//!   finished, so commit-readiness and the `rdcycle` "all older done" gate are
//!   O(1);
//! * **in-flight load/store counters** and ordered sequence queues of stores
//!   and unresolved branches replace the per-cycle `rob.iter().filter()`
//!   scans of the fetch, disambiguation and speculation-visibility paths;
//! * issue is **wakeup/select** instead of a window scan: per-slot bitsets
//!   (see the `wakeup` module) mark Waiting, operand-ready and
//!   parked-retry entries. A consumer is linked at dispatch into the wakeup
//!   list of each unfinished producer and becomes ready when the last one
//!   turns `Done`; a load that finds an older store with an unknown address
//!   is linked behind that store and woken when the store (or atomic) gets
//!   its address; an atomic, which executes only at the ROB head, becomes
//!   ready only once it is the head with its operands ready. The issue stage
//!   is one walk over the slot ring, a 64-slot word at a time from the head:
//!   in each word it finds where the window ends, if it does — the first
//!   serialising instruction past the head or the `iq_entries + 1`-th
//!   Waiting entry, one popcount per word and one bit select where the
//!   budget runs out — and visits the ready and retry candidates before it
//!   in sequence order. It reads the candidate bits live, so a load woken
//!   by an older store that issued earlier in the same cycle is still tried
//!   in that cycle — the same order a full window scan would try it in. A
//!   parked retry re-polls the memory model from its stored address on
//!   every cycle it lies in the window, skipping the operand gather and the
//!   store-queue walk;
//! * a core whose next tick provably does nothing —
//!   [`quiescent`](OooCore::quiescent) after an idle tick, or
//!   [`idle_at`](OooCore::idle_at) the next cycle — can name the
//!   [`next_wake`](OooCore::next_wake) cycle, which lets the driving loop
//!   **sleep from its last active tick** (see
//!   [`next_tick`](OooCore::next_tick), crediting the cycles via
//!   [`skip_idle_cycles`](OooCore::skip_idle_cycles)) with bit-identical
//!   statistics — see `tests/hotpath_golden.rs` for the equivalence proof.

use std::collections::VecDeque;

use simkit::addr::VirtAddr;
use simkit::config::{PipelineConfig, SystemConfig};
use simkit::cycles::Cycle;
use simkit::timeq::EventQueue;

use uarch_isa::inst::{eval_alu, eval_branch, eval_fpu, InstClass, Instruction, MemWidth};
use uarch_isa::prog::INST_BYTES;
use uarch_isa::reg::{Reg, NUM_REGS};

use crate::branch::{BranchPredictor, BranchUpdate};
use crate::context::ThreadContext;
use crate::events::CoreEvent;
use crate::memmodel::{MemAccessCtx, MemOutcome, MemoryModel};
use crate::wakeup::{select, SlotBits, WaitLists};

/// Sentinel for "no in-flight producer: read the architectural register".
const NO_PRODUCER: u64 = u64::MAX;

/// Execution status of a reorder-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Dispatched, waiting for operands or a functional unit.
    Waiting,
    /// Executing; the result is available at the contained cycle.
    Executing(Cycle),
    /// Finished executing.
    Done,
}

/// One reorder-buffer entry.
#[derive(Debug, Clone)]
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
    /// The memory model asked for this access to be retried later.
    mem_retry: bool,
    /// Fetch-time prediction: the instruction index fetched after this one.
    predicted_next: usize,
    /// Resolved actual next PC (valid once `Done` for control flow).
    actual_next: usize,
}

impl RobEntry {
    fn is_done(&self) -> bool {
        matches!(self.status, Status::Done)
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
    rob: VecDeque<RobEntry>,
    next_seq: u64,
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
    /// In-flight stores (atomics count), maintained at dispatch/commit/squash.
    stores_in_flight: usize,
    /// Sequence numbers of in-flight stores, oldest first, for memory
    /// disambiguation: a load walks only the (few) older stores instead of
    /// every older ROB entry.
    store_seqs: VecDeque<u64>,
    /// Sequence numbers of in-flight control-flow instructions that have not
    /// resolved, oldest first; resolved/committed entries are lazily popped,
    /// so the front is always the oldest unresolved branch.
    branch_seqs: VecDeque<u64>,
    /// Whether the last [`tick`](Self::tick) performed any pipeline work.
    tick_active: bool,
    /// Completion tickets: `(done_at, seq)` pushed whenever an entry enters
    /// `Executing(done_at)` with a finite time. The complete stage pops the
    /// due tickets instead of scanning the whole ROB, and
    /// [`next_wake`](Self::next_wake) is the heap minimum. Squashes leave
    /// stale tickets behind; they are validated (and discarded) on pop.
    completion_q: EventQueue<u64>,
    /// Entries currently in `Status::Waiting` (operands/FU pending): the
    /// population of `waiting_bits`. The issue stage is skipped while it and
    /// `retry_count` are both zero, and the `iq_entries` window rank is only
    /// computed when it exceeds the window.
    waiting_count: usize,
    /// Entries parked by a memory-model retry (`mem_retry`, executing at
    /// `Cycle::NEVER`): the population of `retry_bits`. Each is re-polled by
    /// the issue stage every cycle it lies inside the window.
    retry_count: usize,
    /// Reusable scratch of due sequence numbers for the complete stage.
    due_scratch: Vec<u64>,

    // --- wakeup/select (see the `wakeup` module) ------------------------
    /// `slots - 1`, where `slots` is the size of the slot ring:
    /// `rob_entries` rounded up to a power of two. An entry's slot is
    /// `seq & slot_mask`.
    slot_mask: u64,
    /// Slots holding a `Status::Waiting` entry.
    waiting_bits: SlotBits,
    /// Waiting slots whose operands are all available, that are not parked
    /// behind an older store with an unknown address and, for an atomic,
    /// that head the ROB. Such an entry may still be refused at issue (a
    /// functional unit, `rdcycle` behind unfinished work, or a store it has
    /// not yet been parked behind); every other Waiting entry provably would
    /// be.
    ready_bits: SlotBits,
    /// Slots parked by a memory-model retry.
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
    taint_stack: Vec<usize>,
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
            rob: VecDeque::with_capacity(config.pipeline.rob_entries),
            next_seq: 0,
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
            stores_in_flight: 0,
            store_seqs: VecDeque::new(),
            branch_seqs: VecDeque::new(),
            tick_active: false,
            completion_q: EventQueue::new(),
            waiting_count: 0,
            retry_count: 0,
            due_scratch: Vec::new(),
            slot_mask: slots as u64 - 1,
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

    /// Read-only access to the running thread's context, if any.
    pub fn thread(&self) -> Option<&ThreadContext> {
        self.thread.as_ref()
    }

    /// Mutable access to the branch predictor (the OS model flushes the BTB on
    /// context switches when that mitigation is enabled).
    pub fn predictor_mut(&mut self) -> &mut BranchPredictor {
        &mut self.predictor
    }

    /// The sequence number of the ROB head (or of the next dispatch when the
    /// ROB is empty). `rob[i].seq == head_seq() + i` always holds: dispatch
    /// appends consecutive numbers, commit pops the front, squash truncates a
    /// suffix — the ROB is contiguous in sequence numbers.
    fn head_seq(&self) -> u64 {
        self.rob.front().map_or(self.next_seq, |e| e.seq)
    }

    /// Installs a thread on this core, discarding any in-flight speculative
    /// work, and returns the previously running thread's context.
    pub fn swap_thread(&mut self, new_thread: Option<ThreadContext>) -> Option<ThreadContext> {
        self.rob.clear();
        self.done_prefix = 0;
        self.reg_producer = [NO_PRODUCER; NUM_REGS];
        self.loads_in_flight = 0;
        self.stores_in_flight = 0;
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

        let committed_before = self.stats.committed;
        let commit_active = {
            self.commit_stage(now, mem, events);
            self.stats.committed != committed_before
        };
        let complete_active = self.complete_stage(now, mem);
        let issue_active = self.issue_stage(now, mem);
        #[cfg(debug_assertions)]
        self.check_wakeup_state();
        let fetch_active = self.fetch_stage(now, mem);
        self.tick_active = commit_active || complete_active || issue_active || fetch_active;
    }

    /// Whether the fetch stage would do nothing at cycle `at`: fetch is
    /// halted or stalled, or the next instruction finds the ROB, load queue
    /// or store queue full. Running off the program is not blocked (fetch
    /// halts, a state change).
    fn fetch_blocked(&self, at: Cycle) -> bool {
        if self.fetch_halted || at < self.fetch_stalled_until {
            return true;
        }
        if self.rob.len() >= self.pipeline.rob_entries {
            return true;
        }
        let Some(thread) = self.thread.as_ref() else {
            return true;
        };
        thread
            .program
            .fetch(self.fetch_pc)
            .is_some_and(|inst| self.queues_full_for(inst))
    }

    /// Whether dispatching `inst` must wait for a load- or store-queue entry.
    fn queues_full_for(&self, inst: Instruction) -> bool {
        let class = inst.class();
        (matches!(class, InstClass::Load | InstClass::Atomic)
            && self.loads_in_flight >= self.pipeline.lq_entries)
            || (matches!(class, InstClass::Store | InstClass::Atomic)
                && self.stores_in_flight >= self.pipeline.sq_entries)
    }

    /// Whether a tick at cycle `next` would provably do nothing: no access
    /// is parked, no completion ticket is due, commit and fetch are blocked,
    /// and no ready entry lies inside the issue window. Such a tick changes
    /// no state, so the driving loop may sleep through it.
    pub fn idle_at(&self, next: Cycle) -> bool {
        self.retry_count == 0
            && self.completion_q.peek() > next
            && (self.done_prefix == 0 || next < self.commit_stalled_until)
            && self.fetch_blocked(next)
            && !self.ready_in_window()
    }

    /// The cycle at or after `next` (the cycle after the last tick) at which
    /// this core must next be ticked: `next` itself unless the last tick was
    /// [`quiescent`](Self::quiescent) or the one at `next` would be
    /// [idle](Self::idle_at), and the memory model has no background work
    /// for the core; then [`next_wake`](Self::next_wake). The one sleep rule
    /// of [`run_to_halt`](Self::run_to_halt) and of the multicore loop.
    pub fn next_tick(&self, next: Cycle, mem: &dyn MemoryModel) -> Cycle {
        if (self.quiescent() || self.idle_at(next)) && mem.is_idle(self.core_id) {
            self.next_wake(next)
        } else {
            next
        }
    }

    /// Whether the last [`tick`](Self::tick) performed no pipeline work at
    /// all (no commit, completion, issue, retry poll, or fetch progress). A
    /// quiescent core's state is a pure function of the cycle timers, so the
    /// driving loop may jump to [`next_wake`](Self::next_wake) and credit the
    /// skipped cycles with [`skip_idle_cycles`](Self::skip_idle_cycles)
    /// without changing any observable behaviour.
    pub fn quiescent(&self) -> bool {
        !self.tick_active
    }

    /// The earliest tick cycle at or after `now` (the *next* tick's cycle) at
    /// which a quiescent core can make progress again: the earliest in-flight
    /// completion, the end of a fetch stall, or the end of a commit stall
    /// with a finished head. [`Cycle::NEVER`] when nothing is pending (the
    /// core is deadlocked or drained; the naive loop would spin to the cycle
    /// budget, and the fast-forward loop jumps there directly). Stale timers
    /// already behind `now` are ignored — on a quiescent core they cannot be
    /// what the pipeline is waiting for.
    pub fn next_wake(&self, now: Cycle) -> Cycle {
        // The completion heap's minimum. It may name a squashed instruction
        // (stale tickets are only discarded when popped), in which case the
        // wake is early: the tick at that cycle is a no-op that drains the
        // stale entry — behaviour the naive loop also exhibits, since it
        // ticks every cycle anyway.
        let mut wake = self.completion_q.peek().max_of(now);
        if self.done_prefix > 0 && self.commit_stalled_until >= now {
            wake = wake.min(self.commit_stalled_until);
        }
        if !self.fetch_halted && self.fetch_stalled_until >= now {
            wake = wake.min(self.fetch_stalled_until);
        }
        wake
    }

    /// Credits `skipped` fast-forwarded idle cycles to this core's cycle
    /// counter, exactly as if [`tick`](Self::tick) had been called (and done
    /// nothing) on each of them.
    pub fn skip_idle_cycles(&mut self, skipped: u64) {
        if self.thread.is_some() && !self.halted {
            self.stats.cycles += skipped;
        }
    }

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn commit_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel, events: &mut Vec<CoreEvent>) {
        if now < self.commit_stalled_until {
            return;
        }
        let width = self.pipeline.width;
        for _ in 0..width {
            if self.done_prefix == 0 {
                break;
            }
            let entry = self.rob.pop_front().expect("done prefix implies a head");
            self.done_prefix -= 1;
            self.retire_bookkeeping(&entry);
            self.retire_entry(&entry, now, mem, events);
            if self.halted || now < self.commit_stalled_until {
                break;
            }
        }
        // An atomic joins the ready set when the head reaches it: with every
        // older entry committed, its operands are ready.
        if let Some(head) = self.rob.front() {
            let slot = self.slot(head.seq);
            if self.atomic_bits.get(slot) && matches!(head.status, Status::Waiting) {
                debug_assert_eq!(self.pending_srcs[slot], 0);
                self.ready_bits.set(slot);
            }
        }
    }

    /// Updates the incremental structures for a popped (committed) entry.
    fn retire_bookkeeping(&mut self, entry: &RobEntry) {
        // A finished entry was woken by every producer, woke its own waiters
        // when it turned Done (or, for a store, when it got its address) and
        // left every candidate set when it issued.
        let slot = self.slot(entry.seq);
        debug_assert!(self.operand_waiters.is_empty(slot) && self.store_waiters.is_empty(slot));
        debug_assert!(!self.waiting_bits.get(slot) && !self.retry_bits.get(slot));
        if entry.is_load() {
            self.loads_in_flight -= 1;
        }
        if entry.is_store() {
            self.stores_in_flight -= 1;
            // Memory operations commit in order, so this store is the front.
            debug_assert_eq!(self.store_seqs.front(), Some(&entry.seq));
            self.store_seqs.pop_front();
        }
        if entry.is_branch() && self.branch_seqs.front() == Some(&entry.seq) {
            self.branch_seqs.pop_front();
        }
        if let Some(dest) = entry.inst.dest() {
            if self.reg_producer[dest.index()] == entry.seq {
                self.reg_producer[dest.index()] = NO_PRODUCER;
            }
        }
    }

    fn retire_entry(
        &mut self,
        entry: &RobEntry,
        now: Cycle,
        mem: &mut dyn MemoryModel,
        events: &mut Vec<CoreEvent>,
    ) {
        let entry_pc_addr = self.pc_addr(entry.pc);
        let thread = self.thread.as_mut().expect("running thread");
        self.stats.committed += 1;

        // Architectural register update.
        if let (Some(dest), Some(result)) = (entry.inst.dest(), entry.result) {
            thread.regs.write(dest, result);
        }

        // Memory effects and commit-time notifications.
        if entry.is_memory() {
            let addr = entry.mem_addr.expect("memory op has an address");
            if entry.is_store() {
                let data = entry.store_data.expect("store has data");
                let width = match entry.inst {
                    Instruction::Store { width, .. } => width,
                    _ => MemWidth::Double,
                };
                thread.memory.borrow_mut().write(addr, data, width);
                self.stats.stores += 1;
            }
            if entry.is_load() {
                self.stats.loads += 1;
            }
            let ctx = MemAccessCtx {
                core: self.core_id,
                vaddr: addr,
                pc: entry_pc_addr,
                when: now,
                speculative: false,
                is_store: entry.is_store(),
                under_unresolved_branch: false,
                addr_tainted_spectre: false,
                addr_tainted_future: false,
            };
            let extra = mem.commit_access(&ctx);
            if extra > 0 {
                self.commit_stalled_until = now.saturating_add(extra);
            }
        }

        if matches!(entry.inst.class(), InstClass::Branch) {
            self.stats.branches += 1;
        }

        // Notify the memory model that the instruction itself committed, so
        // instruction-filter-cache lines can be marked committed (§4.7).
        let fetch_ctx = MemAccessCtx {
            core: self.core_id,
            vaddr: entry_pc_addr,
            pc: entry_pc_addr,
            when: now,
            speculative: false,
            is_store: false,
            under_unresolved_branch: false,
            addr_tainted_spectre: false,
            addr_tainted_future: false,
        };
        mem.commit_fetch(&fetch_ctx);

        // Committed program counter follows the actual path.
        thread.pc = entry.actual_next;

        match entry.inst {
            Instruction::Syscall { code } => events.push(CoreEvent::Syscall(code)),
            Instruction::SandboxEnter => events.push(CoreEvent::SandboxEnter),
            Instruction::SandboxExit => events.push(CoreEvent::SandboxExit),
            Instruction::Halt => {
                thread.halted = true;
                self.halted = true;
                self.fetch_halted = true;
                events.push(CoreEvent::Halted);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // complete (writeback + branch resolution)
    // ------------------------------------------------------------------

    /// Moves finished executions to `Done`, oldest first, resolving branches.
    /// Returns whether any entry changed state (squashes included).
    ///
    /// Driven by the completion-ticket heap: only the tickets due at `now`
    /// are popped, so the stage costs O(completions · log ROB) instead of a
    /// full ROB scan per cycle. Tickets are validated against the entry they
    /// name — squashes leave stale tickets behind, and a squash followed by
    /// re-dispatch reuses sequence numbers, so a ticket is live only if its
    /// entry is still `Executing` at exactly the ticketed cycle. (A stale
    /// ticket that collides with a reused sequence number *and* its new
    /// completion time merely completes an entry that is genuinely due;
    /// the entry's own ticket then pops as a harmless duplicate.)
    fn complete_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        let head = self.head_seq();
        let rob_len = self.rob.len() as u64;
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        while let Some((ticket_time, seq)) = self.completion_q.pop_due(now) {
            if seq < head || seq - head >= rob_len {
                continue; // committed or squashed: stale
            }
            match self.rob[(seq - head) as usize].status {
                Status::Executing(done_at) if done_at == ticket_time => due.push(seq),
                _ => {} // already Done (duplicate) or re-issued: stale
            }
        }
        // Process in program order: the done prefix extends front-to-back and
        // the *oldest* mispredicted branch must be the one that squashes.
        due.sort_unstable();
        due.dedup();
        let mut squash_after: Option<(usize, usize)> = None; // (rob index, redirect pc)
        let mut transitions = false;
        for &seq in due.iter() {
            let idx = (seq - head) as usize;
            transitions = true;
            self.rob[idx].status = Status::Done;
            self.wake_consumers(seq);
            if idx == self.done_prefix {
                // Extend the done prefix over this entry and any previously
                // finished entries it unblocks.
                self.done_prefix += 1;
                while self.done_prefix < self.rob.len() && self.rob[self.done_prefix].is_done() {
                    self.done_prefix += 1;
                }
            }
            if self.rob[idx].is_branch() {
                let (mispredicted, redirect) = self.resolve_branch(idx);
                if mispredicted {
                    // Younger due entries stay `Executing`; the squash below
                    // removes them, exactly as the scan-based stage left them
                    // untransitioned when it broke at the first mispredict.
                    squash_after = Some((idx, redirect));
                    break;
                }
            }
        }
        self.due_scratch = due;
        if let Some((idx, redirect)) = squash_after {
            self.squash_younger_than(idx, redirect, now, mem);
        }
        transitions
    }

    /// Resolves the control-flow instruction at ROB index `idx`. Returns
    /// whether it was mispredicted and the correct next instruction index.
    fn resolve_branch(&mut self, idx: usize) -> (bool, usize) {
        let entry = &self.rob[idx];
        let actual_next = entry.actual_next;
        let mispredicted = actual_next != entry.predicted_next;
        let conditional = matches!(entry.inst.class(), InstClass::Branch);
        let taken = match entry.inst {
            Instruction::Branch { .. } => actual_next != entry.pc + 1,
            _ => true,
        };
        let update = BranchUpdate {
            pc: self.pc_addr(entry.pc),
            taken,
            target: actual_next,
            conditional,
        };
        self.predictor.update(&update);
        if mispredicted {
            self.stats.mispredictions += 1;
        }
        (mispredicted, actual_next)
    }

    /// Squashes every ROB entry younger than index `idx` and redirects fetch.
    fn squash_younger_than(
        &mut self,
        idx: usize,
        redirect: usize,
        now: Cycle,
        mem: &mut dyn MemoryModel,
    ) {
        let removed = self.rob.len().saturating_sub(idx + 1);
        if removed > 0 {
            for e in self.rob.iter().skip(idx + 1) {
                self.stats.squashed += 1;
                if e.is_load() && !matches!(e.status, Status::Waiting) {
                    self.stats.squashed_loads += 1;
                }
                if e.is_load() {
                    self.loads_in_flight -= 1;
                }
                if e.is_store() {
                    self.stores_in_flight -= 1;
                }
                // Completion tickets of removed entries go stale in the heap
                // (validated away on pop); the issue-candidate sets and the
                // wakeup lists must be pruned eagerly — the slots are reused
                // by the corrected path. A removed entry's own lists hold
                // only younger (also removed) waiters, so unlinking every
                // removed node empties them too.
                let slot = (e.seq & self.slot_mask) as usize;
                match e.status {
                    Status::Waiting => {
                        self.waiting_count -= 1;
                        self.waiting_bits.clear(slot);
                        self.ready_bits.clear(slot);
                    }
                    Status::Executing(t) if t == Cycle::NEVER && e.mem_retry => {
                        self.retry_count -= 1;
                        self.retry_bits.clear(slot);
                    }
                    _ => {}
                }
                self.operand_waiters.unlink(2 * slot);
                self.operand_waiters.unlink(2 * slot + 1);
                self.store_waiters.unlink(slot);
            }
            self.rob.truncate(idx + 1);
            self.done_prefix = self.done_prefix.min(idx + 1);
            let max_kept_seq = self.head_seq() + idx as u64;
            // Reclaim the squashed sequence numbers so `rob[i].seq ==
            // head_seq + i` stays true for entries dispatched down the
            // corrected path (the O(1) producer links depend on it).
            self.next_seq = max_kept_seq + 1;
            while self.store_seqs.back().is_some_and(|&s| s > max_kept_seq) {
                self.store_seqs.pop_back();
            }
            while self.branch_seqs.back().is_some_and(|&s| s > max_kept_seq) {
                self.branch_seqs.pop_back();
            }
            // Roll the scoreboard back to the youngest surviving producers.
            self.reg_producer = [NO_PRODUCER; NUM_REGS];
            for e in &self.rob {
                if let Some(dest) = e.inst.dest() {
                    self.reg_producer[dest.index()] = e.seq;
                }
            }
        }
        mem.on_squash(self.core_id, now);
        self.predictor.clear_ras();
        self.fetch_pc = redirect;
        self.fetch_halted = false;
        self.last_fetch_line = None;
        self.fetch_stalled_until = now.saturating_add(self.pipeline.mispredict_penalty);
    }

    // ------------------------------------------------------------------
    // issue / execute
    // ------------------------------------------------------------------

    /// Attempts to start execution of ready instructions. Returns whether any
    /// instruction issued or any parked memory access re-polled the memory
    /// model (both make the cycle non-quiescent).
    ///
    /// Equivalent to walking the ROB from the head, trying every Waiting
    /// entry and parked retry until `width` issue (a poll spends an issue
    /// slot and a memory port whether or not it is accepted), and stopping at
    /// the window end counted at the start of the stage (see
    /// [`window_cut`](Self::window_cut)). A Waiting entry that is not ready
    /// would be refused without side effects, so only the `ready | retry`
    /// bits are visited, one slot word at a time; the live word is re-read
    /// after every candidate because issuing a store wakes the younger loads
    /// parked behind it. A word's cut is found only when the walk reaches
    /// it, which gives the stage-start window: issue clears only bits the
    /// walk has passed, and wakeups set only ready bits.
    fn issue_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        if self.waiting_count + self.retry_count == 0 {
            return false;
        }
        #[cfg(any(test, debug_assertions))]
        let expected_end = self.window_end_by_rob_walk();
        let head = self.head_seq();
        let tail = head + self.rob.len() as u64;
        let mut left = self.window_budget();
        let width = self.pipeline.width;
        let mut issued = 0usize;
        let mut int_used = 0usize;
        let mut fp_used = 0usize;
        let mut muldiv_used = 0usize;
        let mut mem_ports_used = 0usize;
        let mut chunk = head;
        while issued < width {
            if chunk == tail {
                #[cfg(any(test, debug_assertions))]
                assert_eq!(tail, expected_end, "the issue window ends early");
                break;
            }
            let (w, mut window, run) = self.word_run(chunk, tail);
            let first_bit = window.trailing_zeros();
            let cut = self.window_cut(w, window, chunk == head, &mut left);
            if let Some(bit) = cut {
                window &= (1 << bit) - 1;
                #[cfg(any(test, debug_assertions))]
                assert_eq!(
                    chunk + u64::from(bit - first_bit),
                    expected_end,
                    "the issue window ends elsewhere"
                );
            }
            while issued < width {
                let candidates = (self.ready_bits.word(w) | self.retry_bits.word(w)) & window;
                if candidates == 0 {
                    break;
                }
                let bit = candidates.trailing_zeros();
                window &= !(u64::MAX >> (63 - bit));
                let seq = chunk + u64::from(bit - first_bit);
                #[cfg(any(test, debug_assertions))]
                assert!(seq < expected_end, "{seq} is past the issue window");
                let idx = (seq - head) as usize;
                let slot = self.slot(seq);

                if self.retry_bits.get(slot) {
                    // A previously delayed memory access: the memory model
                    // re-evaluates its condition (at the head it is
                    // non-speculative and must succeed). The poll reaches the
                    // memory model, so a cycle with a parked retry is never
                    // quiescent.
                    issued += 1;
                    mem_ports_used += 1;
                    self.poll(idx, now, mem);
                    continue;
                }

                // Functional unit availability.
                let class = self.rob[idx].inst.class();
                let fu_ok = match class {
                    InstClass::IntAlu
                    | InstClass::Branch
                    | InstClass::Jump
                    | InstClass::Call
                    | InstClass::Return
                    | InstClass::Nop
                    | InstClass::SandboxMarker
                    | InstClass::Syscall
                    | InstClass::Barrier
                    | InstClass::Halt => int_used < self.pipeline.int_alus,
                    InstClass::FpAlu => fp_used < self.pipeline.fp_alus,
                    InstClass::MulDiv => muldiv_used < self.pipeline.mul_div_units,
                    InstClass::Load | InstClass::Store | InstClass::Atomic => mem_ports_used < 4,
                };
                if !fu_ok {
                    continue;
                }
                if self.try_issue_at(idx, now, mem) {
                    issued += 1;
                    self.waiting_count -= 1;
                    self.waiting_bits.clear(slot);
                    self.ready_bits.clear(slot);
                    if self.entry_is_parked(idx) {
                        // The memory model parked the access for a later
                        // retry: it left Waiting but remains a candidate.
                        self.retry_bits.set(slot);
                        self.retry_count += 1;
                    }
                    match class {
                        InstClass::FpAlu => fp_used += 1,
                        InstClass::MulDiv => muldiv_used += 1,
                        InstClass::Load | InstClass::Store | InstClass::Atomic => {
                            mem_ports_used += 1
                        }
                        _ => int_used += 1,
                    }
                }
            }
            if cut.is_some() {
                break;
            }
            chunk += run;
        }
        issued > 0
    }

    /// The slot-ring word holding sequence number `from`, the mask of the
    /// bits of `from..to` that lie in it (a run ends at the word's end and at
    /// the ring's wrap) and the length of that run.
    fn word_run(&self, from: u64, to: u64) -> (usize, u64, u64) {
        let first_slot = self.slot(from);
        let (w, first_bit) = (first_slot / 64, first_slot % 64);
        let ring_left = (self.slot_mask + 1) as usize - first_slot;
        let run = (64 - first_bit).min(ring_left).min((to - from) as usize);
        (w, (u64::MAX >> (64 - run)) << first_bit, run as u64)
    }

    /// The Waiting entries the issue window admits, when more wait than it
    /// holds (`None`: the window rank needs no counting).
    fn window_budget(&self) -> Option<usize> {
        (self.waiting_count > self.pipeline.iq_entries).then_some(self.pipeline.iq_entries)
    }

    /// Where the issue window ends inside the run `window` of slot word `w`,
    /// if it does: at the first serialising instruction past the head (the
    /// head itself, `at_head`, is an ordinary candidate; past it a
    /// serialising entry is unfinished, since it executes only at the head)
    /// or at the `iq_entries + 1`-th Waiting entry, whichever comes first.
    /// `left` is the Waiting budget still open before this run (see
    /// [`window_budget`](Self::window_budget)); where it runs out, one
    /// [`select`] finds the cutoff. The one cutoff rule of the issue walk
    /// and of [`idle_at`](Self::idle_at).
    fn window_cut(
        &self,
        w: usize,
        window: u64,
        at_head: bool,
        left: &mut Option<usize>,
    ) -> Option<u32> {
        let mut serial = self.serial_bits.word(w) & window;
        if at_head {
            serial &= !(1 << window.trailing_zeros());
        }
        let mut cut = (serial != 0).then(|| serial.trailing_zeros());
        if let Some(left) = left.as_mut() {
            let waiting = self.waiting_bits.word(w) & window;
            let count = waiting.count_ones() as usize;
            if count > *left {
                let bit = select(waiting, *left as u32);
                cut = Some(cut.map_or(bit, |c| c.min(bit)));
            } else {
                *left -= count;
            }
        }
        cut
    }

    /// Whether a ready entry lies inside the issue window: the issue walk's
    /// cutoff, read-only, up to the first ready bit.
    fn ready_in_window(&self) -> bool {
        if self.ready_bits.is_empty() {
            return false;
        }
        let head = self.head_seq();
        let tail = head + self.rob.len() as u64;
        let mut left = self.window_budget();
        let mut chunk = head;
        while chunk < tail {
            let (w, mut window, run) = self.word_run(chunk, tail);
            let cut = self.window_cut(w, window, chunk == head, &mut left);
            if let Some(bit) = cut {
                window &= (1 << bit) - 1;
            }
            if self.ready_bits.word(w) & window != 0 {
                return true;
            }
            if cut.is_some() {
                break;
            }
            chunk += run;
        }
        false
    }

    /// Where the issue stage must stop, recomputed with a plain ROB walk:
    /// at the first unfinished serialising entry past the head or at the
    /// `iq_entries + 1`-th Waiting entry, whichever comes first, else at the
    /// tail. The oracle for the word walk in [`issue_stage`](Self::issue_stage).
    #[cfg(any(test, debug_assertions))]
    fn window_end_by_rob_walk(&self) -> u64 {
        let mut waiting = 0;
        for (idx, e) in self.rob.iter().enumerate() {
            if idx > 0 && e.inst.is_serialising() && !e.is_done() {
                return e.seq;
            }
            if matches!(e.status, Status::Waiting) {
                if waiting == self.pipeline.iq_entries {
                    return e.seq;
                }
                waiting += 1;
            }
        }
        self.head_seq() + self.rob.len() as u64
    }

    /// ROB slot of sequence number `seq`.
    fn slot(&self, seq: u64) -> usize {
        (seq & self.slot_mask) as usize
    }

    /// Wakes the consumers linked to the producer `seq`, which just turned
    /// `Done`: a consumer whose last unfinished producer this was becomes
    /// ready.
    ///
    /// An atomic is left for the commit stage to wake: its producer is
    /// older and still in the ROB, so the atomic is not the head.
    fn wake_consumers(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let pending = &mut self.pending_srcs;
        let ready = &mut self.ready_bits;
        let atomic = &self.atomic_bits;
        self.operand_waiters.drain(slot, |node| {
            let consumer = node / 2;
            pending[consumer] -= 1;
            if pending[consumer] == 0 && !atomic.get(consumer) {
                ready.set(consumer);
            }
        });
    }

    /// Wakes the loads parked behind the store (or atomic) `seq`, which just
    /// computed its address. They are tried again — this same cycle, if the
    /// issue stage has not passed them yet.
    fn wake_loads(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let ready = &mut self.ready_bits;
        self.store_waiters.drain(slot, |load| ready.set(load));
    }

    /// Parks the Waiting load `load_seq` behind the older store `store_seq`,
    /// whose address is still unknown: the load leaves the ready set until
    /// the store wakes it.
    fn park_behind_store(&mut self, load_seq: u64, store_seq: u64) {
        let (load, store) = (self.slot(load_seq), self.slot(store_seq));
        self.ready_bits.clear(load);
        self.store_waiters.link(store, load);
    }

    /// Registers the entry just dispatched as `seq` with the wakeup/select
    /// state: it is Waiting, linked into the wakeup list of each producer
    /// that has not finished, and ready at once if there is none. An atomic
    /// is ready at once only if it becomes the ROB head (which leaves it no
    /// producer in flight); otherwise the commit stage wakes it when the
    /// head reaches it.
    fn dispatch_wakeup(&mut self, seq: u64, inst: &Instruction, src_producers: [u64; 2]) {
        let slot = self.slot(seq);
        debug_assert!(self.operand_waiters.is_empty(slot) && self.store_waiters.is_empty(slot));
        let head = self.head_seq();
        let mut pending = 0u8;
        for (src, &producer) in src_producers.iter().enumerate() {
            if producer == NO_PRODUCER {
                continue;
            }
            debug_assert!(producer >= head, "scoreboard names a departed producer");
            if !self.rob[(producer - head) as usize].is_done() {
                let list = self.slot(producer);
                self.operand_waiters.link(list, 2 * slot + src);
                pending += 1;
            }
        }
        self.pending_srcs[slot] = pending;
        self.waiting_bits.set(slot);
        let atomic = matches!(inst.class(), InstClass::Atomic);
        if pending == 0 && (!atomic || self.rob.is_empty()) {
            self.ready_bits.set(slot);
        }
        if inst.is_serialising() {
            self.serial_bits.set(slot);
        } else {
            self.serial_bits.clear(slot);
        }
        if atomic {
            self.atomic_bits.set(slot);
        } else {
            self.atomic_bits.clear(slot);
        }
    }

    /// Recomputes issue readiness from the ROB and checks the wakeup/select
    /// state against it (debug builds, after every issue stage). The one
    /// failure that would not show up as a crash is a *lost wakeup* — a
    /// Waiting entry whose producers are all `Done`, that has no older store
    /// with an unknown address and that is not an atomic off the ROB head,
    /// yet lacks its ready bit — which would silently delay its issue; this
    /// catches it on the cycle it happens.
    /// Slots outside the live ROB must be free of bits and waiters (checked
    /// by population counts), which is what makes a squash followed by
    /// sequence-number reuse safe.
    #[cfg(any(test, debug_assertions))]
    fn check_wakeup_state(&self) {
        let head = self.head_seq();
        let mut unknown_store_older = false;
        let (mut waiting, mut ready_count, mut parked) = (0, 0, 0);
        let (mut operand_links, mut store_links) = (0, 0);
        for (idx, e) in self.rob.iter().enumerate() {
            let seq = e.seq;
            let slot = self.slot(seq);
            let is_waiting = matches!(e.status, Status::Waiting);
            let ready = self.ready_bits.get(slot);
            let is_parked = self.entry_is_parked(idx);
            assert_eq!(
                self.waiting_bits.get(slot),
                is_waiting,
                "waiting bit of {seq}"
            );
            assert_eq!(self.retry_bits.get(slot), is_parked, "retry bit of {seq}");
            assert_eq!(self.serial_bits.get(slot), e.inst.is_serialising());
            let atomic = matches!(e.inst.class(), InstClass::Atomic);
            assert_eq!(self.atomic_bits.get(slot), atomic, "atomic bit of {seq}");
            waiting += usize::from(is_waiting);
            ready_count += usize::from(ready);
            parked += usize::from(is_parked);
            if is_waiting {
                let mut unfinished = 0;
                for (src, &producer) in e.src_producers.iter().enumerate() {
                    let node = 2 * slot + src;
                    if producer != NO_PRODUCER
                        && producer >= head
                        && !self.rob[(producer - head) as usize].is_done()
                    {
                        unfinished += 1;
                        let list = self.slot(producer);
                        assert_eq!(
                            self.operand_waiters.owner(node),
                            Some(list),
                            "{seq} unlinked"
                        );
                    } else {
                        assert!(
                            !self.operand_waiters.is_linked(node),
                            "{seq} waits on nothing"
                        );
                    }
                }
                operand_links += unfinished;
                assert_eq!(usize::from(self.pending_srcs[slot]), unfinished);
                let blocked = e.is_load() && unknown_store_older;
                let off_head = atomic && idx != 0;
                assert!(
                    ready || unfinished > 0 || blocked || off_head,
                    "lost wakeup: seq {seq} can issue but is not ready"
                );
                assert!(!(ready && off_head), "atomic {seq} ready off the head");
                assert!(
                    !ready || unfinished == 0,
                    "seq {seq} ready with producers pending"
                );
                if let Some(store_slot) = self.store_waiters.owner(slot) {
                    store_links += 1;
                    let offset = (store_slot as u64).wrapping_sub(head) & self.slot_mask;
                    assert!(offset < idx as u64, "{seq} waits behind a younger slot");
                    let store = &self.rob[offset as usize];
                    assert!(store.is_store() && store.mem_addr.is_none());
                    assert!(!ready, "{seq} both ready and parked behind a store");
                }
            } else {
                assert!(!ready, "seq {seq} is ready but not Waiting");
            }
            if e.is_store() && e.mem_addr.is_none() {
                unknown_store_older = true;
            }
        }
        assert_eq!(waiting, self.waiting_count);
        assert_eq!(parked, self.retry_count);
        // Every set bit and every linked waiter belongs to a live entry.
        assert_eq!(self.waiting_bits.count(), waiting, "stray waiting bit");
        assert_eq!(self.ready_bits.count(), ready_count, "stray ready bit");
        assert_eq!(self.retry_bits.count(), parked, "stray retry bit");
        assert_eq!(
            self.operand_waiters.linked(),
            operand_links,
            "stray operand waiter"
        );
        assert_eq!(
            self.store_waiters.linked(),
            store_links,
            "stray store waiter"
        );
    }

    /// Whether entry `idx` is parked waiting for a memory-model retry (it
    /// "executes" at `Cycle::NEVER` until the retry succeeds).
    fn entry_is_parked(&self, idx: usize) -> bool {
        let e = &self.rob[idx];
        e.mem_retry && matches!(e.status, Status::Executing(t) if t == Cycle::NEVER)
    }

    /// The value of source register `reg` as seen through its dispatch-time
    /// producer link: the linked in-flight producer's result once it is done,
    /// the architectural register if the producer already committed (or none
    /// existed), `None` while the producer is still executing.
    fn operand_value(&self, reg: Reg, producer_seq: u64) -> Option<u64> {
        if reg.is_zero() {
            return Some(0);
        }
        if producer_seq != NO_PRODUCER && producer_seq >= self.head_seq() {
            let producer = &self.rob[(producer_seq - self.head_seq()) as usize];
            debug_assert_eq!(producer.inst.dest(), Some(reg));
            // Execute-at-issue: results exist as soon as the producer starts
            // executing, but consumers model the dependency latency by
            // forwarding only once the producer is Done.
            return if producer.is_done() {
                producer.result
            } else {
                None
            };
        }
        let thread = self.thread.as_ref()?;
        Some(thread.regs.read(reg))
    }

    /// Attempts to execute the entry at ROB index `idx`. Returns whether it
    /// started (or completed) execution this cycle.
    fn try_issue_at(&mut self, idx: usize, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        let inst = self.rob[idx].inst;
        let class = inst.class();

        // Serialising instructions and atomics execute only at the ROB head:
        // one past the head ends the issue window, and an atomic is ready
        // only at the head.
        debug_assert!(
            idx == 0 || !(inst.is_serialising() || matches!(class, InstClass::Atomic)),
            "a head-only instruction visited past the head"
        );
        // A cycle-counter read waits until every older instruction has
        // finished so it observes an accurate time (like lfence; rdtsc). The
        // done-prefix counter answers "are all older entries done?" in O(1).
        if matches!(inst, Instruction::ReadCycle { .. }) && self.done_prefix < idx {
            return false;
        }

        // Gather operand values through the dispatch-time producer links.
        let (src_regs, num_sources) = inst.source_regs();
        let links = self.rob[idx].src_producers;
        let mut operands = [0u64; 2];
        for slot in 0..num_sources {
            match self.operand_value(src_regs[slot], links[slot]) {
                Some(v) => operands[slot] = v,
                None => return false,
            }
        }
        let operands = &operands[..num_sources];

        match class {
            InstClass::Load | InstClass::Store | InstClass::Atomic => {
                self.issue_memory(idx, now, mem, operands)
            }
            _ => {
                self.issue_non_memory(idx, now, operands);
                true
            }
        }
    }

    fn issue_non_memory(&mut self, idx: usize, now: Cycle, operands: &[u64]) {
        let entry = &mut self.rob[idx];
        let latency = entry.inst.exec_latency();
        let mut result = None;
        let mut actual_next = entry.pc + 1;
        match entry.inst {
            Instruction::AluReg { op, .. } => result = Some(eval_alu(op, operands[0], operands[1])),
            Instruction::AluImm { op, imm, .. } => {
                result = Some(eval_alu(op, operands[0], imm as u64))
            }
            Instruction::LoadImm { imm, .. } => result = Some(imm),
            Instruction::Fpu { op, .. } => result = Some(eval_fpu(op, operands[0], operands[1])),
            Instruction::Branch { cond, target, .. } => {
                let taken = eval_branch(cond, operands[0], operands[1]);
                actual_next = if taken { target } else { entry.pc + 1 };
            }
            Instruction::Jump { target } => actual_next = target,
            Instruction::JumpIndirect { offset, .. } => {
                actual_next = operands[0].wrapping_add(offset as u64) as usize;
            }
            Instruction::Call { target, .. } => {
                result = Some((entry.pc + 1) as u64);
                actual_next = target;
            }
            Instruction::Return { .. } => actual_next = operands[0] as usize,
            Instruction::ReadCycle { .. } => result = Some(now.raw()),
            _ => {}
        }
        entry.result = result;
        entry.actual_next = actual_next;
        let done_at = now.saturating_add(latency);
        let seq = entry.seq;
        entry.status = Status::Executing(done_at);
        self.completion_q.push(done_at, seq);
    }

    fn issue_memory(
        &mut self,
        idx: usize,
        now: Cycle,
        mem: &mut dyn MemoryModel,
        operands: &[u64],
    ) -> bool {
        let inst = self.rob[idx].inst;
        // Compute the effective address and (for stores) the data value.
        let (addr, data) = match inst {
            Instruction::Load { offset, .. } => {
                (VirtAddr::new(operands[0].wrapping_add(offset as u64)), None)
            }
            Instruction::Store { offset, .. } => (
                VirtAddr::new(operands[1].wrapping_add(offset as u64)),
                Some(operands[0]),
            ),
            Instruction::AtomicSwap { .. } | Instruction::AtomicAdd { .. } => {
                (VirtAddr::new(operands[1]), Some(operands[0]))
            }
            _ => unreachable!("issue_memory called for non-memory instruction"),
        };

        // Memory disambiguation: a load may not issue past an older store
        // whose address is unknown; if an older store to the same address has
        // its data, forward it.
        let is_load = matches!(inst.class(), InstClass::Load | InstClass::Atomic);
        let mut forwarded_value = None;
        if is_load {
            if let Some(store_seq) = self.conflicting_older_store(idx, addr) {
                let store = &self.rob[(store_seq - self.head_seq()) as usize];
                if store.mem_addr.is_none() {
                    // Unknown older store address: wait until that store
                    // computes it.
                    self.park_behind_store(self.rob[idx].seq, store_seq);
                    return false;
                }
                forwarded_value = store.store_data;
            }
        }

        if matches!(inst.class(), InstClass::Store | InstClass::Atomic) {
            // The address is known from here on.
            self.wake_loads(self.rob[idx].seq);
        }
        let entry = &mut self.rob[idx];
        entry.mem_addr = Some(addr);
        entry.store_data = data;
        self.access_memory(idx, now, mem, forwarded_value);
        true
    }

    /// The youngest in-flight store older than entry `idx` that a load from
    /// `addr` must respect: one whose address is still unknown (the load
    /// waits for it) or one to `addr` (the load forwards from it). Only the
    /// in-flight stores are walked, youngest first, not every older entry.
    fn conflicting_older_store(&self, idx: usize, addr: VirtAddr) -> Option<u64> {
        let head = self.head_seq();
        let older = self.store_seqs.partition_point(|&s| s < self.rob[idx].seq);
        self.store_seqs
            .range(..older)
            .rev()
            .copied()
            .find(|&store_seq| {
                let store = &self.rob[(store_seq - head) as usize];
                debug_assert!(store.is_store());
                store.mem_addr.is_none_or(|a| a == addr)
            })
    }

    /// Re-polls the memory model for the parked load (or head atomic) at ROB
    /// index `idx`; an access the model accepts leaves the retry set. A
    /// parked load passed disambiguation
    /// (every older store had a known, different address) and older stores
    /// can only commit since, so the poll starts from the stored address;
    /// speculation, branch and taint state are recomputed by
    /// [`access_memory`](Self::access_memory).
    fn poll(&mut self, idx: usize, now: Cycle, mem: &mut dyn MemoryModel) {
        let addr = self.rob[idx]
            .mem_addr
            .expect("a parked access has its address");
        debug_assert!(
            self.conflicting_older_store(idx, addr).is_none(),
            "a parked access gained an older conflicting store"
        );
        debug_assert!(idx == 0 || matches!(self.rob[idx].inst.class(), InstClass::Load));
        self.access_memory(idx, now, mem, None);
        if !self.entry_is_parked(idx) {
            let slot = self.slot(self.rob[idx].seq);
            self.retry_bits.clear(slot);
            self.retry_count -= 1;
        }
    }

    /// Issues the memory side of the operation at ROB index `idx`, whose
    /// address and store data are recorded: a store notifies the memory
    /// model; a load completes from `forwarded` or through the memory model,
    /// which may park it.
    fn access_memory(
        &mut self,
        idx: usize,
        now: Cycle,
        mem: &mut dyn MemoryModel,
        forwarded: Option<u64>,
    ) {
        let inst = self.rob[idx].inst;
        let addr = self.rob[idx].mem_addr.expect("memory op has an address");
        let data = self.rob[idx].store_data;
        let under_unresolved_branch = self.has_older_unresolved_branch(idx);
        let (ts, tf) = if mem.needs_taint_tracking() {
            self.address_taint(idx)
        } else {
            (false, false)
        };
        let speculative = idx != 0;
        let pc_vaddr = self.pc_addr(self.rob[idx].pc);
        let entry = &mut self.rob[idx];

        match inst.class() {
            InstClass::Store => {
                // Stores execute (compute address/data) without touching the
                // cache; the write happens at commit. Tell the memory model so
                // it can prefetch the line in shared state if it wants.
                let ctx = MemAccessCtx {
                    core: self.core_id,
                    vaddr: addr,
                    pc: pc_vaddr,
                    when: now,
                    speculative,
                    is_store: true,
                    under_unresolved_branch,
                    addr_tainted_spectre: ts,
                    addr_tainted_future: tf,
                };
                let done_at = now.saturating_add(1);
                let seq = entry.seq;
                entry.status = Status::Executing(done_at);
                entry.actual_next = entry.pc + 1;
                self.completion_q.push(done_at, seq);
                mem.store_address_ready(&ctx);
            }
            InstClass::Load | InstClass::Atomic => {
                let pc_addr = pc_vaddr;
                let is_atomic = matches!(inst.class(), InstClass::Atomic);
                if let Some(value) = forwarded {
                    // Store-to-load forwarding: 1-cycle, no cache access.
                    let entry = &mut self.rob[idx];
                    entry.result = Some(value);
                    entry.actual_next = entry.pc + 1;
                    let done_at = now.saturating_add(1);
                    let seq = entry.seq;
                    entry.status = Status::Executing(done_at);
                    self.completion_q.push(done_at, seq);
                    return;
                }
                let ctx = MemAccessCtx {
                    core: self.core_id,
                    vaddr: addr,
                    pc: pc_addr,
                    when: now,
                    speculative,
                    is_store: is_atomic,
                    under_unresolved_branch,
                    addr_tainted_spectre: ts,
                    addr_tainted_future: tf,
                };
                match mem.load(&ctx) {
                    MemOutcome::Done { latency } => {
                        // Functional read happens now (execute-at-issue).
                        let thread = self.thread.as_ref().expect("running thread");
                        let width = match inst {
                            Instruction::Load { width, .. } => width,
                            _ => MemWidth::Double,
                        };
                        let loaded = thread.memory.borrow().read(addr, width);
                        let entry = &mut self.rob[idx];
                        entry.result = Some(loaded);
                        entry.actual_next = entry.pc + 1;
                        entry.mem_retry = false;
                        let done_at = now.saturating_add(latency.max(1));
                        let seq = entry.seq;
                        entry.status = Status::Executing(done_at);
                        self.completion_q.push(done_at, seq);
                        // Atomics perform their read-modify-write functionally
                        // at execute time; they only run at the ROB head, so
                        // this is never speculative.
                        if is_atomic {
                            let thread = self.thread.as_ref().expect("running thread");
                            let new_value = match inst {
                                Instruction::AtomicSwap { .. } => data.unwrap_or(0),
                                Instruction::AtomicAdd { .. } => {
                                    loaded.wrapping_add(data.unwrap_or(0))
                                }
                                _ => unreachable!(),
                            };
                            thread
                                .memory
                                .borrow_mut()
                                .write(addr, new_value, MemWidth::Double);
                            let entry = &mut self.rob[idx];
                            entry.store_data = Some(new_value);
                        }
                    }
                    MemOutcome::RetryWhenNonSpeculative => {
                        self.stats.mem_retries += 1;
                        let entry = &mut self.rob[idx];
                        entry.mem_retry = true;
                        // Park the entry; it stays "executing" far in the
                        // future and is retried by the issue stage.
                        entry.status = Status::Executing(Cycle::NEVER);
                        entry.actual_next = entry.pc + 1;
                    }
                }
            }
            _ => unreachable!(),
        }
    }

    /// Computes the taint of entry `idx`'s address operands for speculative
    /// taint tracking (STT): whether any value feeding the address was
    /// produced by an in-flight load that is still "unsafe".
    ///
    /// A source load is unsafe under the *Spectre* attack model while it has
    /// an older unresolved conditional branch, and under the *Futuristic*
    /// model while any older instruction remains in the reorder buffer at all
    /// (conservatively, the load can be squashed — by an interrupt, fault or
    /// ordering violation of anything older — until it reaches the head).
    /// Taint is recomputed every time the access is (re)tried, so it naturally
    /// clears when the source load becomes safe — which is exactly when STT
    /// un-blocks the dependent transmitter.
    ///
    /// The walk follows the dispatch-time producer links, so no register scan
    /// is needed; the work list and visited set are reusable scratch buffers.
    fn address_taint(&mut self, idx: usize) -> (bool, bool) {
        let mut spectre = false;
        let mut future = false;
        let head = self.head_seq();
        let mut worklist = std::mem::take(&mut self.taint_stack);
        let mut visited = std::mem::take(&mut self.taint_visited);
        worklist.clear();
        visited.clear();
        visited.resize(idx, false);

        let push_links = |rob: &VecDeque<RobEntry>, at: usize, worklist: &mut Vec<usize>| {
            let (src_regs, num_sources) = rob[at].inst.source_regs();
            let links = rob[at].src_producers;
            for slot in 0..num_sources {
                if src_regs[slot].is_zero() || links[slot] == NO_PRODUCER || links[slot] < head {
                    continue;
                }
                worklist.push((links[slot] - head) as usize);
            }
        };
        push_links(&self.rob, idx, &mut worklist);

        while let Some(producer) = worklist.pop() {
            if visited[producer] {
                continue;
            }
            visited[producer] = true;
            if self.rob[producer].is_load() {
                if self.has_older_unresolved_branch(producer) {
                    spectre = true;
                }
                if producer > 0 {
                    future = true;
                }
            }
            // Follow the producer's own operands further up the chain.
            push_links(&self.rob, producer, &mut worklist);
            if spectre && future {
                break;
            }
        }
        self.taint_stack = worklist;
        self.taint_visited = visited;
        (spectre, future)
    }

    /// Whether any conditional branch older than ROB index `idx` has not yet
    /// resolved (finished executing). Answered from the ordered queue of
    /// unresolved control-flow sequence numbers: resolved or departed fronts
    /// are lazily popped, after which the front *is* the oldest unresolved
    /// branch.
    fn has_older_unresolved_branch(&mut self, idx: usize) -> bool {
        let head = self.head_seq();
        while let Some(&seq) = self.branch_seqs.front() {
            if seq < head {
                // Committed (branches commit only once resolved).
                self.branch_seqs.pop_front();
                continue;
            }
            let entry = &self.rob[(seq - head) as usize];
            if entry.is_done() {
                self.branch_seqs.pop_front();
                continue;
            }
            return seq < head + idx as u64;
        }
        false
    }

    // ------------------------------------------------------------------
    // fetch / dispatch
    // ------------------------------------------------------------------

    /// Fetches and dispatches along the predicted path. Returns whether any
    /// progress or state change happened (instructions dispatched, an I-cache
    /// access performed, fetch halted or stalled).
    fn fetch_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        if self.fetch_halted || now < self.fetch_stalled_until {
            return false;
        }
        let mut active = false;
        let line_bytes = 64;
        for _ in 0..self.pipeline.width {
            if self.rob.len() >= self.pipeline.rob_entries {
                break;
            }
            let Some(thread) = self.thread.as_ref() else {
                break;
            };
            let Some(inst) = thread.program.fetch(self.fetch_pc) else {
                self.fetch_halted = true;
                active = true;
                break;
            };
            if self.queues_full_for(inst) {
                break;
            }

            // Instruction-cache timing, charged once per new line.
            let fetch_addr = thread.program.inst_addr(self.fetch_pc);
            let fetch_line = fetch_addr.raw() / line_bytes;
            if self.last_fetch_line != Some(fetch_line) {
                let ctx = MemAccessCtx {
                    core: self.core_id,
                    vaddr: fetch_addr,
                    pc: fetch_addr,
                    when: now,
                    speculative: !self.rob.is_empty(),
                    is_store: false,
                    under_unresolved_branch: self.has_older_unresolved_branch(self.rob.len()),
                    addr_tainted_spectre: false,
                    addr_tainted_future: false,
                };
                let latency = match mem.fetch_instruction(&ctx) {
                    MemOutcome::Done { latency } => latency,
                    MemOutcome::RetryWhenNonSpeculative => 1,
                };
                active = true;
                self.last_fetch_line = Some(fetch_line);
                if latency > 1 {
                    self.fetch_stalled_until = now.saturating_add(latency);
                    break;
                }
            }

            // Branch prediction decides the next fetch PC.
            let pc = self.fetch_pc;
            let pc_vaddr = self.pc_addr(pc);
            let predicted_next = match inst {
                Instruction::Branch { target, .. } => {
                    if self.predictor.predict_direction(pc_vaddr) {
                        target
                    } else {
                        pc + 1
                    }
                }
                Instruction::Jump { target } => target,
                Instruction::JumpIndirect { .. } => self
                    .predictor
                    .predict_indirect_target(pc_vaddr)
                    .unwrap_or(pc + 1),
                Instruction::Call { target, .. } => {
                    self.predictor.push_return(pc + 1);
                    target
                }
                Instruction::Return { .. } => self
                    .predictor
                    .predict_return()
                    .or_else(|| self.predictor.predict_indirect_target(pc_vaddr))
                    .unwrap_or(pc + 1),
                _ => pc + 1,
            };

            // Capture the dispatch-time producer links from the scoreboard,
            // then claim the destination register for this entry.
            let (src_regs, num_sources) = inst.source_regs();
            let mut src_producers = [NO_PRODUCER; 2];
            for slot in 0..num_sources {
                if !src_regs[slot].is_zero() {
                    src_producers[slot] = self.reg_producer[src_regs[slot].index()];
                }
            }

            let entry = RobEntry {
                seq: self.next_seq,
                pc,
                inst,
                status: Status::Waiting,
                result: None,
                src_producers,
                mem_addr: None,
                store_data: None,
                mem_retry: false,
                predicted_next,
                actual_next: pc + 1,
            };
            self.dispatch_wakeup(entry.seq, &inst, src_producers);
            if let Some(dest) = inst.dest() {
                self.reg_producer[dest.index()] = entry.seq;
            }
            if entry.is_load() {
                self.loads_in_flight += 1;
            }
            if entry.is_store() {
                self.stores_in_flight += 1;
                self.store_seqs.push_back(entry.seq);
            }
            if entry.is_branch() {
                self.branch_seqs.push_back(entry.seq);
            }
            self.next_seq += 1;
            self.rob.push_back(entry);
            self.waiting_count += 1;
            self.fetch_pc = predicted_next;
            active = true;

            if matches!(inst, Instruction::Halt) {
                // Stop fetching past a halt on the speculative path.
                self.fetch_halted = true;
                break;
            }
        }
        active
    }

    fn pc_addr(&self, pc: usize) -> VirtAddr {
        match &self.thread {
            Some(t) => t.program.inst_addr(pc),
            None => VirtAddr::new(pc as u64 * INST_BYTES),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmodel::{DomainSwitch, FixedLatencyMemory};
    use simkit::stats::StatSet;
    use uarch_isa::interp::Interpreter;
    use uarch_isa::prog::{Program, ProgramBuilder};
    use uarch_isa::reg::Reg;

    fn run_program(program: &Program) -> (OooCore, ThreadContext, u64) {
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        let thread = ThreadContext::new(program.clone(), 0);
        let cycles = core
            .run_to_halt(thread, &mut mem, 2_000_000)
            .expect("program should halt");
        let finished = core.swap_thread(None).expect("thread present");
        (core, finished, cycles)
    }

    /// Runs a program while ticking every single cycle (no fast-forward),
    /// mirroring the naive pre-optimization loop.
    fn run_program_naive(program: &Program) -> (OooCore, ThreadContext, u64) {
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        core.swap_thread(Some(ThreadContext::new(program.clone(), 0)));
        let mut events = Vec::new();
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 2_000_000 {
            core.tick(now, &mut mem, &mut events);
            now += 1;
        }
        assert!(core.is_halted(), "program should halt");
        let finished = core.swap_thread(None).expect("thread present");
        (core, finished, now.raw())
    }

    /// Runs a program on both the functional interpreter and the OoO core and
    /// asserts the architectural register results match.
    fn assert_matches_interpreter(program: &Program, regs_to_check: &[Reg]) {
        let mut interp = Interpreter::new(program);
        let golden = interp.run(5_000_000).expect("interpreter halts");
        let (_, finished, _) = run_program(program);
        for reg in regs_to_check {
            assert_eq!(
                finished.regs.read(*reg),
                golden.regs.read(*reg),
                "architectural mismatch in {reg}"
            );
        }
    }

    #[test]
    fn straight_line_arithmetic_matches_interpreter() {
        let mut b = ProgramBuilder::new("alu");
        b.li(Reg::X1, 10);
        b.li(Reg::X2, 3);
        b.mul(Reg::X3, Reg::X1, Reg::X2);
        b.sub(Reg::X4, Reg::X3, Reg::X2);
        b.addi(Reg::X5, Reg::X4, 100);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3, Reg::X4, Reg::X5]);
    }

    #[test]
    fn loop_with_memory_matches_interpreter() {
        // Sum an array of 32 values through loads in a loop.
        let mut b = ProgramBuilder::new("sum-array");
        let values: Vec<u64> = (0..32).map(|i| i * 7 + 1).collect();
        b.data_u64(VirtAddr::new(0x1_0000), &values);
        let top = b.new_label();
        b.li(Reg::X1, 0x1_0000); // base
        b.li(Reg::X2, 0); // index
        b.li(Reg::X3, 0); // sum
        b.bind_label(top);
        b.shli(Reg::X4, Reg::X2, 3);
        b.add(Reg::X4, Reg::X1, Reg::X4);
        b.load(Reg::X5, Reg::X4, 0);
        b.add(Reg::X3, Reg::X3, Reg::X5);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt_imm(Reg::X2, 32, top);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3]);
        let (_, finished, _) = run_program(&p);
        assert_eq!(finished.regs.read(Reg::X3), values.iter().sum::<u64>());
    }

    #[test]
    fn stores_then_loads_round_trip() {
        let mut b = ProgramBuilder::new("store-load");
        b.li(Reg::X1, 0x2_0000);
        b.li(Reg::X2, 1234);
        b.store(Reg::X2, Reg::X1, 0);
        b.load(Reg::X3, Reg::X1, 0);
        b.addi(Reg::X3, Reg::X3, 1);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3]);
        let (_, finished, _) = run_program(&p);
        assert_eq!(finished.regs.read(Reg::X3), 1235);
    }

    #[test]
    fn calls_and_returns_match_interpreter() {
        let mut b = ProgramBuilder::new("calls");
        let func = b.new_label();
        let done = b.new_label();
        b.li(Reg::X1, 1);
        b.call(func, Reg::X30);
        b.call(func, Reg::X30);
        b.jump(done);
        b.bind_label(func);
        b.shli(Reg::X1, Reg::X1, 2);
        b.ret(Reg::X30);
        b.bind_label(done);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X1]);
    }

    #[test]
    fn data_dependent_branches_match_interpreter() {
        // A loop whose branch direction depends on loaded data, with an
        // irregular pattern so mispredictions occur.
        let mut b = ProgramBuilder::new("branchy");
        let values: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) % 7).collect();
        b.data_u64(VirtAddr::new(0x3_0000), &values);
        let top = b.new_label();
        let skip = b.new_label();
        b.li(Reg::X1, 0x3_0000);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 0);
        b.bind_label(top);
        b.shli(Reg::X4, Reg::X2, 3);
        b.add(Reg::X4, Reg::X1, Reg::X4);
        b.load(Reg::X5, Reg::X4, 0);
        b.li(Reg::X6, 3);
        b.blt(Reg::X5, Reg::X6, skip);
        b.addi(Reg::X3, Reg::X3, 1);
        b.bind_label(skip);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt_imm(Reg::X2, 64, top);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3]);
        let (core, _, _) = run_program(&p);
        assert!(
            core.stats().mispredictions > 0,
            "irregular branches should mispredict"
        );
        assert!(
            core.stats().squashed > 0,
            "mispredictions should squash wrong-path work"
        );
    }

    #[test]
    fn wrong_path_loads_reach_the_memory_model() {
        // Train a branch not-taken, then make it taken once: the wrong-path
        // load behind the mispredicted branch must reach the memory model and
        // then be squashed.
        let mut b = ProgramBuilder::new("wrong-path");
        b.data_u64(VirtAddr::new(0x9000), &[0]);
        let top = b.new_label();
        let skip = b.new_label();
        let after = b.new_label();
        b.li(Reg::X1, 0);
        b.li(Reg::X9, 0x9000);
        b.bind_label(top);
        // if X1 < 20 skip the "secret" load, else fall through to it.
        b.li(Reg::X2, 20);
        b.blt(Reg::X1, Reg::X2, skip);
        b.load(Reg::X3, Reg::X9, 0); // executed speculatively when mispredicted
        b.jump(after);
        b.bind_label(skip);
        b.nop();
        b.bind_label(after);
        b.addi(Reg::X1, Reg::X1, 1);
        b.blt_imm(Reg::X1, 24, top);
        b.halt();
        let p = b.build().unwrap();
        let (core, _, _) = run_program(&p);
        assert!(core.stats().mispredictions > 0);
        // The functional result is unaffected by wrong-path execution.
        assert_matches_interpreter(&p, &[Reg::X1, Reg::X3]);
    }

    #[test]
    fn rdcycle_reads_increase_monotonically() {
        let mut b = ProgramBuilder::new("rdcycle");
        b.rdcycle(Reg::X1);
        b.li(Reg::X5, 0x4_0000);
        b.load(Reg::X6, Reg::X5, 0);
        b.add(Reg::X7, Reg::X6, Reg::X6);
        b.rdcycle(Reg::X2);
        b.sub(Reg::X3, Reg::X2, Reg::X1);
        b.halt();
        let p = b.build().unwrap();
        let (_, finished, _) = run_program(&p);
        let delta = finished.regs.read(Reg::X3);
        assert!(
            delta > 0,
            "the second rdcycle must observe later time than the first"
        );
        assert!((delta as i64) > 0);
    }

    #[test]
    fn atomics_are_executed_at_the_head_and_update_memory() {
        let mut b = ProgramBuilder::new("atomic");
        b.data_u64(VirtAddr::new(0x5000), &[10]);
        b.li(Reg::X1, 0x5000);
        b.li(Reg::X2, 5);
        b.amoadd(Reg::X3, Reg::X2, Reg::X1);
        b.load(Reg::X4, Reg::X1, 0);
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X3, Reg::X4]);
        let (_, finished, _) = run_program(&p);
        assert_eq!(finished.regs.read(Reg::X3), 10);
        assert_eq!(finished.regs.read(Reg::X4), 15);
    }

    #[test]
    fn spec_barrier_and_syscall_programs_complete() {
        let mut b = ProgramBuilder::new("serialising");
        b.li(Reg::X1, 1);
        b.spec_barrier();
        b.addi(Reg::X1, Reg::X1, 1);
        b.syscall(7);
        b.addi(Reg::X1, Reg::X1, 1);
        b.sandbox_enter();
        b.addi(Reg::X1, Reg::X1, 1);
        b.sandbox_exit();
        b.halt();
        let p = b.build().unwrap();
        assert_matches_interpreter(&p, &[Reg::X1]);
    }

    #[test]
    fn core_reports_committed_events() {
        let mut b = ProgramBuilder::new("events");
        b.syscall(3);
        b.sandbox_enter();
        b.sandbox_exit();
        b.halt();
        let p = b.build().unwrap();
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        core.swap_thread(Some(ThreadContext::new(p, 0)));
        let mut seen = Vec::new();
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            core.tick(now, &mut mem, &mut seen);
            now += 1;
        }
        assert_eq!(
            seen,
            vec![
                CoreEvent::Syscall(3),
                CoreEvent::SandboxEnter,
                CoreEvent::SandboxExit,
                CoreEvent::Halted
            ]
        );
    }

    #[test]
    fn ipc_is_positive_and_bounded_by_width() {
        let mut b = ProgramBuilder::new("ipc");
        let top = b.new_label();
        b.li(Reg::X1, 0);
        b.bind_label(top);
        for _ in 0..8 {
            b.addi(Reg::X2, Reg::X2, 1);
        }
        b.addi(Reg::X1, Reg::X1, 1);
        b.blt_imm(Reg::X1, 200, top);
        b.halt();
        let p = b.build().unwrap();
        let (core, _, _) = run_program(&p);
        let ipc = core.stats().ipc();
        assert!(
            ipc > 0.5,
            "simple ALU loop should achieve reasonable IPC, got {ipc}"
        );
        assert!(ipc <= 8.0, "IPC cannot exceed the commit width");
    }

    #[test]
    fn fast_forward_matches_the_naive_loop_exactly() {
        // The event-skipping loop must be invisible: same halt cycle, same
        // statistics, same architectural state, on a workload that mixes
        // memory stalls (idle stretches to skip), mispredicted branches,
        // serialising instructions and store-to-load forwarding.
        let mut b = ProgramBuilder::new("ff-equivalence");
        let values: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) % 13).collect();
        b.data_u64(VirtAddr::new(0x6_0000), &values);
        let top = b.new_label();
        let skip = b.new_label();
        b.li(Reg::X1, 0x6_0000);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 0);
        b.bind_label(top);
        b.shli(Reg::X4, Reg::X2, 3);
        b.add(Reg::X4, Reg::X1, Reg::X4);
        b.load(Reg::X5, Reg::X4, 0);
        b.store(Reg::X5, Reg::X4, 512);
        b.load(Reg::X6, Reg::X4, 512);
        b.li(Reg::X7, 6);
        b.blt(Reg::X6, Reg::X7, skip);
        b.addi(Reg::X3, Reg::X3, 1);
        b.spec_barrier();
        b.bind_label(skip);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt_imm(Reg::X2, 64, top);
        b.halt();
        let p = b.build().unwrap();

        let (fast_core, fast_ctx, fast_cycles) = run_program(&p);
        let (naive_core, naive_ctx, naive_cycles) = run_program_naive(&p);
        assert_eq!(fast_cycles, naive_cycles, "halt cycle must be identical");
        assert_eq!(
            fast_core.stats(),
            naive_core.stats(),
            "every statistic must be identical"
        );
        assert_eq!(fast_ctx.regs.snapshot(), naive_ctx.regs.snapshot());
    }

    #[test]
    fn quiescent_ticks_report_a_wake_cycle() {
        // A load with a long fixed latency parks the core: the tick after
        // issue must be quiescent with the load's completion as the wake.
        let mut b = ProgramBuilder::new("wake");
        b.li(Reg::X1, 0x7_0000);
        b.load(Reg::X2, Reg::X1, 0);
        b.add(Reg::X3, Reg::X2, Reg::X2);
        b.halt();
        let p = b.build().unwrap();
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::new(200, 1);
        core.swap_thread(Some(ThreadContext::new(p, 0)));
        let mut events = Vec::new();
        let mut quiet_with_wake = false;
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            core.tick(now, &mut mem, &mut events);
            if core.quiescent() {
                let wake = core.next_wake(now + 1);
                assert!(wake > now, "wake must be in the future");
                if wake != Cycle::NEVER {
                    quiet_with_wake = true;
                }
            }
            now += 1;
        }
        assert!(core.is_halted());
        assert!(
            quiet_with_wake,
            "a 200-cycle load must produce quiescent ticks with a known wake"
        );
    }

    #[test]
    fn swap_thread_preserves_architectural_state() {
        let mut b = ProgramBuilder::new("first");
        b.li(Reg::X1, 77);
        b.halt();
        let p1 = b.build().unwrap();
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        core.swap_thread(Some(ThreadContext::new(p1, 0)));
        let mut events = Vec::new();
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            core.tick(now, &mut mem, &mut events);
            now += 1;
        }
        let saved = core.swap_thread(None).expect("context returned");
        assert_eq!(saved.regs.read(Reg::X1), 77);
        assert!(saved.halted);
        assert!(core.is_halted());
    }

    #[test]
    fn run_to_halt_times_out_on_infinite_loops() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.here();
        b.jump(top);
        let p = b.build().unwrap();
        let cfg = SystemConfig::paper_default();
        let mut core = OooCore::new(0, &cfg);
        let mut mem = FixedLatencyMemory::default();
        let result = core.run_to_halt(ThreadContext::new(p, 0), &mut mem, 5_000);
        assert!(result.is_err());
    }

    // --- wakeup/select -------------------------------------------------

    /// A core with `program` installed and a fixed-latency memory whose data
    /// accesses take `data_latency` cycles.
    fn core_with(program: &Program, data_latency: u64) -> (OooCore, FixedLatencyMemory) {
        let mut core = OooCore::new(0, &SystemConfig::paper_default());
        core.swap_thread(Some(ThreadContext::new(program.clone(), 0)));
        (core, FixedLatencyMemory::new(data_latency, 1))
    }

    /// One tick followed by the full wakeup-state check (which debug builds
    /// also run inside `tick`; this keeps it on under `--release` too).
    fn tick_checked(core: &mut OooCore, now: Cycle, mem: &mut dyn MemoryModel) {
        let mut events = Vec::new();
        core.tick(now, mem, &mut events);
        core.check_wakeup_state();
    }

    /// The live ROB entry fetched from instruction index `pc`, if any.
    fn entry_at_pc(core: &OooCore, pc: usize) -> Option<&RobEntry> {
        core.rob.iter().find(|e| e.pc == pc)
    }

    /// Whether the entry fetched from `pc` has left `Waiting`.
    fn issued(core: &OooCore, pc: usize) -> bool {
        entry_at_pc(core, pc).is_some_and(|e| !matches!(e.status, Status::Waiting))
    }

    /// Whether the entry fetched from `pc` is parked behind the store
    /// fetched from `store_pc`.
    fn parked_behind(core: &OooCore, pc: usize, store_pc: usize) -> bool {
        let (Some(load), Some(store)) = (entry_at_pc(core, pc), entry_at_pc(core, store_pc)) else {
            return false;
        };
        core.store_waiters.owner(core.slot(load.seq)) == Some(core.slot(store.seq))
    }

    /// (consumer seq, producer seq) for every operand wakeup link.
    fn operand_links(core: &OooCore) -> Vec<(u64, u64)> {
        let head = core.head_seq();
        let mut links = Vec::new();
        for e in core
            .rob
            .iter()
            .filter(|e| matches!(e.status, Status::Waiting))
        {
            for &p in &e.src_producers {
                if p != NO_PRODUCER && p >= head && !core.rob[(p - head) as usize].is_done() {
                    links.push((e.seq, p));
                }
            }
        }
        links
    }

    #[test]
    fn squash_mid_dependency_chain_prunes_waiters_before_sequence_reuse() {
        // Consumers of a slow load sit behind an irregular branch. When the
        // branch mispredicts, the wrong-path consumers are squashed while
        // the load (older than the branch) is still executing: they must
        // leave its wakeup list before the corrected path re-dispatches into
        // the same sequence numbers and links to the same load again.
        let mut b = ProgramBuilder::new("squash-chain");
        let values: Vec<u64> = (0..48).map(|i| i * 3 + 1).collect();
        b.data_u64(VirtAddr::new(0x1_0000), &values);
        let top = b.new_label();
        let skip = b.new_label();
        b.li(Reg::X1, 0x1_0000);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 0);
        b.li(Reg::X9, 2_654_435_761);
        b.bind_label(top);
        b.shli(Reg::X4, Reg::X2, 3);
        b.add(Reg::X4, Reg::X1, Reg::X4);
        b.load(Reg::X5, Reg::X4, 0);
        b.mul(Reg::X7, Reg::X2, Reg::X9);
        b.shri(Reg::X7, Reg::X7, 5);
        b.andi(Reg::X7, Reg::X7, 1);
        b.beq(Reg::X7, Reg::X0, skip);
        b.add(Reg::X8, Reg::X5, Reg::X5);
        b.add(Reg::X8, Reg::X8, Reg::X5);
        b.add(Reg::X3, Reg::X3, Reg::X8);
        b.bind_label(skip);
        b.add(Reg::X3, Reg::X3, Reg::X5);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt_imm(Reg::X2, 48, top);
        b.halt();
        let p = b.build().unwrap();

        let (mut core, mut mem) = core_with(&p, 20);
        let mut pruned = Vec::new(); // squashed consumer seqs of surviving producers
        let mut reused = 0;
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 100_000 {
            let links = operand_links(&core);
            let squashed_before = core.stats().squashed;
            tick_checked(&mut core, now, &mut mem);
            if core.stats().squashed > squashed_before {
                let tail = core.head_seq() + core.rob.len() as u64;
                for &(consumer, producer) in &links {
                    if consumer >= tail && producer >= core.head_seq() && producer < tail {
                        // The squash rolled `next_seq` back over the consumer.
                        assert!(core.next_seq <= consumer);
                        pruned.push(consumer);
                    }
                }
            }
            reused += pruned
                .iter()
                .filter(|&&seq| core.rob.iter().any(|e| e.seq == seq))
                .count();
            pruned.retain(|&seq| !core.rob.iter().any(|e| e.seq == seq));
            now += 1;
        }
        assert!(core.is_halted(), "program should halt");
        assert!(core.stats().mispredictions > 0);
        assert!(
            reused > 0,
            "no squashed waiter's sequence number was reused"
        );
        let finished = core.swap_thread(None).expect("thread present");
        let golden = Interpreter::new(&p)
            .run(5_000_000)
            .expect("interpreter halts");
        assert_eq!(finished.regs.read(Reg::X3), golden.regs.read(Reg::X3));
    }

    /// Runs `p` tick by tick and returns the tick at which the entry at
    /// `store_pc` issued, asserting that the load at `load_pc` was parked
    /// behind it before and issued in that very tick.
    fn assert_woken_same_cycle(p: &Program, store_pc: usize, load_pc: usize) -> u64 {
        let (mut core, mut mem) = core_with(p, 30);
        let mut was_parked = false;
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            let store_waiting = entry_at_pc(&core, store_pc).is_some() && !issued(&core, store_pc);
            tick_checked(&mut core, now, &mut mem);
            was_parked |= parked_behind(&core, load_pc, store_pc);
            if store_waiting && issued(&core, store_pc) {
                assert!(was_parked, "the load never waited for the store's address");
                assert!(
                    issued(&core, load_pc),
                    "the load woken by the store must issue in the same cycle"
                );
                return now.raw();
            }
            now += 1;
        }
        panic!("the store never issued");
    }

    #[test]
    fn load_parked_behind_a_store_issues_in_the_cycle_the_address_resolves() {
        // The store's address comes from a slow load; the younger load's
        // address is known at once, so it parks behind the store and must
        // be tried again right after the store issues, in the same cycle.
        let mut b = ProgramBuilder::new("store-wake");
        b.data_u64(VirtAddr::new(0x8000), &[0x9000, 7]);
        b.li(Reg::X1, 0x8000);
        b.li(Reg::X3, 5);
        b.load(Reg::X2, Reg::X1, 0); // pc 2: slow
        b.store(Reg::X3, Reg::X2, 0); // pc 3: address waits for pc 2
        b.load(Reg::X4, Reg::X1, 8); // pc 4: parks behind pc 3
        b.halt();
        let p = b.build().unwrap();
        assert!(assert_woken_same_cycle(&p, 3, 4) >= 30);
        assert_matches_interpreter(&p, &[Reg::X4]);
    }

    #[test]
    fn load_parked_behind_an_atomic_issues_in_the_cycle_the_atomic_executes() {
        // An atomic computes its address only when it executes at the ROB
        // head; the younger load parks behind it until then.
        let mut b = ProgramBuilder::new("atomic-wake");
        b.data_u64(VirtAddr::new(0x8000), &[10, 7]);
        b.li(Reg::X1, 0x8000);
        b.li(Reg::X5, 2);
        b.load(Reg::X2, Reg::X1, 0); // pc 2: slow, keeps the atomic off the head
        b.amoadd(Reg::X3, Reg::X5, Reg::X1); // pc 3
        b.load(Reg::X4, Reg::X1, 8); // pc 4: parks behind pc 3
        b.halt();
        let p = b.build().unwrap();
        assert!(assert_woken_same_cycle(&p, 3, 4) >= 30);
        assert_matches_interpreter(&p, &[Reg::X3, Reg::X4]);
    }

    #[test]
    fn out_of_order_store_waiters_are_all_pruned_on_squash() {
        // Three loads park behind one store in reverse dispatch order (the
        // youngest's address is ready first), then a mispredicted indirect
        // jump older than all three squashes them while the store survives.
        let target = 18;
        let mut b = ProgramBuilder::new("store-waiters-squash");
        b.data_u64(VirtAddr::new(0x8000), &[0x9000]);
        b.li(Reg::X1, 0x8000); // 0
        b.li(Reg::X9, 0x8100); // 1
        b.li(Reg::X14, 1); // 2
        b.li(Reg::X13, target as u64); // 3
        b.load(Reg::X2, Reg::X1, 0); // 4: slow
        b.store(Reg::X3, Reg::X2, 0); // 5: address waits for 4
        for _ in 0..4 {
            b.mul(Reg::X13, Reg::X13, Reg::X14); // 6-9: delay the jump
        }
        b.jump_indirect(Reg::X13, 0); // 10: first sight, predicted pc + 1
        b.mul(Reg::X8, Reg::X9, Reg::X14); // 11
        b.mul(Reg::X7, Reg::X9, Reg::X14); // 12
        b.mul(Reg::X7, Reg::X7, Reg::X14); // 13
        b.load(Reg::X10, Reg::X7, 0); // 14: ready last
        b.load(Reg::X11, Reg::X8, 8); // 15
        b.load(Reg::X12, Reg::X9, 16); // 16: ready first
        b.halt(); // 17
        assert_eq!(b.len(), target);
        b.load(Reg::X15, Reg::X9, 24); // 18: the corrected path
        b.addi(Reg::X16, Reg::X15, 1);
        b.halt();
        let p = b.build().unwrap();

        let (mut core, mut mem) = core_with(&p, 40);
        let mut parked_at = [None; 3]; // first tick each load (pc 14..=16) parked
        let mut pruned = false;
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            let squashed_before = core.stats().squashed;
            tick_checked(&mut core, now, &mut mem);
            for (i, first) in parked_at.iter_mut().enumerate() {
                if first.is_none() && parked_behind(&core, 14 + i, 5) {
                    *first = Some(now.raw());
                }
            }
            if core.stats().squashed > squashed_before && !pruned {
                pruned = true;
                let store = entry_at_pc(&core, 5).expect("the store survives the squash");
                assert!(matches!(store.status, Status::Waiting));
                assert!(
                    core.store_waiters.is_empty(core.slot(store.seq)),
                    "squashed loads left behind in the store's wait list"
                );
            }
            now += 1;
        }
        assert!(core.is_halted() && pruned);
        let [Some(l1), Some(l2), Some(l3)] = parked_at else {
            panic!("every wrong-path load must park behind the store: {parked_at:?}");
        };
        assert!(l3 < l2 && l2 < l1, "loads must park out of dispatch order");
        assert_matches_interpreter(&p, &[Reg::X15, Reg::X16]);
    }

    // --- parked accesses and head-only atomics ---------------------------

    /// A memory model that logs every `load` call and answers it from a
    /// script: a scripted address is refused for its first `refusals` polls
    /// and then takes its `latency`; any other data access takes one cycle,
    /// and each instruction-cache line `fetch_latency` cycles.
    struct ScriptedMemory {
        /// `(address, refusals left, latency once accepted)`.
        script: Vec<(u64, u32, u64)>,
        fetch_latency: u64,
        /// `(address, when)` of every load call, in call order.
        loads: Vec<(u64, Cycle)>,
    }

    impl ScriptedMemory {
        fn new(script: &[(u64, u32, u64)]) -> Self {
            ScriptedMemory {
                script: script.to_vec(),
                fetch_latency: 1,
                loads: Vec::new(),
            }
        }

        /// The cycles at which `addr` was loaded, in call order.
        fn calls_to(&self, addr: u64) -> Vec<u64> {
            let calls = self.loads.iter().filter(|(a, _)| *a == addr);
            calls.map(|(_, when)| when.raw()).collect()
        }
    }

    impl MemoryModel for ScriptedMemory {
        fn name(&self) -> &str {
            "scripted"
        }

        fn fetch_instruction(&mut self, _ctx: &MemAccessCtx) -> MemOutcome {
            MemOutcome::Done {
                latency: self.fetch_latency,
            }
        }

        fn load(&mut self, ctx: &MemAccessCtx) -> MemOutcome {
            let addr = ctx.vaddr.raw();
            self.loads.push((addr, ctx.when));
            match self.script.iter_mut().find(|(a, _, _)| *a == addr) {
                Some((_, refusals, _)) if *refusals > 0 => {
                    *refusals -= 1;
                    MemOutcome::RetryWhenNonSpeculative
                }
                Some(&mut (_, _, latency)) => MemOutcome::Done { latency },
                None => MemOutcome::Done { latency: 1 },
            }
        }

        fn store_address_ready(&mut self, _ctx: &MemAccessCtx) {}

        fn commit_access(&mut self, _ctx: &MemAccessCtx) -> u64 {
            0
        }

        fn on_squash(&mut self, _core: usize, _when: Cycle) {}

        fn on_domain_switch(&mut self, _core: usize, _kind: DomainSwitch, _when: Cycle) {}

        fn stats(&self) -> StatSet {
            StatSet::new()
        }
    }

    /// What ticking a program to its halt under a [`ScriptedMemory`] saw.
    /// The per-pc cycles are the first at whose end the entry fetched from
    /// that pc was in the ROB, had left `Waiting`, was `Done`, headed the ROB.
    struct ScriptedRun {
        mem: ScriptedMemory,
        stats: CoreStats,
        dispatched_at: Vec<Option<u64>>,
        issued_at: Vec<Option<u64>>,
        done_at: Vec<Option<u64>>,
        head_at: Vec<Option<u64>>,
    }

    fn run_scripted(p: &Program, mut mem: ScriptedMemory) -> ScriptedRun {
        let mut core = OooCore::new(0, &SystemConfig::paper_default());
        core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
        let mut at = vec![vec![None; p.len()]; 4];
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            tick_checked(&mut core, now, &mut mem);
            for (idx, e) in core.rob.iter().enumerate() {
                let seen = [
                    true,
                    !matches!(e.status, Status::Waiting),
                    e.is_done(),
                    idx == 0,
                ];
                for (cycles, seen) in at.iter_mut().zip(seen) {
                    if seen {
                        cycles[e.pc].get_or_insert(now.raw());
                    }
                }
            }
            now += 1;
        }
        assert!(core.is_halted(), "program should halt");
        let finished = core.swap_thread(None).expect("thread present");
        let golden = Interpreter::new(p)
            .run(1_000_000)
            .expect("interpreter halts");
        assert_eq!(finished.regs.snapshot(), golden.regs.snapshot());
        let [dispatched_at, issued_at, done_at, head_at] = <[_; 4]>::try_from(at).unwrap();
        ScriptedRun {
            mem,
            stats: core.stats().clone(),
            dispatched_at,
            issued_at,
            done_at,
            head_at,
        }
    }

    /// Consecutive cycles starting at `first`.
    fn streak(first: u64, len: usize) -> Vec<u64> {
        (first..first + len as u64).collect()
    }

    #[test]
    fn a_parked_load_is_polled_once_per_cycle_until_accepted() {
        // A slow load holds the head so the load behind it stays
        // speculative; the model refuses that one 6 times.
        let mut b = ProgramBuilder::new("parked-load");
        b.data_u64(VirtAddr::new(0x8000), &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
        b.li(Reg::X1, 0x8000); // 0
        b.load(Reg::X9, Reg::X1, 64); // 1: slow head
        b.load(Reg::X2, Reg::X1, 0); // 2: refused 6 times
        b.add(Reg::X3, Reg::X2, Reg::X9); // 3
        b.halt();
        let p = b.build().unwrap();
        let run = run_scripted(&p, ScriptedMemory::new(&[(0x8040, 0, 40), (0x8000, 6, 5)]));
        let calls = run.mem.calls_to(0x8000);
        assert_eq!(calls, streak(calls[0], 7), "one poll per cycle");
        assert_eq!(run.stats.mem_retries, 6);
        let accepted = calls[6];
        assert_eq!(
            run.done_at[2],
            Some(accepted + 5),
            "done at acceptance + latency"
        );
        assert!(
            accepted < run.done_at[1].unwrap(),
            "accepted while speculative"
        );
    }

    #[test]
    fn two_parked_loads_are_polled_in_sequence_order() {
        let mut b = ProgramBuilder::new("two-parked");
        b.data_u64(VirtAddr::new(0x8000), &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
        b.li(Reg::X1, 0x8000); // 0
        b.load(Reg::X9, Reg::X1, 64); // 1: slow head
        b.load(Reg::X2, Reg::X1, 8); // 2: refused 3 times
        b.load(Reg::X4, Reg::X1, 0); // 3: refused 5 times
        b.add(Reg::X3, Reg::X2, Reg::X4); // 4
        b.halt();
        let p = b.build().unwrap();
        let run = run_scripted(
            &p,
            ScriptedMemory::new(&[(0x8040, 0, 40), (0x8008, 3, 2), (0x8000, 5, 2)]),
        );
        let (older, younger) = (run.mem.calls_to(0x8008), run.mem.calls_to(0x8000));
        assert_eq!(older, streak(older[0], 4));
        assert_eq!(younger, streak(older[0], 6));
        assert_eq!(run.stats.mem_retries, 8);
        // While both are parked, each cycle polls the older one first.
        let order: Vec<u64> = run.mem.loads.iter().map(|&(a, _)| a).collect();
        let first = order.iter().position(|&a| a == 0x8008).unwrap();
        assert_eq!(
            order[first..first + 8],
            [0x8008, 0x8000].repeat(4),
            "polls out of sequence order"
        );
    }

    #[test]
    fn a_completion_mid_streak_keeps_the_poll_once_per_cycle() {
        // The slow head finishes while the load behind it is still refused:
        // the poll goes on once per cycle, through the cycles the head
        // completes and commits, and then non-speculatively.
        let mut b = ProgramBuilder::new("streak-completion");
        b.data_u64(VirtAddr::new(0x8000), &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
        b.li(Reg::X1, 0x8000); // 0
        b.load(Reg::X9, Reg::X1, 64); // 1: slow head
        b.load(Reg::X2, Reg::X1, 0); // 2: refused 30 times
        b.add(Reg::X3, Reg::X2, Reg::X9); // 3
        b.halt();
        let p = b.build().unwrap();
        let run = run_scripted(&p, ScriptedMemory::new(&[(0x8040, 0, 12), (0x8000, 30, 3)]));
        let calls = run.mem.calls_to(0x8000);
        assert_eq!(calls, streak(calls[0], 31));
        assert_eq!(run.stats.mem_retries, 30);
        let head_done = run.done_at[1].expect("the head completes");
        assert!(calls[0] < head_done && head_done < calls[30]);
        assert_eq!(run.done_at[2], Some(calls[30] + 3));
    }

    #[test]
    fn work_fetched_during_a_poll_streak_issues_on_the_next_cycle() {
        // Instruction-cache lines take 4 cycles, so the last fetch group
        // arrives while the load is parked and nothing else is left to
        // issue: the group issues on the next cycle, alongside the poll,
        // instead of waiting for the streak to end.
        let mut b = ProgramBuilder::new("fetch-mid-streak");
        b.data_u64(VirtAddr::new(0x8000), &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
        b.li(Reg::X1, 0x8000); // 0
        b.load(Reg::X9, Reg::X1, 64); // 1: slow head
        b.load(Reg::X2, Reg::X1, 0); // 2: refused 40 times
        b.add(Reg::X3, Reg::X2, Reg::X9); // 3
        for i in 4..38 {
            b.addi(Reg::X10, Reg::X0, i); // 4..37; the last line starts at 32
        }
        b.halt(); // 38
        let p = b.build().unwrap();
        let mem = ScriptedMemory {
            fetch_latency: 4,
            ..ScriptedMemory::new(&[(0x8040, 0, 60), (0x8000, 40, 2)])
        };
        let run = run_scripted(&p, mem);
        let calls = run.mem.calls_to(0x8000);
        assert_eq!(calls, streak(calls[0], 41));
        let last_group = run.dispatched_at[32].unwrap();
        assert!(calls[0] < last_group && last_group < calls[40]);
        for pc in 32..38 {
            assert_eq!(run.issued_at[pc], Some(last_group + 1), "pc {pc}");
        }
    }

    #[test]
    fn an_atomic_makes_its_memory_call_when_it_becomes_the_head() {
        let mut b = ProgramBuilder::new("atomic-at-head");
        b.data_u64(VirtAddr::new(0x8000), &[10, 0, 0, 0, 0, 0, 0, 0, 99]);
        b.li(Reg::X1, 0x8000); // 0
        b.li(Reg::X5, 2); // 1
        b.load(Reg::X2, Reg::X1, 64); // 2: slow, holds the head
        for _ in 0..40 {
            b.nop(); // 3..43: the atomic is dispatched once its operands are ready
        }
        b.amoadd(Reg::X3, Reg::X5, Reg::X1); // 43
        b.halt();
        let p = b.build().unwrap();
        let run = run_scripted(&p, ScriptedMemory::new(&[(0x8040, 0, 30)]));
        let became_head = run.head_at[43].expect("the atomic reaches the head");
        assert!(became_head > run.done_at[2].unwrap());
        assert_eq!(run.mem.calls_to(0x8000), vec![became_head]);
    }

    // --- issue window walk ----------------------------------------------

    /// A program whose slow load, at instruction `load_pc`, sits at the ROB
    /// head while `waiters` dependents of it fill the ROB behind it, with a
    /// speculation barrier before dependent number `barrier_at`, if any.
    fn stalled_window(load_pc: usize, waiters: usize, barrier_at: Option<usize>) -> Program {
        let mut b = ProgramBuilder::new("stalled-window");
        b.data_u64(VirtAddr::new(0x8000), &[5]);
        b.li(Reg::X1, 0x8000);
        for _ in 1..load_pc {
            b.nop();
        }
        b.load(Reg::X2, Reg::X1, 0);
        for i in 0..waiters {
            if barrier_at == Some(i) {
                b.spec_barrier();
            }
            b.addi(Reg::X3, Reg::X2, i as i64);
        }
        b.halt();
        b.build().unwrap()
    }

    /// Runs `p` tick by tick on a core with `rob` ROB entries and an
    /// `iq`-entry issue window, checks the result against the interpreter,
    /// and returns each distinct `(head slot, end slot, ends at a serialising
    /// entry)` of an issue window that ended before the ROB tail. Every
    /// issue stage checks its word walk against the ROB-walk oracle.
    fn window_ends(p: &Program, rob: usize, iq: usize) -> Vec<(usize, usize, bool)> {
        let mut cfg = SystemConfig::paper_default();
        cfg.pipeline.rob_entries = rob;
        cfg.pipeline.iq_entries = iq;
        let mut core = OooCore::new(0, &cfg);
        core.swap_thread(Some(ThreadContext::new(p.clone(), 0)));
        let mut mem = FixedLatencyMemory::new(300, 1);
        let mut ends = Vec::new();
        let mut now = Cycle::ZERO;
        while !core.is_halted() && now.raw() < 10_000 {
            let (head, end) = (core.head_seq(), core.window_end_by_rob_walk());
            if end < head + core.rob.len() as u64 {
                let serial = core.rob[(end - head) as usize].inst.is_serialising();
                let seen = (core.slot(head), core.slot(end), serial);
                if !ends.contains(&seen) {
                    ends.push(seen);
                }
            }
            tick_checked(&mut core, now, &mut mem);
            now += 1;
        }
        let finished = core.swap_thread(None).expect("thread present");
        let golden = Interpreter::new(p)
            .run(1_000_000)
            .expect("interpreter halts");
        assert_eq!(finished.regs.snapshot(), golden.regs.snapshot());
        ends
    }

    #[test]
    fn window_cutoff_falls_in_the_wrapped_second_chunk() {
        // The load heads the ROB at slot 201 of the 256-slot ring, so 54
        // Waiting entries fill the rest of its word and the 65th Waiting
        // entry lies at slot 10, past the wrap.
        let ends = window_ends(&stalled_window(201, 190, None), 192, 64);
        assert!(ends.contains(&(201, 10, false)), "{ends:?}");
    }

    #[test]
    fn serialising_limit_falls_in_the_wrapped_second_chunk() {
        // As above with a window larger than the ROB, and a barrier as the
        // 75th entry past the head, at slot 20 past the wrap.
        let ends = window_ends(&stalled_window(201, 190, Some(74)), 192, 192);
        assert!(ends.contains(&(201, 20, true)), "{ends:?}");
    }

    #[test]
    fn windows_of_64_and_65_entries_end_at_the_start_of_the_next_word() {
        // The load heads the ROB at slot 63, so the Waiting entries start on
        // a word boundary: a 64-entry window fills word 1 exactly and ends at
        // bit 0 of word 2, a 65-entry one at bit 1.
        let p = stalled_window(63, 150, None);
        let ends = window_ends(&p, 192, 64);
        assert!(ends.contains(&(63, 128, false)), "{ends:?}");
        let ends = window_ends(&p, 192, 65);
        assert!(ends.contains(&(63, 129, false)), "{ends:?}");
    }

    #[test]
    fn stats_convert_to_stat_set() {
        let mut b = ProgramBuilder::new("stats");
        b.li(Reg::X1, 1);
        b.halt();
        let p = b.build().unwrap();
        let (core, _, _) = run_program(&p);
        let mut set = StatSet::new();
        core.stats().export(&mut set, "core0");
        assert!(set.counter("core0.committed") >= 2);
        assert_eq!(set.counter("core0.mem_retries"), 0);
        assert_eq!(
            set.iter_counters().count(),
            9,
            "every counter is exported, zeros included"
        );
    }
}
