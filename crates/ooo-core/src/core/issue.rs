//! Issue: wakeup/select, operand gather, memory disambiguation and the
//! memory access itself.
//!
//! Issue never rescans its window. Per-slot bitsets (see the `wakeup`
//! module) mark Waiting, operand-ready and parked entries. A consumer is
//! linked at dispatch into the wakeup list of each unfinished producer and
//! becomes ready when the last one turns `Done`; a load that finds an older
//! store with an unknown address is linked behind that store and woken when
//! the store (or atomic) gets its address; an atomic, which executes only at
//! the ROB head, becomes ready only once it is the head with its operands
//! ready. The stage is one walk over the slot ring, a 64-slot word at a time
//! from the head: in each word it finds where the window ends, if it does —
//! the first serialising instruction past the head or the `iq_entries +
//! 1`-th Waiting entry, one popcount per word and one bit select where the
//! budget runs out — and visits the ready and parked candidates before it in
//! sequence order. It reads the candidate bits live, so a load woken by an
//! older store that issued earlier in the same cycle is still tried in that
//! cycle — the same order a full window scan would try it in. A parked
//! access re-polls the memory model from its stored address on every cycle
//! it lies in the window, skipping the operand gather and the store-queue
//! walk.

use simkit::addr::VirtAddr;
use simkit::cycles::Cycle;

use uarch_isa::inst::{eval_alu, eval_branch, eval_fpu, InstClass, Instruction, MemWidth};
use uarch_isa::reg::Reg;

use super::{OooCore, Rob, Status};
use crate::memmodel::{MemAccessCtx, MemOutcome, MemoryModel};
use crate::wakeup::select;

impl OooCore {
    /// Attempts to start execution of ready instructions. Returns whether any
    /// instruction issued or any parked memory access re-polled the memory
    /// model (both make the cycle non-quiescent).
    ///
    /// Equivalent to walking the ROB from the head, trying every Waiting
    /// and Parked entry until `width` issue (a poll spends an issue slot and
    /// a memory port whether or not it is accepted), and stopping at the
    /// window end counted at the start of the stage (see
    /// [`window_cut`](Self::window_cut)). A Waiting entry that is not ready
    /// would be refused without side effects, so only the `ready | retry`
    /// bits are visited, one slot word at a time; the live word is re-read
    /// after every candidate because issuing a store wakes the younger loads
    /// parked behind it. A word's cut is found only when the walk reaches
    /// it, which gives the stage-start window: issue clears only bits the
    /// walk has passed, and wakeups set only ready bits.
    pub(super) fn issue_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        if self.waiting_count + self.retry_count == 0 {
            return false;
        }
        #[cfg(any(test, debug_assertions))]
        let expected_end = self.window_end_by_rob_walk();
        let (head, tail) = (self.rob.head(), self.rob.tail());
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
                let slot = self.rob.slot(seq);

                if self.retry_bits.get(slot) {
                    // A parked memory access: the memory model re-evaluates
                    // its condition (at the head it is non-speculative and
                    // must succeed). The poll reaches the memory model, so a
                    // cycle with a parked access in the window is never
                    // quiescent.
                    issued += 1;
                    mem_ports_used += 1;
                    self.poll(seq, now, mem);
                    continue;
                }

                // Functional unit availability.
                let class = self.rob[seq].inst.class();
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
                if self.try_issue_at(seq, now, mem) {
                    issued += 1;
                    self.waiting_count -= 1;
                    self.waiting_bits.clear(slot);
                    self.ready_bits.clear(slot);
                    if self.rob[seq].is_parked() {
                        // The memory model refused the access: it left
                        // Waiting but remains a candidate.
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
        let first_slot = self.rob.slot(from);
        let (w, first_bit) = (first_slot / 64, first_slot % 64);
        let ring_left = self.rob.slots() - first_slot;
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
    /// and of [`ready_in_window`](Self::ready_in_window).
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
    pub(super) fn ready_in_window(&self) -> bool {
        if self.ready_bits.is_empty() {
            return false;
        }
        let (head, tail) = (self.rob.head(), self.rob.tail());
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

    /// Wakes the loads parked behind the store (or atomic) `seq`, which just
    /// computed its address. They are tried again — this same cycle, if the
    /// issue stage has not passed them yet.
    fn wake_loads(&mut self, seq: u64) {
        let slot = self.rob.slot(seq);
        let ready = &mut self.ready_bits;
        self.store_waiters.drain(slot, |load| ready.set(load));
    }

    /// Parks the Waiting load `load_seq` behind the older store `store_seq`,
    /// whose address is still unknown: the load leaves the ready set until
    /// the store wakes it.
    fn park_behind_store(&mut self, load_seq: u64, store_seq: u64) {
        let (load, store) = (self.rob.slot(load_seq), self.rob.slot(store_seq));
        self.ready_bits.clear(load);
        self.store_waiters.link(store, load);
    }

    /// The value of source register `reg` as seen through its dispatch-time
    /// producer link: the linked in-flight producer's result once it is done,
    /// the architectural register if the producer already committed (or none
    /// existed), `None` while the producer is still executing.
    fn operand_value(&self, reg: Reg, producer_seq: u64) -> Option<u64> {
        if reg.is_zero() {
            return Some(0);
        }
        if self.rob.contains(producer_seq) {
            let producer = &self.rob[producer_seq];
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

    /// Attempts to execute entry `seq`. Returns whether it started (or
    /// completed) execution this cycle.
    fn try_issue_at(&mut self, seq: u64, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        let inst = self.rob[seq].inst;
        let head = self.rob.head();
        let class = inst.class();

        // Serialising instructions and atomics execute only at the ROB head:
        // one past the head ends the issue window, and an atomic is ready
        // only at the head.
        debug_assert!(
            seq == head || !(inst.is_serialising() || matches!(class, InstClass::Atomic)),
            "a head-only instruction visited past the head"
        );
        // A cycle-counter read waits until every older instruction has
        // finished so it observes an accurate time (like lfence; rdtsc). The
        // done-prefix counter answers "are all older entries done?" in O(1).
        if matches!(inst, Instruction::ReadCycle { .. }) && head + (self.done_prefix as u64) < seq {
            return false;
        }

        // Gather operand values through the dispatch-time producer links.
        let (src_regs, num_sources) = inst.source_regs();
        let links = self.rob[seq].src_producers;
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
                self.issue_memory(seq, now, mem, operands)
            }
            _ => {
                self.issue_non_memory(seq, now, operands);
                true
            }
        }
    }

    /// Starts entry `seq` executing until `done_at` and queues its
    /// completion ticket.
    fn execute_until(&mut self, seq: u64, done_at: Cycle) {
        self.rob[seq].status = Status::Executing(done_at);
        self.completion_q.push(done_at, seq);
    }

    fn issue_non_memory(&mut self, seq: u64, now: Cycle, operands: &[u64]) {
        let entry = &mut self.rob[seq];
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
        self.execute_until(seq, now.saturating_add(latency));
    }

    fn issue_memory(
        &mut self,
        seq: u64,
        now: Cycle,
        mem: &mut dyn MemoryModel,
        operands: &[u64],
    ) -> bool {
        let inst = self.rob[seq].inst;
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
        let mut forwarded_value = None;
        if self.rob[seq].is_load() {
            if let Some(store_seq) = self.conflicting_older_store(seq, addr) {
                let store = &self.rob[store_seq];
                if store.mem_addr.is_none() {
                    // Unknown older store address: wait until that store
                    // computes it.
                    self.park_behind_store(seq, store_seq);
                    return false;
                }
                forwarded_value = store.store_data;
            }
        }

        if self.rob[seq].is_store() {
            // The address is known from here on.
            self.wake_loads(seq);
        }
        let entry = &mut self.rob[seq];
        entry.mem_addr = Some(addr);
        entry.store_data = data;
        self.access_memory(seq, now, mem, forwarded_value);
        true
    }

    /// The youngest in-flight store older than entry `seq` that a load from
    /// `addr` must respect: one whose address is still unknown (the load
    /// waits for it) or one to `addr` (the load forwards from it). Only the
    /// in-flight stores are walked, youngest first, not every older entry.
    fn conflicting_older_store(&self, seq: u64, addr: VirtAddr) -> Option<u64> {
        let older = self.store_seqs.partition_point(|&s| s < seq);
        self.store_seqs
            .range(..older)
            .rev()
            .copied()
            .find(|&store_seq| {
                let store = &self.rob[store_seq];
                debug_assert!(store.is_store());
                store.mem_addr.is_none_or(|a| a == addr)
            })
    }

    /// Re-polls the memory model for the parked load (or head atomic)
    /// `seq`; an access the model accepts leaves the retry set. A
    /// parked load passed disambiguation
    /// (every older store had a known, different address) and older stores
    /// can only commit since, so the poll starts from the stored address;
    /// speculation, branch and taint state are recomputed by
    /// [`access_memory`](Self::access_memory).
    fn poll(&mut self, seq: u64, now: Cycle, mem: &mut dyn MemoryModel) {
        let addr = self.rob[seq]
            .mem_addr
            .expect("a parked access has its address");
        debug_assert!(
            self.conflicting_older_store(seq, addr).is_none(),
            "a parked access gained an older conflicting store"
        );
        debug_assert!(
            seq == self.rob.head() || matches!(self.rob[seq].inst.class(), InstClass::Load)
        );
        self.access_memory(seq, now, mem, None);
        if !self.rob[seq].is_parked() {
            let slot = self.rob.slot(seq);
            self.retry_bits.clear(slot);
            self.retry_count -= 1;
        }
    }

    /// Issues the memory side of the operation `seq`, whose address and
    /// store data are recorded: a store notifies the memory
    /// model; a load completes from `forwarded` or through the memory model,
    /// which may park it.
    fn access_memory(
        &mut self,
        seq: u64,
        now: Cycle,
        mem: &mut dyn MemoryModel,
        forwarded: Option<u64>,
    ) {
        let entry = &self.rob[seq];
        let (inst, pc) = (entry.inst, entry.pc);
        let addr = entry.mem_addr.expect("memory op has an address");
        let (data, is_store) = (entry.store_data, entry.is_store());
        let under_unresolved_branch = self.has_older_unresolved_branch(seq);
        let (addr_tainted_spectre, addr_tainted_future) = if mem.needs_taint_tracking() {
            self.address_taint(seq)
        } else {
            (false, false)
        };
        let ctx = MemAccessCtx {
            speculative: seq != self.rob.head(),
            under_unresolved_branch,
            addr_tainted_spectre,
            addr_tainted_future,
            ..self.access_ctx(addr, self.pc_addr(pc), now, is_store)
        };

        if matches!(inst.class(), InstClass::Store) {
            // Stores execute (compute address/data) without touching the
            // cache; the write happens at commit. Tell the memory model so it
            // can prefetch the line in shared state if it wants.
            self.execute_until(seq, now.saturating_add(1));
            mem.store_address_ready(&ctx);
            return;
        }
        if let Some(value) = forwarded {
            // Store-to-load forwarding: 1-cycle, no cache access.
            self.rob[seq].result = Some(value);
            self.execute_until(seq, now.saturating_add(1));
            return;
        }
        match mem.load(&ctx) {
            MemOutcome::Done { latency } => {
                // The functional read happens now (execute-at-issue). An
                // atomic also performs its read-modify-write now; it runs
                // only at the ROB head, so this is never speculative.
                let memory = &self.thread.as_ref().expect("running thread").memory;
                let width = match inst {
                    Instruction::Load { width, .. } => width,
                    _ => MemWidth::Double,
                };
                let loaded = memory.borrow().read(addr, width);
                if matches!(inst.class(), InstClass::Atomic) {
                    let new_value = match inst {
                        Instruction::AtomicSwap { .. } => data.unwrap_or(0),
                        Instruction::AtomicAdd { .. } => loaded.wrapping_add(data.unwrap_or(0)),
                        _ => unreachable!(),
                    };
                    memory.borrow_mut().write(addr, new_value, MemWidth::Double);
                    self.rob[seq].store_data = Some(new_value);
                }
                self.rob[seq].result = Some(loaded);
                self.execute_until(seq, now.saturating_add(latency.max(1)));
            }
            MemOutcome::RetryWhenNonSpeculative => {
                self.stats.mem_retries += 1;
                self.rob[seq].status = Status::Parked;
            }
        }
    }

    /// Computes the taint of entry `seq`'s address operands for speculative
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
    fn address_taint(&mut self, seq: u64) -> (bool, bool) {
        let mut spectre = false;
        let mut future = false;
        let head = self.rob.head();
        let mut worklist = std::mem::take(&mut self.taint_stack);
        let mut visited = std::mem::take(&mut self.taint_visited);
        worklist.clear();
        visited.clear();
        visited.resize((seq - head) as usize, false);

        let push_links = |rob: &Rob, at: u64, worklist: &mut Vec<u64>| {
            let (src_regs, num_sources) = rob[at].inst.source_regs();
            let links = rob[at].src_producers;
            for slot in 0..num_sources {
                if !src_regs[slot].is_zero() && rob.contains(links[slot]) {
                    worklist.push(links[slot]);
                }
            }
        };
        push_links(&self.rob, seq, &mut worklist);

        while let Some(producer) = worklist.pop() {
            let offset = (producer - head) as usize;
            if visited[offset] {
                continue;
            }
            visited[offset] = true;
            if self.rob[producer].is_load() {
                if self.has_older_unresolved_branch(producer) {
                    spectre = true;
                }
                if producer != head {
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

    /// Whether any control-flow instruction older than sequence number `seq`
    /// has not yet resolved (finished executing). Answered from the ordered queue of
    /// unresolved control-flow sequence numbers: resolved or departed fronts
    /// are lazily popped, after which the front *is* the oldest unresolved
    /// branch.
    pub(super) fn has_older_unresolved_branch(&mut self, seq: u64) -> bool {
        while let Some(&branch) = self.branch_seqs.front() {
            // A departed branch committed, so it had resolved.
            if !self.rob.contains(branch) || self.rob[branch].is_done() {
                self.branch_seqs.pop_front();
                continue;
            }
            return branch < seq;
        }
        false
    }
}
