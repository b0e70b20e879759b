//! Complete: writeback, branch resolution and the squash.
//!
//! The stage is driven by the completion-ticket heap: only the tickets due
//! this cycle are popped, so it costs O(completions · log ROB) instead of a
//! full ROB scan. A finished entry extends the **done-prefix counter** — the
//! length of the contiguous finished prefix at the ROB head — which makes
//! commit-readiness and the `rdcycle` "all older instructions done" gate
//! O(1), and drains its operand wakeup list. A mispredicted branch squashes
//! every younger entry and prunes exactly the removed entries' wakeup state
//! before the corrected path reuses their sequence numbers.

use simkit::cycles::Cycle;

use uarch_isa::inst::{InstClass, Instruction};
use uarch_isa::reg::NUM_REGS;

use super::{OooCore, Status, NO_PRODUCER};
use crate::branch::BranchUpdate;
use crate::memmodel::MemoryModel;

impl OooCore {
    /// Whether the completion ticket `(at, seq)` names live work: its entry
    /// is still in the ROB and executing until exactly `at`. A squash leaves
    /// the tickets of the entries it removes behind, and the corrected path
    /// reuses their sequence numbers. (A stale ticket that collides with a
    /// reused sequence number *and* its new completion time merely completes
    /// an entry that is genuinely due; the entry's own ticket then pops as a
    /// harmless duplicate.)
    fn ticket_live(&self, at: Cycle, seq: u64) -> bool {
        self.rob.contains(seq) && self.rob[seq].status == Status::Executing(at)
    }

    /// Moves finished executions to `Done`, oldest first, resolving branches.
    /// Returns whether any entry changed state (squashes included).
    ///
    /// Afterwards it pops the stale tickets off the heap top, so the heap
    /// minimum, which the sleep rule reads, names live work.
    pub(super) fn complete_stage(&mut self, now: Cycle, mem: &mut dyn MemoryModel) -> bool {
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        while let Some((at, seq)) = self.completion_q.pop_due(now) {
            if self.ticket_live(at, seq) {
                due.push(seq);
            }
        }
        // Process in program order: the done prefix extends front-to-back and
        // the *oldest* mispredicted branch must be the one that squashes.
        due.sort_unstable();
        due.dedup();
        let head = self.rob.head();
        let mut squash_after: Option<(u64, usize)> = None; // (seq, redirect pc)
        for &seq in due.iter() {
            self.rob[seq].status = Status::Done;
            self.wake_consumers(seq);
            if seq == head + self.done_prefix as u64 {
                // Extend the done prefix over this entry and any previously
                // finished entries it unblocks.
                self.done_prefix += 1;
                while self.done_prefix < self.rob.len()
                    && self.rob[head + self.done_prefix as u64].is_done()
                {
                    self.done_prefix += 1;
                }
            }
            if self.rob[seq].is_branch() {
                let (mispredicted, redirect) = self.resolve_branch(seq);
                if mispredicted {
                    // Younger due entries stay `Executing`; the squash below
                    // removes them.
                    squash_after = Some((seq, redirect));
                    break;
                }
            }
        }
        let transitions = !due.is_empty();
        self.due_scratch = due;
        if let Some((seq, redirect)) = squash_after {
            self.squash_younger_than(seq, redirect, now, mem);
        }
        while let Some((at, seq)) = self.completion_q.peek() {
            if self.ticket_live(at, seq) {
                break;
            }
            self.completion_q.pop_due(at);
        }
        transitions
    }

    /// Wakes the consumers linked to the producer `seq`, which just turned
    /// `Done`: a consumer whose last unfinished producer this was becomes
    /// ready.
    ///
    /// An atomic is left for the commit stage to wake: its producer is
    /// older and still in the ROB, so the atomic is not the head.
    fn wake_consumers(&mut self, seq: u64) {
        let slot = self.rob.slot(seq);
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

    /// Resolves the control-flow instruction `seq`. Returns whether it was
    /// mispredicted and the correct next instruction index.
    fn resolve_branch(&mut self, seq: u64) -> (bool, usize) {
        let entry = &self.rob[seq];
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

    /// Squashes every ROB entry younger than `seq` and redirects fetch.
    fn squash_younger_than(
        &mut self,
        seq: u64,
        redirect: usize,
        now: Cycle,
        mem: &mut dyn MemoryModel,
    ) {
        let end = seq + 1;
        if end < self.rob.tail() {
            for e in self.rob.range(end) {
                self.stats.squashed += 1;
                if e.is_load() && !matches!(e.status, Status::Waiting) {
                    self.stats.squashed_loads += 1;
                }
                if e.is_load() {
                    self.loads_in_flight -= 1;
                }
                // Completion tickets of removed entries go stale in the heap;
                // the issue-candidate sets and the wakeup lists must be pruned
                // eagerly — the slots are reused by the corrected path. A
                // removed entry's own lists hold only younger (also removed)
                // waiters, so unlinking every removed node empties them too.
                let slot = self.rob.slot(e.seq);
                match e.status {
                    Status::Waiting => {
                        self.waiting_count -= 1;
                        self.waiting_bits.clear(slot);
                        self.ready_bits.clear(slot);
                    }
                    Status::Parked => {
                        self.retry_count -= 1;
                        self.retry_bits.clear(slot);
                    }
                    _ => {}
                }
                self.operand_waiters.unlink(2 * slot);
                self.operand_waiters.unlink(2 * slot + 1);
                self.store_waiters.unlink(slot);
            }
            // The corrected path reuses the squashed sequence numbers, so the
            // ROB stays contiguous in them.
            self.rob.truncate(end);
            self.done_prefix = self.done_prefix.min(self.rob.len());
            while self.store_seqs.back().is_some_and(|&s| s > seq) {
                self.store_seqs.pop_back();
            }
            while self.branch_seqs.back().is_some_and(|&s| s > seq) {
                self.branch_seqs.pop_back();
            }
            // Roll the scoreboard back to the youngest surviving producers.
            self.reg_producer = [NO_PRODUCER; NUM_REGS];
            for e in self.rob.iter() {
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
}
