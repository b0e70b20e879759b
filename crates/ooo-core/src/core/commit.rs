//! Commit: retires finished entries from the ROB head in program order.
//!
//! Commit-readiness is the complete stage's done-prefix counter, so the stage
//! never looks past the entries it retires. Retiring applies the entry's
//! architectural effects (register, store, program counter), tells the memory
//! model the access and the fetch committed, and undoes the entry's share of
//! the dispatch bookkeeping.

use simkit::cycles::Cycle;

use uarch_isa::inst::{InstClass, Instruction, MemWidth};

use super::{OooCore, RobEntry, Status, NO_PRODUCER};
use crate::events::CoreEvent;
use crate::memmodel::MemoryModel;

impl OooCore {
    /// Whether the commit stage would do nothing at cycle `at`: the head is
    /// unfinished (or the ROB empty), or a commit charge stalls it.
    pub(super) fn commit_blocked(&self, at: Cycle) -> bool {
        self.done_prefix == 0 || at < self.commit_stalled_until
    }

    /// Retires up to `width` finished entries from the head. Returns whether
    /// any entry committed.
    pub(super) fn commit_stage(
        &mut self,
        now: Cycle,
        mem: &mut dyn MemoryModel,
        events: &mut Vec<CoreEvent>,
    ) -> bool {
        if self.commit_blocked(now) {
            return false;
        }
        for _ in 0..self.pipeline.width {
            let entry = self.rob.pop_front().expect("done prefix implies a head");
            self.done_prefix -= 1;
            self.retire_bookkeeping(&entry);
            self.retire_entry(&entry, now, mem, events);
            if self.halted || self.commit_blocked(now) {
                break;
            }
        }
        // An atomic joins the ready set when the head reaches it: with every
        // older entry committed, its operands are ready.
        if let Some(head) = self.rob.front() {
            let slot = self.rob.slot(head.seq);
            if self.atomic_bits.get(slot) && matches!(head.status, Status::Waiting) {
                debug_assert_eq!(self.pending_srcs[slot], 0);
                self.ready_bits.set(slot);
            }
        }
        true
    }

    /// Updates the incremental structures for a popped (committed) entry.
    fn retire_bookkeeping(&mut self, entry: &RobEntry) {
        // A finished entry was woken by every producer, woke its own waiters
        // when it turned Done (or, for a store, when it got its address) and
        // left every candidate set when it issued.
        let slot = self.rob.slot(entry.seq);
        debug_assert!(self.operand_waiters.is_empty(slot) && self.store_waiters.is_empty(slot));
        debug_assert!(!self.waiting_bits.get(slot) && !self.retry_bits.get(slot));
        if entry.is_load() {
            self.loads_in_flight -= 1;
        }
        if entry.is_store() {
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
        let pc = self.pc_addr(entry.pc);
        let thread = self.thread.as_mut().expect("running thread");
        // Architectural register, store and program-counter updates; the
        // committed program counter follows the actual path.
        if let (Some(dest), Some(result)) = (entry.inst.dest(), entry.result) {
            thread.regs.write(dest, result);
        }
        if entry.is_store() {
            let addr = entry.mem_addr.expect("store has an address");
            let data = entry.store_data.expect("store has data");
            let width = match entry.inst {
                Instruction::Store { width, .. } => width,
                _ => MemWidth::Double,
            };
            thread.memory.borrow_mut().write(addr, data, width);
        }
        thread.pc = entry.actual_next;

        self.stats.committed += 1;
        self.stats.loads += u64::from(entry.is_load());
        self.stats.stores += u64::from(entry.is_store());
        self.stats.branches += u64::from(matches!(entry.inst.class(), InstClass::Branch));

        // Commit-time notifications: the access, then the instruction itself,
        // so instruction-filter-cache lines can be marked committed (§4.7).
        if entry.is_memory() {
            let addr = entry.mem_addr.expect("memory op has an address");
            let extra = mem.commit_access(&self.access_ctx(addr, pc, now, entry.is_store()));
            if extra > 0 {
                self.commit_stalled_until = now.saturating_add(extra);
            }
        }
        mem.commit_fetch(&self.access_ctx(pc, pc, now, false));

        match entry.inst {
            Instruction::Syscall { code } => events.push(CoreEvent::Syscall(code)),
            Instruction::SandboxEnter => events.push(CoreEvent::SandboxEnter),
            Instruction::SandboxExit => events.push(CoreEvent::SandboxExit),
            Instruction::Halt => {
                self.thread.as_mut().expect("running thread").halted = true;
                self.halted = true;
                self.fetch_halted = true;
                events.push(CoreEvent::Halted);
            }
            _ => {}
        }
    }
}
