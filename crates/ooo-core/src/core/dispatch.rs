//! Dispatch: appends a fetched instruction to the ROB.
//!
//! Each entry records **dispatch-time producer links**: the sequence number
//! of the in-flight producer of each source register, read from a register
//! scoreboard, so operand lookup and the taint walk are O(1) per source
//! instead of a backward ROB scan. Load-queue occupancy is a counter and
//! store-queue occupancy the length of the ordered deque of in-flight store
//! sequence numbers, which memory disambiguation walks; a second deque holds
//! the unresolved control-flow entries. The new entry also joins the
//! wakeup/select state: it is linked into the wakeup list of each unfinished
//! producer, and is ready at once if there is none.

use uarch_isa::inst::{InstClass, Instruction};

use super::{OooCore, RobEntry, Status, NO_PRODUCER};

impl OooCore {
    /// Whether dispatching `inst` must wait for a load- or store-queue entry.
    pub(super) fn queues_full_for(&self, inst: Instruction) -> bool {
        let class = inst.class();
        (matches!(class, InstClass::Load | InstClass::Atomic)
            && self.loads_in_flight >= self.pipeline.lq_entries)
            || (matches!(class, InstClass::Store | InstClass::Atomic)
                && self.store_seqs.len() >= self.pipeline.sq_entries)
    }

    /// Appends `inst`, fetched from instruction index `pc` with the
    /// prediction `predicted_next`, to the ROB as a Waiting entry.
    pub(super) fn dispatch(&mut self, inst: Instruction, pc: usize, predicted_next: usize) {
        // Capture the producer links from the scoreboard, then claim the
        // destination register for this entry.
        let seq = self.rob.tail();
        let (src_regs, num_sources) = inst.source_regs();
        let mut src_producers = [NO_PRODUCER; 2];
        for slot in 0..num_sources {
            if !src_regs[slot].is_zero() {
                src_producers[slot] = self.reg_producer[src_regs[slot].index()];
            }
        }
        let entry = RobEntry {
            seq,
            pc,
            inst,
            status: Status::Waiting,
            result: None,
            src_producers,
            mem_addr: None,
            store_data: None,
            predicted_next,
            actual_next: pc + 1,
        };
        self.dispatch_wakeup(seq, &inst, src_producers);
        if let Some(dest) = inst.dest() {
            self.reg_producer[dest.index()] = seq;
        }
        if entry.is_load() {
            self.loads_in_flight += 1;
        }
        if entry.is_store() {
            self.store_seqs.push_back(seq);
        }
        if entry.is_branch() {
            self.branch_seqs.push_back(seq);
        }
        self.rob.push(entry);
        self.waiting_count += 1;
    }

    /// Registers the entry just dispatched as `seq` with the wakeup/select
    /// state: it is Waiting, linked into the wakeup list of each producer
    /// that has not finished, and ready at once if there is none. An atomic
    /// is ready at once only if it becomes the ROB head (which leaves it no
    /// producer in flight); otherwise the commit stage wakes it when the
    /// head reaches it.
    fn dispatch_wakeup(&mut self, seq: u64, inst: &Instruction, src_producers: [u64; 2]) {
        let slot = self.rob.slot(seq);
        debug_assert!(self.operand_waiters.is_empty(slot) && self.store_waiters.is_empty(slot));
        let mut pending = 0u8;
        for (src, &producer) in src_producers.iter().enumerate() {
            if producer == NO_PRODUCER {
                continue;
            }
            if !self.rob[producer].is_done() {
                let list = self.rob.slot(producer);
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
}
