//! Debug oracles (test and debug builds only): the issue stage's incremental
//! state re-derived from the ROB with plain walks. `tick` checks the
//! wakeup/select state after every issue stage, and the issue walk asserts
//! that it stops where the ROB walk does, so a lost wakeup or a misplaced
//! window end panics on the cycle it happens, with the offending sequence
//! number.

use uarch_isa::inst::InstClass;

use super::{OooCore, Status};

impl OooCore {
    /// Where the issue stage must stop, recomputed with a plain ROB walk:
    /// at the first unfinished serialising entry past the head or at the
    /// `iq_entries + 1`-th Waiting entry, whichever comes first, else at the
    /// tail. The oracle for the word walk of the issue stage.
    pub(super) fn window_end_by_rob_walk(&self) -> u64 {
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
        self.rob.tail()
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
    pub(super) fn check_wakeup_state(&self) {
        let head = self.rob.head();
        let mut unknown_store_older = false;
        let (mut waiting, mut ready_count, mut parked) = (0, 0, 0);
        let (mut operand_links, mut store_links) = (0, 0);
        for (idx, e) in self.rob.iter().enumerate() {
            let seq = e.seq;
            let slot = self.rob.slot(seq);
            let is_waiting = matches!(e.status, Status::Waiting);
            let ready = self.ready_bits.get(slot);
            let is_parked = e.is_parked();
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
                    if self.rob.contains(producer) && !self.rob[producer].is_done() {
                        unfinished += 1;
                        let list = self.rob.slot(producer);
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
                    let offset = self.rob.slot((store_slot as u64).wrapping_sub(head));
                    assert!(offset < idx, "{seq} waits behind a younger slot");
                    let store = &self.rob[head + offset as u64];
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
}
