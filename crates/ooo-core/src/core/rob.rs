//! The reorder buffer: a power-of-two ring of entries indexed by sequence
//! number.
//!
//! The live entries hold the contiguous sequence numbers `head..tail`:
//! dispatch appends at the tail, commit pops the head and a squash truncates
//! a suffix, whose numbers the corrected path then reuses. Entry `seq` sits
//! in slot `seq & mask`, the slot the wakeup/select bitsets use, so a
//! producer, store or branch lookup is one masked index with no offset from
//! the head. The ring has at least as many slots as the ROB has entries, so
//! two live entries never share a slot.

use std::ops::{Index, IndexMut};

use uarch_isa::inst::Instruction;

use super::{RobEntry, Status, NO_PRODUCER};

pub(super) struct Rob {
    /// One entry per slot; slots outside `head..tail` hold stale entries.
    entries: Vec<RobEntry>,
    /// `entries.len() - 1`.
    mask: u64,
    /// Sequence number of the oldest entry (of the next dispatch when the
    /// ROB is empty).
    head: u64,
    len: usize,
}

impl Rob {
    /// An empty ring of `slots` entries (a power of two).
    pub(super) fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        let vacant = RobEntry {
            seq: 0,
            pc: 0,
            inst: Instruction::Nop,
            status: Status::Done,
            result: None,
            src_producers: [NO_PRODUCER; 2],
            mem_addr: None,
            store_data: None,
            predicted_next: 0,
            actual_next: 0,
        };
        Rob {
            entries: vec![vacant; slots],
            mask: slots as u64 - 1,
            head: 0,
            len: 0,
        }
    }

    /// Sequence number of the head entry (of the next dispatch when empty).
    pub(super) fn head(&self) -> u64 {
        self.head
    }

    /// Sequence number of the next dispatch: one past the youngest entry.
    pub(super) fn tail(&self) -> u64 {
        self.head + self.len as u64
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of slots.
    pub(super) fn slots(&self) -> usize {
        self.entries.len()
    }

    /// The slot of sequence number `seq`.
    pub(super) fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Whether `seq` names a live entry.
    pub(super) fn contains(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.head) < self.len as u64
    }

    pub(super) fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self[self.head])
    }

    /// Appends `entry`, which must carry the tail's sequence number.
    pub(super) fn push(&mut self, entry: RobEntry) {
        debug_assert_eq!(entry.seq, self.tail(), "dispatch out of sequence");
        debug_assert!(self.len < self.entries.len(), "ROB ring overflow");
        let slot = self.slot(entry.seq);
        self.entries[slot] = entry;
        self.len += 1;
    }

    /// Removes and returns the head entry.
    pub(super) fn pop_front(&mut self) -> Option<RobEntry> {
        let entry = self.front().copied()?;
        self.head += 1;
        self.len -= 1;
        Some(entry)
    }

    /// Removes every entry from `end` on, so that `end` is the next
    /// dispatch's sequence number.
    pub(super) fn truncate(&mut self, end: u64) {
        debug_assert!(self.head <= end && end <= self.tail());
        self.len = (end - self.head) as usize;
    }

    /// Removes every entry; the sequence numbers continue from the tail.
    pub(super) fn clear(&mut self) {
        self.head = self.tail();
        self.len = 0;
    }

    /// The live entries, oldest first.
    pub(super) fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.range(self.head)
    }

    /// The live entries from sequence number `from` on, oldest first.
    pub(super) fn range(&self, from: u64) -> impl Iterator<Item = &RobEntry> {
        debug_assert!(from >= self.head);
        let n = self.tail().saturating_sub(from) as usize;
        let start = self.slot(from);
        let first = n.min(self.entries.len() - start);
        self.entries[start..start + first]
            .iter()
            .chain(&self.entries[..n - first])
    }
}

impl Index<u64> for Rob {
    type Output = RobEntry;

    fn index(&self, seq: u64) -> &RobEntry {
        debug_assert!(self.contains(seq), "seq {seq} is not in the ROB");
        &self.entries[self.slot(seq)]
    }
}

impl IndexMut<u64> for Rob {
    fn index_mut(&mut self, seq: u64) -> &mut RobEntry {
        debug_assert!(self.contains(seq), "seq {seq} is not in the ROB");
        let slot = self.slot(seq);
        &mut self.entries[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, pc: usize) -> RobEntry {
        RobEntry {
            seq,
            pc,
            ..Rob::new(1).entries[0]
        }
    }

    /// Entries stay addressable by sequence number across many wraps of a
    /// ring that is larger than the ROB (6 entries in 8 slots), and a squash
    /// that cuts the ROB at the wrap point hands the sequence numbers from
    /// slot 0 on to the re-dispatched path.
    #[test]
    fn entries_are_found_by_sequence_number_across_wraps_and_reuse() {
        let capacity = 6;
        let mut rob = Rob::new(8);
        let mut pcs = Vec::new(); // the pc last dispatched as each seq
        let mut reused_at_wrap = 0;
        for round in 0..300usize {
            while rob.len() < capacity {
                let seq = rob.tail();
                pcs.resize(seq as usize + 1, 0);
                pcs[seq as usize] = round;
                rob.push(entry(seq, round));
            }
            for seq in rob.head()..rob.tail() {
                assert_eq!((rob[seq].seq, rob[seq].pc), (seq, pcs[seq as usize]));
            }
            assert!(!rob.contains(rob.tail()) && !rob.contains(rob.head().wrapping_sub(1)));
            let seqs: Vec<u64> = rob.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (rob.head()..rob.tail()).collect::<Vec<_>>());
            if round % 3 == 0 {
                // Squash everything younger than the entry in the last slot.
                if let Some(cut) = (rob.head()..rob.tail()).find(|s| s & rob.mask == rob.mask) {
                    rob.truncate(cut + 1);
                    assert_eq!(rob.range(cut).map(|e| e.seq).collect::<Vec<_>>(), [cut]);
                    reused_at_wrap += usize::from(cut + 1 < pcs.len() as u64);
                    continue;
                }
            }
            let popped = rob.pop_front().expect("a full ROB has a head");
            assert_eq!(popped.seq + 1, rob.head());
        }
        assert!(rob.head() > 20 * 8, "the ring wrapped many times");
        assert!(
            reused_at_wrap > 50,
            "squashed numbers were reused at the wrap"
        );
        rob.clear();
        assert!(rob.is_empty() && rob.front().is_none() && rob.head() == rob.tail());
    }
}
