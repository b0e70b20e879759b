//! Wakeup/select bookkeeping for the issue stage.
//!
//! The issue stage of [`OooCore`](crate::OooCore) does not rescan its window
//! every cycle. Instead every reorder-buffer entry owns a fixed *slot* on a
//! power-of-two ring (`seq & (ring - 1)`, where the ring is `rob_entries`
//! rounded up to a power of two; the ROB holds at most `rob_entries`
//! consecutive sequence numbers, so live slots never collide), and two kinds
//! of allocation-free structures track which slots can make progress:
//!
//! * [`SlotBits`] — one bit per slot (Waiting entries, operand-ready entries,
//!   parked memory retries, serialising instructions, atomics). The issue
//!   stage reads them a machine word at a time, so one 64-slot chunk of the
//!   window costs a few word operations (see `OooCore::issue_stage`).
//! * [`WaitLists`] — intrusive, doubly-linked lists threaded through arrays
//!   sized once at construction. A list belongs to a producer (or a store);
//!   a node belongs to a consumer (or a load) and sits in at most one list.
//!   Linking, unlinking and draining never allocate, and unlinking is O(1),
//!   which is what lets a squash prune exactly the removed waiters.

/// Sentinel for "no node" / "no list".
const NIL: u32 = u32::MAX;

/// Bit index of the `k`-th (0-based) set bit of `word`, which must have more
/// than `k` set bits: a binary search over popcounts of halves, so finding
/// the issue window's cutoff costs six steps however deep it lies.
pub(crate) fn select(mut word: u64, mut k: u32) -> u32 {
    debug_assert!(k < word.count_ones(), "select past the last set bit");
    let mut base = 0;
    for half in [32, 16, 8, 4, 2, 1] {
        let low = (word & ((1 << half) - 1)).count_ones();
        if k >= low {
            k -= low;
            word >>= half;
            base += half;
        }
    }
    base
}

/// A fixed-size bitset with one bit per reorder-buffer slot.
#[derive(Debug, Clone)]
pub(crate) struct SlotBits {
    words: Vec<u64>,
}

impl SlotBits {
    /// A bitset over `slots` slots, all clear.
    pub(crate) fn new(slots: usize) -> Self {
        SlotBits {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    pub(crate) fn set(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    pub(crate) fn clear(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    pub(crate) fn get(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1 << (slot % 64)) != 0
    }

    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Word `i` of the bitset (bits `64 * i ..`).
    pub(crate) fn word(&self, i: usize) -> u64 {
        self.words[i]
    }
}

/// Intrusive doubly-linked wait lists over fixed arrays: `lists` list heads,
/// `nodes` nodes, each node in at most one list at a time.
#[derive(Debug, Clone)]
pub(crate) struct WaitLists {
    first: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The list a node is linked into, or [`NIL`].
    owner: Vec<u32>,
    /// Number of linked nodes.
    linked: usize,
}

impl WaitLists {
    pub(crate) fn new(lists: usize, nodes: usize) -> Self {
        assert!(lists < NIL as usize && nodes < NIL as usize);
        WaitLists {
            first: vec![NIL; lists],
            next: vec![NIL; nodes],
            prev: vec![NIL; nodes],
            owner: vec![NIL; nodes],
            linked: 0,
        }
    }

    /// Links the (unlinked) `node` into `list`.
    pub(crate) fn link(&mut self, list: usize, node: usize) {
        debug_assert!(!self.is_linked(node), "node {node} is already waiting");
        let old_first = self.first[list];
        if old_first != NIL {
            self.prev[old_first as usize] = node as u32;
        }
        self.next[node] = old_first;
        self.prev[node] = NIL;
        self.owner[node] = list as u32;
        self.first[list] = node as u32;
        self.linked += 1;
    }

    /// Removes `node` from whatever list holds it (no-op when unlinked).
    pub(crate) fn unlink(&mut self, node: usize) {
        let list = self.owner[node];
        if list == NIL {
            return;
        }
        let (prev, next) = (self.prev[node], self.next[node]);
        if prev == NIL {
            self.first[list as usize] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        }
        self.next[node] = NIL;
        self.prev[node] = NIL;
        self.owner[node] = NIL;
        self.linked -= 1;
    }

    /// Detaches every node of `list`, calling `wake` on each.
    pub(crate) fn drain(&mut self, list: usize, mut wake: impl FnMut(usize)) {
        let mut node = std::mem::replace(&mut self.first[list], NIL);
        while node != NIL {
            let n = node as usize;
            node = self.next[n];
            self.next[n] = NIL;
            self.prev[n] = NIL;
            self.owner[n] = NIL;
            self.linked -= 1;
            wake(n);
        }
    }

    pub(crate) fn is_linked(&self, node: usize) -> bool {
        self.owner[node] != NIL
    }

    /// The list `node` waits in, if any.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn owner(&self, node: usize) -> Option<usize> {
        (self.owner[node] != NIL).then_some(self.owner[node] as usize)
    }

    pub(crate) fn is_empty(&self, list: usize) -> bool {
        self.first[list] == NIL
    }

    /// Number of nodes linked into any list.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn linked(&self) -> usize {
        self.linked
    }

    pub(crate) fn clear_all(&mut self) {
        self.first.fill(NIL);
        self.next.fill(NIL);
        self.prev.fill(NIL);
        self.owner.fill(NIL);
        self.linked = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_lists_link_unlink_and_drain() {
        let mut l = WaitLists::new(4, 8);
        for node in [1, 5, 7] {
            l.link(2, node);
        }
        l.link(3, 0);
        assert_eq!(l.linked(), 4);
        assert_eq!(l.owner(5), Some(2));
        // Unlink from the middle, the head and the tail of the list.
        l.unlink(5);
        assert!(!l.is_linked(5));
        l.unlink(5); // idempotent
        let mut woken = Vec::new();
        l.drain(2, |n| woken.push(n));
        woken.sort_unstable();
        assert_eq!(woken, vec![1, 7]);
        assert!(l.is_empty(2));
        assert!(!l.is_linked(1) && !l.is_linked(7));
        assert_eq!(l.linked(), 1);
        l.unlink(0);
        assert!(l.is_empty(3));
        // A drained node may be linked again elsewhere.
        l.link(0, 7);
        l.link(0, 1);
        l.unlink(1);
        l.unlink(7);
        assert!(l.is_empty(0));
    }

    #[test]
    fn select_finds_the_kth_set_bit() {
        for word in [1u64, u64::MAX, 0x8000_0000_0000_0001, 0xdead_beef_0bad_f00d] {
            let mut rest = word;
            for k in 0..word.count_ones() {
                assert_eq!(select(word, k), rest.trailing_zeros(), "{word:#x} k={k}");
                rest &= rest - 1;
            }
        }
    }

    #[test]
    fn clear_all_detaches_every_node() {
        let mut l = WaitLists::new(2, 3);
        l.link(0, 0);
        l.link(1, 2);
        l.clear_all();
        assert_eq!(l.linked(), 0);
        assert!(l.is_empty(0) && l.is_empty(1));
        assert!((0..3).all(|n| !l.is_linked(n)));
    }
}
