//! The time queue of the event-driven simulation loop.
//!
//! [`EventQueue`] is a min-heap of `(Cycle, payload)` pairs that drives the
//! event loop: the out-of-order core keys completion tickets by
//! sequence number, and `System::run` sleeps each core until the earliest
//! entry. Entries may go stale (a squash removes the instruction a ticket
//! names); consumers validate on pop and pop stale entries off the top,
//! which keeps the queue write paths O(log n) with no removal support needed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cycles::Cycle;

/// A min-heap of `(Cycle, payload)` events, earliest first; ties pop in
/// payload order (so completion tickets keyed by sequence number pop
/// oldest-instruction-first within a cycle).
///
/// There is no removal: consumers push freely and validate on pop, treating
/// entries whose payload no longer names live work as stale. A consumer that
/// wants [`peek`] to name live work pops the stale entries off the top.
///
/// [`peek`]: EventQueue::peek
#[derive(Debug, Clone, Default)]
pub struct EventQueue<T: Ord + Copy> {
    heap: BinaryHeap<Reverse<(Cycle, T)>>,
}

impl<T: Ord + Copy> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Schedules `payload` at `at`.
    #[inline]
    pub fn push(&mut self, at: Cycle, payload: T) {
        self.heap.push(Reverse((at, payload)));
    }

    /// The earliest event (the one [`pop_due`](Self::pop_due) pops next),
    /// or `None` when empty. It may be stale (see the type docs).
    #[inline]
    pub fn peek(&self) -> Option<(Cycle, T)> {
        self.heap.peek().map(|Reverse(entry)| *entry)
    }

    /// Pops the earliest event if it is due at or before `now`.
    #[inline]
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        match self.heap.peek() {
            Some(Reverse((t, _))) if *t <= now => {
                let Reverse(entry) = self.heap.pop().expect("peeked");
                Some(entry)
            }
            _ => None,
        }
    }

    /// Number of scheduled (possibly stale) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_queue_pops_in_time_then_payload_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(Cycle::new(9), 2);
        q.push(Cycle::new(3), 7);
        q.push(Cycle::new(9), 1);
        assert_eq!(q.peek(), Some((Cycle::new(3), 7)));
        assert_eq!(q.pop_due(Cycle::new(10)), Some((Cycle::new(3), 7)));
        assert_eq!(q.pop_due(Cycle::new(10)), Some((Cycle::new(9), 1)));
        assert_eq!(q.pop_due(Cycle::new(10)), Some((Cycle::new(9), 2)));
        assert_eq!(q.pop_due(Cycle::new(10)), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(Cycle::new(50), 1);
        assert_eq!(q.pop_due(Cycle::new(49)), None);
        assert_eq!(q.pop_due(Cycle::new(50)), Some((Cycle::new(50), 1)));
    }
}
