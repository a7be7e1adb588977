//! The event calendar (future event list) of both simulation engines.
//!
//! The event loops of this crate pop events in `(time, event)` order where
//! `event` is a small `Ord` enum whose variant order encodes the
//! same-cycle tie-break. [`EventQueue`] is a `BinaryHeap<Reverse<(u64,
//! E)>>` that also holds the engines to their monotone schedule: nothing
//! may be pushed before the last popped time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-queue over `(u64, E)`: earliest time first, same-time events in
/// `E`'s `Ord` order.
///
/// Invariant required from the caller (and upheld by event-driven
/// simulation): an event may never be pushed with a timestamp smaller
/// than the last popped timestamp. `push` panics (debug) on violations.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u64, E)>>,
    /// Timestamp of the last pop (the floor of every live event).
    cursor: u64,
    /// Events pushed since the last [`EventQueue::clear`].
    pushed: u64,
}

impl<E: Ord> EventQueue<E> {
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            cursor: 0,
            pushed: 0,
        }
    }

    /// Empties the queue, keeping its capacity for reuse.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.cursor = 0;
        self.pushed = 0;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Events pushed since the last [`EventQueue::clear`].
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Schedules `event` at `time` (which must not precede the last pop).
    pub(crate) fn push(&mut self, time: u64, event: E) {
        debug_assert!(
            time >= self.cursor,
            "event scheduled at {time} before the last popped time {}",
            self.cursor
        );
        self.pushed += 1;
        self.heap.push(Reverse((time, event)));
    }

    /// Timestamp of the earliest event, or `None` when empty.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _))| *t)
    }

    /// Removes and returns the earliest `(time, event)` pair; same-time
    /// events pop in `E`'s `Ord` order.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse((t, event)) = self.heap.pop()?;
        self.cursor = t;
        Some((t, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in for the engines' event enums: variant-ordered, then
    /// payload-ordered.
    type Ev = (u8, u32);

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_events_pop_in_ord_order() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(10, (3, 0));
        q.push(10, (0, 7));
        q.push(10, (0, 2));
        q.push(10, (1, 1));
        assert_eq!(q.pop(), Some((10, (0, 2))));
        assert_eq!(q.pop(), Some((10, (0, 7))));
        assert_eq!(q.pop(), Some((10, (1, 1))));
        assert_eq!(q.pop(), Some((10, (3, 0))));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(30, (0, 0));
        assert_eq!(q.pop(), Some((30, (0, 0))));
        q.push(8192, (0, 1));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pushed(), 0);
        // The clear also resets the last popped time.
        q.push(1, (1, 1));
        assert_eq!(q.pop(), Some((1, (1, 1))));
        assert_eq!(q.pushed(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the last popped time")]
    fn a_push_before_the_last_pop_panics() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(10, (0, 0));
        q.pop();
        q.push(9, (0, 0));
    }
}
