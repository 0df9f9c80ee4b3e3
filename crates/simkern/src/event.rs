//! Deterministic event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with **stable FIFO
//! tie-breaking**: two events scheduled for the same instant pop in the order
//! they were scheduled. Determinism of the whole platform hinges on this —
//! `std::collections::BinaryHeap` alone does not guarantee any order among
//! equal keys, so each entry carries a monotonically increasing sequence
//! number.
//!
//! The queue is generic over the event payload: a caller defines an `enum`
//! of what can happen and drives a `while let Some((t, ev)) = q.pop()`
//! loop. Campaigns do not: `frostlab-core` runs them on its fixed-step
//! phase pipeline, so no campaign, bin or service path uses the queue
//! today.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

// Order entries so that the *earliest* time (and among equal times the
// *smallest* sequence number) is the maximum of the max-heap.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

/// A deterministic, time-ordered event queue.
///
/// Tracks the current simulation time (`now`), which advances monotonically
/// as events are popped. Scheduling an event in the past is a logic error and
/// panics: silent reordering is exactly the class of bug a deterministic
/// simulator must refuse to paper over.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with `now` at the experiment epoch.
    pub fn new() -> Self {
        Self::starting_at(SimTime::ZERO)
    }

    /// Create an empty queue with `now` at the given instant.
    pub fn starting_at(start: SimTime) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: start,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (or the start time if nothing has been popped yet).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than [`EventQueue::now`].
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "attempt to schedule an event at {at:?} before now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Drop all pending events (e.g. when ending a phase early).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), "c");
        q.schedule(SimTime::from_secs(10), "a");
        q.schedule(SimTime::from_secs(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.schedule(SimTime::from_secs(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(9));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(30), 3);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_secs(), e), (10, 1));
        q.schedule(SimTime::from_secs(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [2, 3]);
    }
}
