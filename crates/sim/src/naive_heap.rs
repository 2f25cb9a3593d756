//! The event kernel's *previous* priority queue, kept as a reference.
//!
//! This is the plain `BinaryHeap` min-queue over `(at, seq)` that
//! [`crate::wheel::TimerWheel`] replaced. It stays in-tree for two jobs:
//!
//! 1. **Ground truth** for the wheel's ordering property tests — on any
//!    schedule, the wheel must pop the exact sequence this heap pops.
//! 2. **Baseline** for timing the wheel, so its speedup stays measurable
//!    against the original implementation instead of drifting into
//!    folklore.
//!
//! It is not used on any simulation path.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use drs_core::SimTime;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    val: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // Reversed so the std max-heap pops the earliest (at, seq) first —
    // exactly the ordering the simulator core used before the wheel.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A `BinaryHeap`-backed event queue popping ascending `(at, seq)`.
pub struct NaiveHeap<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> Default for NaiveHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> NaiveHeap<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        NaiveHeap {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pushes an event due at `at` with tie-break `seq`.
    pub fn push(&mut self, at: SimTime, seq: u64, val: T) {
        self.heap.push(Entry { at, seq, val });
    }

    /// The `(at, seq)` key of the next event, without popping it.
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    /// Pops the earliest event as `(at, seq, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.at, e.seq, e.val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_ascending_at_then_seq() {
        let mut q = NaiveHeap::new();
        q.push(SimTime(30), 2, 'c');
        q.push(SimTime(10), 1, 'b');
        q.push(SimTime(10), 0, 'a');
        let mut out = Vec::new();
        while let Some((at, seq, v)) = q.pop() {
            out.push((at.0, seq, v));
        }
        assert_eq!(out, vec![(10, 0, 'a'), (10, 1, 'b'), (30, 2, 'c')]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = NaiveHeap::new();
        q.push(SimTime(5), 9, ());
        q.push(SimTime(5), 3, ());
        assert_eq!(q.peek(), Some((SimTime(5), 3)));
        assert_eq!(q.len(), 2);
        let (at, seq, ()) = q.pop().unwrap();
        assert_eq!((at, seq), (SimTime(5), 3));
    }
}
