//! Deterministic event scheduler.
//!
//! A binary-heap event queue ordered by `(time, sequence)`. The sequence
//! number makes simultaneous events pop in insertion order, so a simulation
//! run is a pure function of its inputs — the determinism requirement the
//! paper's SystemC model gets from SystemC's fixed evaluation order. Both
//! halves are packed into one `u128` key, time in the high 64 bits, so
//! ordering two pending events is a single integer comparison.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The event scheduler. `E` is the model's event type (typically a small
/// enum). The model drives the simulation with a `while let Some((t, ev)) =
/// sched.pop()` loop.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Pending<E>>,
    processed: u64,
}

/// A queued event under its packed key, `(at << 64) | seq`. The heap is a
/// max-heap, so the order is reversed: the smallest key is the greatest
/// entry. Events themselves are never compared.
#[derive(Debug)]
struct Pending<E> {
    key: u128,
    ev: E,
}

impl<E> Pending<E> {
    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_ps((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// A new scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            processed: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `ev` to fire `delay` after the current time.
    #[inline]
    pub fn schedule(&mut self, delay: SimTime, ev: E) {
        self.schedule_at(self.now + delay, ev);
    }

    /// Schedule `ev` at an absolute time `at` (must not be in the past).
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let key = (u128::from(at.ps()) << 64) | u128::from(self.seq);
        self.seq += 1;
        self.heap.push(Pending { key, ev });
    }

    /// Schedule `ev` to fire "now", after all already-queued events at the
    /// current timestamp.
    #[inline]
    #[cfg(test)]
    pub(crate) fn schedule_now(&mut self, ev: E) {
        self.schedule_at(self.now, ev);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let pending = self.heap.pop()?;
        let at = pending.at();
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        Some((at, pending.ev))
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Pending::at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_ns(5), "c");
        s.schedule(SimTime::from_ns(1), "a");
        s.schedule(SimTime::from_ns(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_ns(5));
        assert_eq!(s.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(SimTime::from_ns(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_now_runs_after_earlier_same_time_events() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_ns(2), 1);
        s.schedule_at(SimTime::from_ns(2), 2);
        let (_, first) = s.pop().unwrap();
        assert_eq!(first, 1);
        s.schedule_now(3);
        let rest: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, [2, 3]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_ns(1), ());
        s.schedule(SimTime::from_ns(1), ());
        s.schedule(SimTime::from_ns(2), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = s.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn peek_time() {
        let mut s = Scheduler::new();
        assert_eq!(s.peek_time(), None);
        s.schedule(SimTime::from_ns(9), ());
        s.schedule(SimTime::from_ns(4), ());
        assert_eq!(s.peek_time(), Some(SimTime::from_ns(4)));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn scheduling_into_the_past_panics_in_debug() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_ns(10), ());
        s.pop();
        s.schedule_at(SimTime::from_ns(5), ());
    }
}
