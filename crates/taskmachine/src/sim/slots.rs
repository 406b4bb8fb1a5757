//! Counting resources with FIFO admission.
//!
//! The paper models off-chip memory contention as a hard concurrency limit:
//! "The off-chip memory is assumed to have 32 banks, each having one
//! read/write port. Therefore, no more than 32 tasks can access the memory
//! at a given time, and this is how contention accessing off-chip memory is
//! modeled." [`SlotPool`] implements that limiter: `acquire` grants one of
//! `n` slots immediately, or queues the requester (identified by an opaque
//! token) in FIFO order; `release` hands the slot to the oldest waiter.

use std::collections::VecDeque;

/// Result of a successful slot acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotGrant {
    /// A slot was free; the requester may proceed immediately.
    Granted,
    /// All slots are busy; the requester was queued and will be returned by
    /// a future [`SlotPool::release`].
    Queued,
}

/// A pool of identical slots with FIFO waiting.
///
/// Waiters are opaque `u64` tokens chosen by the model (e.g. a worker-core
/// id or an event key); the pool never interprets them.
#[derive(Debug, Clone)]
pub(crate) struct SlotPool {
    name: &'static str,
    total: usize,
    in_use: usize,
    waiters: VecDeque<u64>,
    // statistics
    queued: u64,
    high_water_waiters: usize,
}

impl SlotPool {
    /// A pool of `total` slots.
    pub(crate) fn new(name: &'static str, total: usize) -> Self {
        assert!(total > 0, "slot pool {name} needs at least one slot");
        SlotPool {
            name,
            total,
            in_use: 0,
            waiters: VecDeque::new(),
            queued: 0,
            high_water_waiters: 0,
        }
    }

    /// Total requests that had to queue (a direct measure of contention).
    #[inline]
    pub(crate) fn queued_total(&self) -> u64 {
        self.queued
    }

    /// Largest waiter-queue length observed.
    #[inline]
    pub(crate) fn high_water_waiters(&self) -> usize {
        self.high_water_waiters
    }

    /// Request a slot for `waiter`. Returns [`SlotGrant::Granted`] if a slot
    /// was free (the caller now holds it), or [`SlotGrant::Queued`] if the
    /// waiter joined the FIFO queue.
    pub(crate) fn acquire(&mut self, waiter: u64) -> SlotGrant {
        if self.in_use < self.total {
            self.in_use += 1;
            SlotGrant::Granted
        } else {
            self.waiters.push_back(waiter);
            self.queued += 1;
            if self.waiters.len() > self.high_water_waiters {
                self.high_water_waiters = self.waiters.len();
            }
            SlotGrant::Queued
        }
    }

    /// Release a held slot. If waiters are queued, the oldest one is granted
    /// the slot and returned — the model must then resume that waiter.
    pub(crate) fn release(&mut self) -> Option<u64> {
        debug_assert!(self.in_use > 0, "release on idle pool {}", self.name);
        if let Some(w) = self.waiters.pop_front() {
            // Slot passes directly to the waiter; `in_use` is unchanged.
            Some(w)
        } else {
            self.in_use -= 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_until_full_then_queues() {
        let mut p = SlotPool::new("mem", 2);
        assert_eq!(p.acquire(1), SlotGrant::Granted);
        assert_eq!(p.acquire(2), SlotGrant::Granted);
        assert_eq!(p.acquire(3), SlotGrant::Queued);
        assert_eq!(p.acquire(4), SlotGrant::Queued);
        assert_eq!(p.queued_total(), 2);
        assert_eq!(p.high_water_waiters(), 2);
    }

    #[test]
    fn release_hands_slot_to_oldest_waiter() {
        let mut p = SlotPool::new("mem", 1);
        assert_eq!(p.acquire(10), SlotGrant::Granted);
        assert_eq!(p.acquire(11), SlotGrant::Queued);
        assert_eq!(p.acquire(12), SlotGrant::Queued);
        assert_eq!(p.release(), Some(11));
        assert_eq!(p.release(), Some(12));
        assert_eq!(p.release(), None);
        // The pool is idle again: the next request is granted at once.
        assert_eq!(p.acquire(13), SlotGrant::Granted);
        assert_eq!(p.queued_total(), 2);
    }

    #[test]
    fn slot_count_conserved() {
        let mut p = SlotPool::new("mem", 3);
        for i in 0..3 {
            assert_eq!(p.acquire(i), SlotGrant::Granted);
        }
        assert_eq!(p.acquire(99), SlotGrant::Queued);
        // Handoff keeps every slot held: the next request still queues.
        assert_eq!(p.release(), Some(99));
        assert_eq!(p.acquire(100), SlotGrant::Queued);
        assert_eq!(p.release(), Some(100));
        for _ in 0..3 {
            assert_eq!(p.release(), None);
        }
        // All three slots are free again, and no more than three.
        for i in 0..3 {
            assert_eq!(p.acquire(i), SlotGrant::Granted);
        }
        assert_eq!(p.acquire(3), SlotGrant::Queued);
    }

    #[test]
    fn high_water_tracks_worst_contention() {
        let mut p = SlotPool::new("mem", 1);
        p.acquire(0);
        for i in 1..=5 {
            p.acquire(i);
        }
        assert_eq!(p.high_water_waiters(), 5);
    }
}
