//! Scheduler observability: atomic counters updated on the hot paths and
//! a cheap snapshot type for tests, the metrics registry and the `e2e`
//! benchmark's `sched.*` rows.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters (relaxed updates; exact totals are only
/// meaningful at quiescence, which is when every consumer reads them).
#[derive(Debug, Default)]
pub(crate) struct SchedMetrics {
    pub(crate) submitted: AtomicU64,
    pub(crate) local_pushes: AtomicU64,
    pub(crate) local_pops: AtomicU64,
    pub(crate) injector_pops: AtomicU64,
    pub(crate) high_pops: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) unparks: AtomicU64,
    pub(crate) wake_batches: AtomicU64,
}

impl SchedMetrics {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SchedCounts {
        SchedCounts {
            submitted: self.submitted.load(Ordering::Relaxed),
            local_pushes: self.local_pushes.load(Ordering::Relaxed),
            local_pops: self.local_pops.load(Ordering::Relaxed),
            injector_pops: self.injector_pops.load(Ordering::Relaxed),
            high_pops: self.high_pops.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            wake_batches: self.wake_batches.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of scheduler activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounts {
    /// Tasks handed to the scheduler from outside a worker (spawns).
    pub submitted: u64,
    /// Wakes pushed onto the waking worker's own deque.
    pub local_pushes: u64,
    /// Pops satisfied from the worker's own deque.
    pub local_pops: u64,
    /// Pops satisfied from the global injector.
    pub injector_pops: u64,
    /// Pops satisfied from the high-priority queue.
    pub high_pops: u64,
    /// Pops satisfied by stealing from another worker's deque.
    pub steals: u64,
    /// Times a worker's park recheck found no work (it then blocks
    /// unless a notify already arrived).
    pub parks: u64,
    /// Times a producer's `notify_one` found a worker counted in to
    /// wake (parked, or between its recheck and its block).
    pub unparks: u64,
    /// Batched wake deliveries (one per finish report with ≥1 wake).
    pub wake_batches: u64,
}

impl SchedCounts {
    /// Total tasks dispatched to workers (every pop source summed).
    pub fn dispatched(&self) -> u64 {
        self.local_pops + self.injector_pops + self.high_pops + self.steals
    }
}
