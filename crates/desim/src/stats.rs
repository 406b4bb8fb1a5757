//! Simulation statistics: counters, value summaries and busy-time
//! (utilization) trackers.
//!
//! The evaluation reports need more than makespans: per-block utilization
//! explains *which* pipeline stage bottlenecks the Maestro, and
//! chain-length summaries reproduce the third series of Figure 6.

use crate::time::SimTime;

/// A simple named event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Add `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.count
    }
}

/// Min/max/mean/total summary of a stream of `u64` samples.
#[derive(Debug, Clone)]
pub struct Summary {
    n: u64,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            n: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.n += 1;
        self.total += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.n > 0).then_some(self.max)
    }

    /// Mean of samples (`None` if empty).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.total as f64 / self.n as f64)
    }
}

/// Tracks the fraction of simulated time a block was busy, and how often it
/// was stalled waiting for a full downstream FIFO.
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    busy: SimTime,
    ops: u64,
    stalls: u64,
}

impl BusyTracker {
    /// A new idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one operation that kept the block busy for `dur`.
    #[inline]
    pub fn record_busy(&mut self, dur: SimTime) {
        self.busy += dur;
        self.ops += 1;
    }

    /// Record a stall (block had work but could not proceed).
    #[inline]
    pub fn record_stall(&mut self) {
        self.stalls += 1;
    }

    /// Total busy time.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Operations completed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Stall events.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Busy time as a fraction of `total` elapsed time.
    pub fn utilization(&self, total: SimTime) -> f64 {
        if total.is_zero() {
            0.0
        } else {
            self.busy / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_empty_and_filled() {
        let mut s = Summary::new();
        assert_eq!(s.min(), None);
        assert_eq!(s.mean(), None);
        for v in [3, 1, 8] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(8));
        assert_eq!(s.total(), 12);
        assert!((s.mean().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn busy_tracker_utilization() {
        let mut b = BusyTracker::new();
        b.record_busy(SimTime::from_ns(30));
        b.record_busy(SimTime::from_ns(20));
        b.record_stall();
        assert_eq!(b.ops(), 2);
        assert_eq!(b.stalls(), 1);
        assert!((b.utilization(SimTime::from_ns(100)) - 0.5).abs() < 1e-12);
        assert_eq!(b.utilization(SimTime::ZERO), 0.0);
    }
}
