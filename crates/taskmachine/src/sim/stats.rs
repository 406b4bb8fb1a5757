//! Busy-time tracking.
//!
//! The evaluation reports need more than makespans: per-block busy time
//! (reported as utilization) explains *which* pipeline stage bottlenecks
//! the Maestro, and stall counts show where a full downstream FIFO held
//! it back.

use nexuspp_desim::SimTime;

/// Tracks how much simulated time a block was busy, and how often it was
/// stalled waiting for a full downstream FIFO.
#[derive(Debug, Clone, Default)]
pub(crate) struct BusyTracker {
    busy: SimTime,
    ops: u64,
    stalls: u64,
}

impl BusyTracker {
    /// A new idle tracker.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one operation that kept the block busy for `dur`.
    #[inline]
    pub(crate) fn record_busy(&mut self, dur: SimTime) {
        self.busy += dur;
        self.ops += 1;
    }

    /// Record a stall (block had work but could not proceed).
    #[inline]
    pub(crate) fn record_stall(&mut self) {
        self.stalls += 1;
    }

    /// Total busy time.
    pub(crate) fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Operations completed.
    pub(crate) fn ops(&self) -> u64 {
        self.ops
    }

    /// Stall events.
    pub(crate) fn stalls(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tracker_utilization() {
        let mut b = BusyTracker::new();
        assert_eq!(b.busy_time(), SimTime::ZERO);
        b.record_busy(SimTime::from_ns(30));
        b.record_busy(SimTime::from_ns(20));
        b.record_stall();
        assert_eq!(b.ops(), 2);
        assert_eq!(b.stalls(), 1);
        // Half of a 100 ns window, the share the block report prints.
        assert_eq!(b.busy_time(), SimTime::from_ns(50));
    }
}
