//! Simulation results and errors.

use nexuspp_core::pool::PoolStats;
use nexuspp_core::table::TableStats;
use nexuspp_desim::SimTime;

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A task needs more descriptors than the whole Task Pool — it can
    /// never be admitted ("the maximum number of inputs/outputs is still
    /// bounded by the size of the Task Pool"). Carries the task's trace id
    /// and descriptor need.
    TaskTooLarge {
        /// Trace id of the offending task.
        task: u64,
        /// Descriptors it would need.
        needed: usize,
        /// The pool's capacity.
        capacity: usize,
    },
    /// No event can make progress while work remains — a capacity deadlock
    /// (e.g. a Dependence Table too small for the in-flight working set).
    Deadlock {
        /// Simulated time at which progress stopped.
        at: SimTime,
        /// Tasks admitted but unfinished.
        in_flight: usize,
        /// Tasks completed before the wedge.
        completed: u64,
    },
    /// The baseline hardware rejected the workload (used by the
    /// Nexus-classic model, which cannot execute e.g. Gaussian
    /// elimination).
    Unsupported {
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TaskTooLarge {
                task,
                needed,
                capacity,
            } => write!(
                f,
                "task {task} needs {needed} descriptors but the pool holds {capacity}"
            ),
            SimError::Deadlock {
                at,
                in_flight,
                completed,
            } => write!(
                f,
                "deadlock at {at}: {in_flight} tasks in flight, {completed} completed"
            ),
            SimError::Unsupported { reason } => write!(f, "unsupported workload: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-block activity summary.
#[derive(Debug, Clone, Default)]
pub struct BlockReport {
    /// Operations completed.
    pub ops: u64,
    /// Total busy time.
    pub busy: SimTime,
    /// Stall events (work available but blocked on capacity).
    pub stalls: u64,
}

impl BlockReport {
    /// Busy fraction of the makespan.
    pub fn utilization(&self, makespan: SimTime) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            self.busy / makespan
        }
    }
}

/// Everything a simulation run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload label.
    pub name: String,
    /// Worker-core count.
    pub workers: usize,
    /// End-to-end simulated time (submission of the first task to
    /// write-back of the last output).
    pub makespan: SimTime,
    /// Tasks executed.
    pub tasks: u64,
    /// Simulation events processed (diagnostic).
    pub events: u64,
    /// Master-core busy time (prep + submission).
    pub master_busy: SimTime,
    /// Master-core submission stalls (`TDs Sizes` list or `TDs Buffer`
    /// full; both are listed in [`fifo_peaks`](Self::fifo_peaks)).
    pub master_stalls: u64,
    /// `Write TP` block activity.
    pub write_tp: BlockReport,
    /// `Check Deps` block activity.
    pub check_deps: BlockReport,
    /// `Schedule` block activity.
    pub schedule: BlockReport,
    /// `Send TDs` block activity.
    pub send_tds: BlockReport,
    /// `Handle Finished` block activity.
    pub handle_fin: BlockReport,
    /// Total worker-core execution time (Σ task exec).
    pub worker_exec: SimTime,
    /// Memory transfers that had to queue for a bank slot.
    pub mem_queued: u64,
    /// Peak concurrent memory transfers.
    pub mem_peak_waiters: usize,
    /// Task Pool statistics snapshot.
    pub pool: PoolStats,
    /// Dependence Table statistics snapshot.
    pub table: TableStats,
    /// High-water marks of the maestro FIFOs (name, peak, capacity),
    /// including both lists a full one of which stalls the master.
    pub fifo_peaks: Vec<(&'static str, usize, usize)>,
    /// Sampled (time, completed-count) progress curve (every 64
    /// completions) — shows the wavefront ramp as achieved throughput.
    pub progress: Vec<(SimTime, u64)>,
}

impl Report {
    /// Mean worker utilization: Σ exec / (makespan × workers).
    pub fn worker_utilization(&self) -> f64 {
        if self.makespan.is_zero() || self.workers == 0 {
            0.0
        } else {
            self.worker_exec / (self.makespan * self.workers as u64)
        }
    }

    /// Task throughput in tasks per microsecond.
    pub fn tasks_per_us(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.tasks as f64 / self.makespan.as_us_f64()
        }
    }

    /// Instantaneous completion rates (tasks/µs) between progress samples
    /// — the time-domain view of the ramp effect.
    pub fn completion_rates(&self) -> Vec<(SimTime, f64)> {
        let mut out = Vec::with_capacity(self.progress.len());
        let mut prev = (SimTime::ZERO, 0u64);
        for &(t, n) in &self.progress {
            let dt = t.saturating_sub(prev.0);
            if !dt.is_zero() {
                out.push((t, (n - prev.1) as f64 / dt.as_us_f64()));
            }
            prev = (t, n);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SimError::TaskTooLarge {
            task: 5,
            needed: 9,
            capacity: 4,
        };
        assert!(e.to_string().contains("task 5"));
        let e = SimError::Deadlock {
            at: SimTime::from_us(3),
            in_flight: 2,
            completed: 10,
        };
        assert!(e.to_string().contains("deadlock"));
    }

    #[test]
    fn utilization_math() {
        let b = BlockReport {
            ops: 10,
            busy: SimTime::from_ns(250),
            stalls: 0,
        };
        assert!((b.utilization(SimTime::from_ns(1000)) - 0.25).abs() < 1e-12);
        assert_eq!(b.utilization(SimTime::ZERO), 0.0);
    }
}
