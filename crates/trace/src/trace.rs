//! In-memory traces and streaming trace sources.

use crate::types::{MemCost, TaskRecord};
use nexuspp_desim::SimTime;

/// A stream of tasks in submission order.
///
/// The Task Machine pulls tasks one at a time — the Master Core "executes
/// the main program" and generates descriptors serially — so the simulator
/// never needs the whole workload in memory. Small benchmarks use
/// [`VecSource`]; the Gaussian generator implements `TraceSource` directly
/// and synthesizes tasks on demand (n = 5000 would otherwise materialize
/// 12.5 M records).
pub trait TraceSource {
    /// The next task in submission order, or `None` when the program ends.
    fn next_task(&mut self) -> Option<TaskRecord>;

    /// Total number of tasks, if known (used for progress and for
    /// preallocating reports).
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// A `TraceSource` draining an owned vector of records.
#[derive(Debug, Clone)]
pub struct VecSource {
    tasks: std::vec::IntoIter<TaskRecord>,
    total: u64,
}

impl VecSource {
    /// Wrap a vector of tasks.
    pub fn new(tasks: Vec<TaskRecord>) -> Self {
        let total = tasks.len() as u64;
        VecSource {
            tasks: tasks.into_iter(),
            total,
        }
    }
}

impl TraceSource for VecSource {
    fn next_task(&mut self) -> Option<TaskRecord> {
        self.tasks.next()
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// An in-memory trace: an ordered list of task records plus a label.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Trace label (benchmark name, parameters).
    pub name: String,
    /// Tasks in submission order.
    pub tasks: Vec<TaskRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            tasks: Vec::new(),
        }
    }

    /// Build from parts.
    pub fn from_tasks(name: impl Into<String>, tasks: Vec<TaskRecord>) -> Self {
        Trace {
            name: name.into(),
            tasks,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Consume into a streaming source.
    pub fn into_source(self) -> VecSource {
        VecSource::new(self.tasks)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for t in &self.tasks {
            s.tasks += 1;
            s.total_exec += t.exec;
            s.total_params += t.params.len() as u64;
            s.max_params = s.max_params.max(t.params.len() as u64);
            for (cost, time_total, byte_total) in [
                (t.read, &mut s.total_read_time, &mut s.total_read_bytes),
                (t.write, &mut s.total_write_time, &mut s.total_write_bytes),
            ] {
                match cost {
                    MemCost::None => {}
                    MemCost::Time(d) => *time_total += d,
                    MemCost::Bytes(b) => *byte_total += b,
                }
            }
        }
        s
    }
}

/// Aggregate statistics over a trace, used to validate the synthetic
/// workloads against the published trace properties (e.g. "On average a
/// task spends 7.5 µs for accessing off-chip memory and 11.8 µs for
/// execution").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Number of tasks.
    pub tasks: u64,
    /// Sum of execution times.
    pub total_exec: SimTime,
    /// Sum of trace-recorded read times.
    pub total_read_time: SimTime,
    /// Sum of trace-recorded write times.
    pub total_write_time: SimTime,
    /// Sum of size-specified read volumes.
    pub total_read_bytes: u64,
    /// Sum of size-specified write volumes.
    pub total_write_bytes: u64,
    /// Sum of parameter-list lengths.
    pub total_params: u64,
    /// Longest parameter list.
    pub max_params: u64,
}

impl TraceStats {
    /// Mean execution time per task.
    pub fn mean_exec(&self) -> SimTime {
        if self.tasks == 0 {
            SimTime::ZERO
        } else {
            self.total_exec / self.tasks
        }
    }

    /// Mean trace-recorded memory time (read + write) per task.
    pub fn mean_mem_time(&self) -> SimTime {
        if self.tasks == 0 {
            SimTime::ZERO
        } else {
            (self.total_read_time + self.total_write_time) / self.tasks
        }
    }

    /// Mean parameters per task.
    #[cfg(test)]
    pub(crate) fn mean_params(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.total_params as f64 / self.tasks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Param;

    fn mk(id: u64, exec_ns: u64) -> TaskRecord {
        TaskRecord {
            id,
            fptr: 1,
            params: vec![Param::input(id * 16, 4), Param::output(id * 16 + 8, 4)],
            exec: SimTime::from_ns(exec_ns),
            read: MemCost::Time(SimTime::from_ns(10)),
            write: MemCost::Bytes(256),
        }
    }

    #[test]
    fn vec_source_drains_in_order() {
        let mut src = VecSource::new(vec![mk(0, 1), mk(1, 2), mk(2, 3)]);
        assert_eq!(src.len_hint(), Some(3));
        assert_eq!(src.next_task().unwrap().id, 0);
        assert_eq!(src.next_task().unwrap().id, 1);
        assert_eq!(src.next_task().unwrap().id, 2);
        assert!(src.next_task().is_none());
    }

    #[test]
    fn stats_aggregation() {
        let tr = Trace::from_tasks("t", vec![mk(0, 100), mk(1, 300)]);
        let s = tr.stats();
        assert_eq!(s.tasks, 2);
        assert_eq!(s.mean_exec(), SimTime::from_ns(200));
        assert_eq!(s.total_read_time, SimTime::from_ns(20));
        assert_eq!(s.total_write_bytes, 512);
        assert_eq!(s.total_params, 4);
        assert_eq!(s.max_params, 2);
        assert!((s.mean_params() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_stats() {
        let s = Trace::new("e").stats();
        assert_eq!(s.mean_exec(), SimTime::ZERO);
        assert_eq!(s.mean_mem_time(), SimTime::ZERO);
        assert_eq!(s.mean_params(), 0.0);
    }

    #[test]
    fn into_source_preserves_order_and_len() {
        let tr = Trace::from_tasks("t", (0..10).map(|i| mk(i, 1)).collect());
        let mut src = tr.into_source();
        let mut last = None;
        while let Some(t) = src.next_task() {
            if let Some(prev) = last {
                assert!(t.id > prev);
            }
            last = Some(t.id);
        }
        assert_eq!(last, Some(9));
    }
}
