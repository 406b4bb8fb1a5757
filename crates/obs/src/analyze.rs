//! The shapes of event-stream analysis: per-task timelines, latency
//! breakdowns, and the observed critical path.
//!
//! The fold that fills them is [`GraphTracker`]: one record per task,
//! and each record's timeline is a [`TaskTimeline`]. This module keeps
//! the result types, the one stage computation ([`breakdown`], which
//! [`GraphTracker::snapshot`] calls) and two thin wrappers,
//! [`timelines`] and [`latency_breakdown`], which replay a drained
//! stream through a fresh tracker for post-mortem callers.
//!
//! The observed critical path ([`GraphTracker::critical_path`]) is
//! reconstructed purely from the wake edges the runtime actually
//! exercised: every [`EventKind::Ready`](crate::EventKind::Ready) event
//! carries the tag of the finishing task that released it (or
//! [`NO_TASK`](crate::NO_TASK) if the task was ready at submission).
//! Chaining those edges backwards from every task gives each task a
//! *depth* — ready at submit is depth 1, a task woken by a depth-`d`
//! finisher is depth `d + 1` — and the maximum depth is the length of
//! the longest realized dependence chain. On a correctly-ordered run
//! this equals the structural critical path `parallelism_profile`
//! computes from the task graph, which `repro -- observe` asserts for
//! `version_stress`.

use crate::event::Event;
use crate::tracker::GraphTracker;
use std::collections::BTreeMap;

/// The recorded journey of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTimeline {
    /// `ts_ns` of the task's `Submitted` event.
    pub submitted: Option<u64>,
    /// `ts_ns` of the task's `Ready` event.
    pub ready: Option<u64>,
    /// `ts_ns` of the task's `ExecStart` event.
    pub exec_start: Option<u64>,
    /// `ts_ns` of the task's `ExecDone` event.
    pub exec_done: Option<u64>,
    /// `ts_ns` of the task's `Finished` event.
    pub finished: Option<u64>,
    /// Worker that executed it, or `u32::MAX` if none did.
    pub worker: u32,
    /// The finisher that released it, or `None` if ready at submit.
    pub waker: Option<u64>,
}

/// Fold an event batch into per-task timelines (keyed by task tag;
/// events with `task == NO_TASK` are skipped) by replaying it through a
/// fresh [`GraphTracker`].
pub fn timelines(events: &[Event]) -> BTreeMap<u64, TaskTimeline> {
    let mut tracker = GraphTracker::new();
    tracker.apply_batch(events);
    tracker.timelines().map(|(&task, tl)| (task, *tl)).collect()
}

/// Order statistics over one latency population.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Tasks with both endpoints recorded.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Maximum latency in nanoseconds.
    pub max_ns: u64,
}

impl LatencyStats {
    fn from_samples(mut v: Vec<u64>) -> LatencyStats {
        if v.is_empty() {
            return LatencyStats::default();
        }
        v.sort_unstable();
        let at = |q: usize| v[(v.len() * q / 100).min(v.len() - 1)];
        LatencyStats {
            count: v.len() as u64,
            mean_ns: v.iter().sum::<u64>() as f64 / v.len() as f64,
            p50_ns: v[v.len() / 2],
            p90_ns: at(90),
            p99_ns: at(99),
            max_ns: *v.last().unwrap(),
        }
    }
}

/// The submit→ready→start→done→finish stage latencies over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Submission until the dependence count hit zero.
    pub submit_to_ready: LatencyStats,
    /// Ready until a worker picked the task up.
    pub ready_to_start: LatencyStats,
    /// Body execution time.
    pub start_to_done: LatencyStats,
    /// Body return until the dependence tables retired the task.
    pub done_to_finish: LatencyStats,
}

/// The four stages over a set of timelines, each from the tasks that
/// recorded both of its endpoints.
pub(crate) fn breakdown<'a>(
    tls: impl Iterator<Item = &'a TaskTimeline> + Clone,
) -> LatencyBreakdown {
    let stage = |f: fn(&TaskTimeline) -> Option<(u64, u64)>| {
        LatencyStats::from_samples(
            tls.clone()
                .filter_map(f)
                .map(|(a, b)| b.saturating_sub(a))
                .collect(),
        )
    };
    LatencyBreakdown {
        submit_to_ready: stage(|t| Some((t.submitted?, t.ready?))),
        ready_to_start: stage(|t| Some((t.ready?, t.exec_start?))),
        start_to_done: stage(|t| Some((t.exec_start?, t.exec_done?))),
        done_to_finish: stage(|t| Some((t.exec_done?, t.finished?))),
    }
}

/// Compute the per-stage latency breakdown from task timelines.
pub fn latency_breakdown(tl: &BTreeMap<u64, TaskTimeline>) -> LatencyBreakdown {
    breakdown(tl.values())
}

/// The longest realized wake chain in an event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservedCriticalPath {
    /// Number of tasks on the chain (1 = some task ran with no waker).
    pub length: usize,
    /// The chain itself, waker-first.
    pub chain: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, NO_SHARD, NO_TASK, NO_WORKER};

    fn ev(seq: u64, kind: EventKind, task: u64, aux: u64, ts_ns: u64) -> Event {
        Event {
            seq,
            kind,
            task,
            aux,
            shard: NO_SHARD,
            worker: 0,
            ts_ns,
        }
    }

    fn fold(events: &[Event]) -> GraphTracker {
        let mut tracker = GraphTracker::new();
        tracker.apply_batch(events);
        tracker
    }

    #[test]
    fn timelines_and_latencies_add_up() {
        let events = vec![
            ev(0, EventKind::Submitted, 1, NO_TASK, 100),
            ev(1, EventKind::Ready, 1, NO_TASK, 150),
            ev(2, EventKind::ExecStart, 1, NO_TASK, 250),
            ev(3, EventKind::ExecDone, 1, NO_TASK, 650),
            ev(4, EventKind::Finished, 1, NO_TASK, 700),
        ];
        let tl = timelines(&events);
        assert_eq!(tl.len(), 1);
        let b = latency_breakdown(&tl);
        assert_eq!(b.submit_to_ready.max_ns, 50);
        assert_eq!(b.ready_to_start.max_ns, 100);
        assert_eq!(b.start_to_done.max_ns, 400);
        assert_eq!(b.done_to_finish.max_ns, 50);
        assert_eq!(b.start_to_done.count, 1);
        assert_eq!(fold(&events).snapshot().stages, b);
        // A task that never started ran on no worker.
        let submitted_only = timelines(&events[..1]);
        assert_eq!(submitted_only[&1].worker, NO_WORKER);
    }

    #[test]
    fn critical_path_follows_wake_edges() {
        // 1 -> 2 -> 3 (chain), 4 independent.
        let events = vec![
            ev(0, EventKind::Ready, 1, NO_TASK, 0),
            ev(1, EventKind::Ready, 4, NO_TASK, 0),
            ev(2, EventKind::Ready, 2, 1, 10),
            ev(3, EventKind::Ready, 3, 2, 20),
        ];
        let cp = fold(&events).critical_path();
        assert_eq!(cp.length, 3);
        assert_eq!(cp.chain, vec![1, 2, 3]);
    }

    #[test]
    fn deep_chains_do_not_overflow() {
        let n = 100_000u64;
        let mut events = vec![ev(0, EventKind::Ready, 0, NO_TASK, 0)];
        for t in 1..n {
            events.push(ev(t, EventKind::Ready, t, t - 1, t));
        }
        let cp = fold(&events).critical_path();
        assert_eq!(cp.length, n as usize);
        assert_eq!(cp.chain.len(), n as usize);
        assert_eq!(cp.chain[0], 0);
    }

    #[test]
    fn empty_stream_has_empty_path() {
        assert_eq!(fold(&[]).critical_path().length, 0);
        assert!(timelines(&[]).is_empty());
        assert_eq!(
            latency_breakdown(&BTreeMap::new()),
            LatencyBreakdown::default()
        );
    }
}
