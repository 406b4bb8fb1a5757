//! Online ≡ offline: the `Collector`'s live `GraphTracker` — fed
//! incrementally by the background thread while workers are still
//! executing — must apply every event the run recorded, and a fold of
//! the same workload's quiescent drain must not depend on how the
//! stream was cut into batches.
//!
//! Covered matrix: one resolver shard (a single engine) and four,
//! {1, 4} workers. Each configuration also asserts the properties that make the live view *live*:
//!
//! * mid-run, the tracker observes a nonzero number of tasks in the
//!   intermediate states (Stalled / Ready / Running) — it is watching
//!   the run, not summarizing it afterwards;
//! * the state machine sees zero illegal transitions on real streams.
//!
//! A second run of the workload records into a plain `Recorder` and is
//! drained at quiescence; folding that stream in chunks of 1, 7 and 64
//! events must give the snapshot and edge list of folding it whole, so
//! the collector's per-poll batches cannot change what it computes.
//! Agreement alone only shows the tracker agrees with itself, so the
//! live fold is also held to what it did not compute: its wake edges
//! to the runtime's delivered-wake counter, each stage's sample count
//! to the task count, and its critical path to the chain depth.

use nexuspp_core::ShardCapacity;
use nexuspp_obs::{Collector, CollectorReport, GraphTracker, Recorder, TaskState};
use nexuspp_runtime::Runtime;
use nexuspp_sched::SchedulerKind;
use nexuspp_shard::WakeMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHAINS: usize = 8;
const DEPTH: usize = 24;
const INDEPENDENT: usize = 32;
/// Per-task busy time: long enough that the run outlives several
/// collector ticks (2 ms default interval), short enough for CI.
const TASK_SLEEP: Duration = Duration::from_micros(200);

fn task_count() -> u64 {
    (CHAINS * DEPTH + INDEPENDENT) as u64
}

/// Spawn the shared workload: `CHAINS` inout chains of `DEPTH` (every
/// link waits on its predecessor → plenty of Stalled dwell time and wake
/// edges) plus `INDEPENDENT` instantly-ready tasks.
fn spawn_workload(rt: &Runtime) -> Arc<AtomicU64> {
    let executed = Arc::new(AtomicU64::new(0));
    let chains: Vec<_> = (0..CHAINS).map(|_| rt.region(vec![0u64])).collect();
    for _ in 0..DEPTH {
        for r in &chains {
            let executed = Arc::clone(&executed);
            rt.task().inout(r).spawn(move |_| {
                std::thread::sleep(TASK_SLEEP);
                executed.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
    for _ in 0..INDEPENDENT {
        let r = rt.region(vec![0u64]);
        let executed = Arc::clone(&executed);
        rt.task().output(&r).spawn(move |_| {
            std::thread::sleep(TASK_SLEEP);
            executed.fetch_add(1, Ordering::Relaxed);
        });
    }
    executed
}

/// Poll the live tracker until it reports in-flight tasks in the
/// intermediate states, or panic at the deadline.
fn wait_for_mid_flight(collector: &Collector) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = collector.tracker();
        let intermediate = snap.count(TaskState::Stalled)
            + snap.count(TaskState::Ready)
            + snap.count(TaskState::Running);
        if intermediate > 0 && snap.count(TaskState::Finished) < task_count() {
            return intermediate;
        }
        assert!(
            Instant::now() < deadline,
            "live tracker never observed tasks in intermediate states \
             (snapshot: {} seen, {} finished)",
            snap.tasks_seen,
            snap.count(TaskState::Finished)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Post-run assertions shared by every configuration.
fn verify(label: &str, report: &CollectorReport, mid_flight: u64, delivered: u64) {
    assert_eq!(
        report.stream.dropped, 0,
        "{label}: event rings must not overflow"
    );
    // The one live reader applied everything the rings recorded.
    assert_eq!(report.stream.pending, 0, "{label}: nothing held back");
    assert_eq!(
        report.tracker.snapshot().events_applied,
        report.stream.recorded,
        "{label}: every recorded event applied live"
    );

    // The final state is the one a finished run must have.
    let snap = report.tracker.snapshot();
    assert_eq!(snap.count(TaskState::Finished), task_count(), "{label}");
    assert_eq!(snap.in_flight(), 0, "{label}");
    assert_eq!(
        snap.violations, 0,
        "{label}: no illegal transitions on a real stream"
    );
    assert_eq!(snap.tasks_seen, task_count(), "{label}");
    assert!(
        snap.edges > 0,
        "{label}: chain workload must produce wake edges"
    );
    assert!(mid_flight > 0, "{label}");

    // Against the runtime's own counters and the workload's shape.
    assert_eq!(
        snap.edges, delivered,
        "{label}: one wake edge per delivered wake"
    );
    let st = &snap.stages;
    for (stage, s) in [
        ("submit->ready", &st.submit_to_ready),
        ("ready->start", &st.ready_to_start),
        ("start->done", &st.start_to_done),
        ("done->finish", &st.done_to_finish),
    ] {
        assert_eq!(s.count, task_count(), "{label}: {stage} samples");
    }
    let depth = report.tracker.critical_path().length;
    assert!(
        (1..=DEPTH).contains(&depth),
        "{label}: critical path {depth} outside 1..={DEPTH}"
    );
}

/// Record the workload into a plain recorder, drain it at quiescence,
/// and fold it whole and in chunks: every cut must give the same state.
fn check_chunked_fold(label: &str, workers: usize, shards: usize) {
    let rec = Arc::new(Recorder::new(workers));
    let rt = Runtime::with_recorder(
        workers,
        shards,
        SchedulerKind::default(),
        ShardCapacity::Unbounded,
        WakeMode::default(),
        Arc::clone(&rec),
    );
    let executed = spawn_workload(&rt);
    rt.barrier();
    assert_eq!(executed.load(Ordering::Relaxed), task_count());
    drop(rt);
    let events = rec.drain();
    assert_eq!(rec.dropped(), 0, "{label}: event rings must not overflow");
    assert_eq!(events.len() as u64, rec.recorded());

    let mut whole = GraphTracker::new();
    whole.apply_batch(&events);
    assert_eq!(whole.snapshot().violations, 0, "{label}");
    assert_eq!(
        whole.snapshot().count(TaskState::Finished),
        task_count(),
        "{label}"
    );
    for chunk in [1, 7, 64] {
        let mut cut = GraphTracker::new();
        for batch in events.chunks(chunk) {
            cut.apply_batch(batch);
        }
        assert_eq!(
            cut.snapshot(),
            whole.snapshot(),
            "{label}: chunks of {chunk} must fold like the whole stream"
        );
        assert_eq!(
            cut.edges().collect::<Vec<_>>(),
            whole.edges().collect::<Vec<_>>(),
            "{label}: edge lists, chunks of {chunk}"
        );
    }
}

fn check(workers: usize, shards: usize) {
    let label = format!("{shards} shards/{workers}w");
    let collector = Collector::new(Arc::new(Recorder::new(workers)));
    let rt = Runtime::with_observer(workers, shards, ShardCapacity::Unbounded, &collector);
    let executed = spawn_workload(&rt);
    let mid_flight = wait_for_mid_flight(&collector);
    rt.barrier();
    assert_eq!(executed.load(Ordering::Relaxed), task_count());
    let delivered = rt.wake_counts().delivered;
    // Join the workers before stopping the collector so its final poll
    // is a complete quiescent drain (no straggler park events).
    drop(rt);
    let report = collector.finish();

    verify(&label, &report, mid_flight, delivered);
    check_chunked_fold(&label, workers, shards);
}

#[test]
fn sharded_lock_free_live_tracker_matches_quiescent_replay() {
    for workers in [1, 4] {
        check(workers, 4);
    }
}

#[test]
fn single_engine_live_tracker_matches_quiescent_replay() {
    for workers in [1, 4] {
        check(workers, 1);
    }
}
