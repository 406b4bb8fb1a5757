//! Events ≡ counters: the lifecycle event stream and the runtime's
//! atomic counters are two independent records of the same execution;
//! at quiescence they must agree exactly.
//!
//! Covered matrix: one resolver shard (a single engine) and four,
//! {1, 2, 4, 8} workers. Each run also checks the strict per-task lifecycle ordering the recorder's global
//! sequence promises: `Submitted < DepCheckStart < DepCheckDone < Ready
//! < ExecStart < ExecDone < Finished` on `seq`.

use nexuspp_core::ShardCapacity;
use nexuspp_obs::{Event, EventKind, Recorder, NO_TASK};
use nexuspp_runtime::Runtime;
use nexuspp_sched::SchedulerKind;
use nexuspp_shard::WakeMode;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHAINS: usize = 8;
const DEPTH: usize = 24;
const INDEPENDENT: usize = 32;

fn task_count() -> u64 {
    (CHAINS * DEPTH + INDEPENDENT) as u64
}

fn count(events: &[Event], kind: EventKind) -> u64 {
    events.iter().filter(|e| e.kind == kind).count() as u64
}

/// Strict per-task lifecycle ordering on the global sequence.
fn check_per_task_order(events: &[Event]) {
    let mut per_task: BTreeMap<u64, Vec<(EventKind, u64)>> = BTreeMap::new();
    for e in events {
        if e.task != NO_TASK {
            per_task.entry(e.task).or_default().push((e.kind, e.seq));
        }
    }
    let chain = [
        EventKind::Submitted,
        EventKind::DepCheckStart,
        EventKind::DepCheckDone,
        EventKind::Ready,
        EventKind::ExecStart,
        EventKind::ExecDone,
        EventKind::Finished,
    ];
    assert_eq!(per_task.len() as u64, task_count());
    for (task, evs) in per_task {
        let mut last = None;
        for k in chain {
            let seq = evs
                .iter()
                .find(|(ek, _)| *ek == k)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("task {task} missing {}", k.name()));
            if let Some(prev) = last {
                assert!(
                    prev < seq,
                    "task {task}: {} out of order (seq {prev} !< {seq})",
                    k.name()
                );
            }
            last = Some(seq);
        }
    }
}

/// Drain until the scheduler's `parks` counter and the stream's
/// scheduler-idle `Stalled` events agree (workers may still be settling
/// into their final park when the barrier returns).
fn drain_until_parks_settle(
    rec: &Recorder,
    parks: impl Fn() -> u64,
    mut events: Vec<Event>,
) -> Vec<Event> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        events.extend(rec.drain());
        let stalled = events
            .iter()
            .filter(|e| e.kind == EventKind::Stalled && e.task == NO_TASK)
            .count() as u64;
        let p = parks();
        if stalled == p {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "parks ({p}) and scheduler Stalled events ({stalled}) never converged"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    events.sort_by_key(|e| e.seq);
    events
}

/// Lifecycle invariants of one run. `scheduler_submitted` is
/// the scheduler's own spawn-side counter; it must equal the number of
/// tasks whose `Ready` event carries no waker (ready at submission).
fn check_common(events: &[Event], steals: u64, scheduler_submitted: u64) {
    let n = task_count();
    for k in [
        EventKind::Submitted,
        EventKind::DepCheckStart,
        EventKind::DepCheckDone,
        EventKind::Ready,
        EventKind::ExecStart,
        EventKind::ExecDone,
        EventKind::Finished,
    ] {
        assert_eq!(count(events, k), n, "{} count", k.name());
    }
    let ready_at_submit = events
        .iter()
        .filter(|e| e.kind == EventKind::Ready && e.aux == NO_TASK)
        .count() as u64;
    let woken = events
        .iter()
        .filter(|e| e.kind == EventKind::Ready && e.aux != NO_TASK)
        .count() as u64;
    assert_eq!(ready_at_submit + woken, n);
    assert_eq!(
        ready_at_submit, scheduler_submitted,
        "tasks ready at submission == scheduler spawn-side submissions"
    );
    // Every chain head and every independent task is ready at
    // submission; a chain task whose predecessor already retired before
    // it was submitted legitimately joins them, so this is a floor, not
    // an exact count.
    assert!(ready_at_submit >= (CHAINS + INDEPENDENT) as u64);
    assert_eq!(count(events, EventKind::Stolen), steals, "steals");
    check_per_task_order(events);
}

fn run(workers: usize, shards: usize) {
    let rec = Arc::new(Recorder::new(workers));
    let rt = Runtime::with_recorder(
        workers,
        shards,
        SchedulerKind::default(),
        ShardCapacity::Unbounded,
        WakeMode::default(),
        Arc::clone(&rec),
    );
    let executed = Arc::new(AtomicU64::new(0));
    let chains: Vec<_> = (0..CHAINS).map(|_| rt.region(vec![0u64])).collect();
    for _ in 0..DEPTH {
        for r in &chains {
            let executed = Arc::clone(&executed);
            rt.task().inout(r).spawn(move |_| {
                executed.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
    for _ in 0..INDEPENDENT {
        let r = rt.region(vec![0u64]);
        let executed = Arc::clone(&executed);
        rt.task().output(&r).spawn(move |_| {
            executed.fetch_add(1, Ordering::Relaxed);
        });
    }
    rt.barrier();
    assert_eq!(executed.load(Ordering::Relaxed), task_count());

    let events = drain_until_parks_settle(&rec, || rt.sched_counts().parks, Vec::new());
    assert_eq!(rec.dropped(), 0, "event rings must not overflow");

    let sched = rt.sched_counts();
    let wake = rt.wake_counts();
    check_common(&events, sched.steals, sched.submitted);
    // Wake-path equivalence: every wake record the dispatcher delivered
    // appears as one WakePosted and one WakeDelivered event.
    assert_eq!(count(&events, EventKind::WakePosted), wake.delivered);
    assert_eq!(count(&events, EventKind::WakeDelivered), wake.delivered);
    // ... and belongs to exactly one task that parked at submission
    // (i.e. whose Ready names a waker).
    let woken = events
        .iter()
        .filter(|e| e.kind == EventKind::Ready && e.aux != NO_TASK)
        .count() as u64;
    assert_eq!(woken, wake.delivered);
    // The registry sees the same totals through its snapshot surface.
    // Idle workers keep emitting park events, so `recorded` is still
    // moving: the snapshot's reading lies between one taken before it
    // and one taken after.
    let recorded_before = rec.recorded();
    let snap = rt.metrics().snapshot();
    let recorded_after = rec.recorded();
    assert_eq!(snap.get("tasks", "submitted"), Some(task_count()));
    assert_eq!(snap.get("wake", "delivered"), Some(wake.delivered));
    let recorded = snap.get("events", "recorded").expect("recorder attached");
    assert!(
        (recorded_before..=recorded_after).contains(&recorded),
        "snapshot read {recorded} events, outside {recorded_before}..={recorded_after}"
    );
    drop(rt);
}

#[test]
fn sharded_lock_free_events_match_counters() {
    for workers in [1, 2, 4, 8] {
        run(workers, 4);
    }
}

#[test]
fn single_engine_events_match_counters() {
    for workers in [1, 2, 4, 8] {
        run(workers, 1);
    }
}
