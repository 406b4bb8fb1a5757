//! Regression tests for the two historical `wait_on` defects plus the
//! explicit shutdown hooks, at one resolver shard and at four:
//!
//! 1. **Teardown panic** — `rx.recv().expect("wait_on probe vanished")`
//!    panicked when the runtime tore down with the waiter still blocked
//!    (the probe task dropped unexecuted). The waiter must now return
//!    cleanly, both when the runtime is dropped under it and when a
//!    hard-deadline shutdown cancels the probe.
//! 2. **Worker starvation** — the waiter used to block on a channel
//!    instead of helping. It is now scheduler-aware: a graph completes
//!    at `workers == 0` with a single waiter executing everything, and
//!    so does a graph longer than the default per-shard bound, whose
//!    stalled spawns help the same way.
//!
//! Plus: `barrier()` and the drop drain a zero-worker runtime on the
//! waiting thread, explicit `shutdown()` reports every task executed, and
//! `shutdown_deadline()` past its deadline cancel-finishes queued
//! bodies exactly once (executed + cancelled == submitted).

use nexuspp_core::testsupport::with_watchdog;
use nexuspp_runtime::Runtime;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A chain of `len` inout tasks over one region; returns the counter
/// every task bumps.
fn spawn_chain(rt: &Runtime, region: &nexuspp_runtime::Region<u64>, len: u64) -> Arc<AtomicU64> {
    let ran = Arc::new(AtomicU64::new(0));
    for _ in 0..len {
        let r = region.clone();
        let ran = Arc::clone(&ran);
        rt.task().inout(region).spawn(move |t| {
            let mut v = t.write(&r);
            v[0] += 1;
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    ran
}

fn waiter_executes_the_graph_at_zero_workers(shards: usize) {
    with_watchdog(60, format!("{shards}-shard zero-worker"), move || {
        let rt = Runtime::new(0, shards);
        let region = rt.region(vec![0u64]);
        let ran = spawn_chain(&rt, &region, 64);
        // The only thread able to execute anything is this waiter.
        rt.wait_on(&region);
        assert_eq!(ran.load(Ordering::SeqCst), 64);
        assert_eq!(rt.with_data(&region, |v| v[0]), 64);
    });
}

/// With no workers, the thread that waits for quiescence is the only
/// one able to run a task: `barrier` and the drop must run them rather
/// than park.
#[test]
fn barrier_and_drop_drain_a_zero_worker_runtime() {
    with_watchdog(60, "zero-worker barrier and drop", || {
        let rt = Runtime::new(0, 2);
        let region = rt.region(vec![0u64]);
        let ran = spawn_chain(&rt, &region, 8);
        rt.barrier();
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        assert_eq!(rt.with_data(&region, |v| v[0]), 8);
        let ran = spawn_chain(&rt, &region, 8);
        drop(rt);
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    });
}

#[test]
fn waiter_executes_the_graph_at_zero_workers_single_engine() {
    waiter_executes_the_graph_at_zero_workers(1);
}

#[test]
fn waiter_executes_the_graph_at_zero_workers_sharded() {
    waiter_executes_the_graph_at_zero_workers(4);
}

/// A zero-worker runtime at its default per-shard bound: a chain three
/// times the bound long fills its one shard, so every spawn past the
/// bound stalls, and the spawning thread must run the chain's head to
/// free a slot. Then the waiter runs the rest.
#[test]
fn spawns_past_the_default_bound_help_at_zero_workers() {
    with_watchdog(60, "zero-worker chain past the bound".to_string(), || {
        let rt = Runtime::new(0, 1);
        let bound = rt.capacity().limit().expect("bounded by default") as u64;
        let region = rt.region(vec![0u64]);
        let ran = spawn_chain(&rt, &region, 3 * bound);
        assert!(
            ran.load(Ordering::SeqCst) >= 2 * bound,
            "the spawner ran the overflow"
        );
        rt.wait_on(&region);
        assert_eq!(ran.load(Ordering::SeqCst), 3 * bound);
        assert_eq!(rt.with_data(&region, |v| v[0]), 3 * bound);
        let c = &rt.capacity_counts()[0];
        assert!(c.stalls_observed > 0);
        assert_eq!(c.stalls_observed, c.retries_resolved);
    });
}

#[test]
fn dropping_the_runtime_under_a_parked_waiter_is_clean() {
    with_watchdog(60, "drop under waiter".to_string(), move || {
        let rt = Arc::new(Runtime::new(2, 4));
        let region = rt.region(vec![0u64]);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let r = region.clone();
            let gate = Arc::clone(&gate);
            rt.task().inout(&region).spawn(move |t| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                t.write(&r)[0] = 7;
            });
        }
        let waiter = {
            let rt = Arc::clone(&rt);
            let region = region.clone();
            std::thread::spawn(move || rt.wait_on(&region))
        };
        // Let the waiter park behind the gated producer, then drop
        // the main handle: the waiter thread now owns the runtime,
        // so the full teardown (drain + worker join) runs on the
        // thread that was parked. It must return normally — never
        // panic, never deadlock joining itself.
        std::thread::sleep(Duration::from_millis(20));
        gate.store(true, Ordering::SeqCst);
        drop(rt);
        waiter.join().expect("waiter must not panic on teardown");
    });
}

#[test]
fn hard_deadline_shutdown_cancels_the_probe_and_the_waiter_returns() {
    with_watchdog(60, "abort under waiter".to_string(), move || {
        let rt = Arc::new(Runtime::new(1, 4));
        let region = rt.region(vec![0u64]);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let r = region.clone();
            let gate = Arc::clone(&gate);
            rt.task().inout(&region).spawn(move |t| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                t.write(&r)[0] = 7;
            });
        }
        let waiter = {
            let rt = Arc::clone(&rt);
            let region = region.clone();
            std::thread::spawn(move || rt.wait_on(&region))
        };
        std::thread::sleep(Duration::from_millis(20));
        // Producer still gated: the deadline elapses, the abort path
        // engages. Release the gate afterwards so the running body
        // finishes; the woken probe then cancel-finishes (dropping
        // its sender) and the parked waiter must return cleanly —
        // this is the exact disconnect that used to panic.
        let release = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                gate.store(true, Ordering::SeqCst);
            })
        };
        let report = rt.shutdown_deadline(Duration::from_millis(30));
        assert!(!report.graceful, "deadline should have fired");
        assert_eq!(report.executed, 1, "the gated producer ran");
        assert_eq!(report.cancelled, 1, "the probe was cancelled");
        waiter
            .join()
            .expect("waiter must not panic when its probe is cancelled");
        release.join().unwrap();
    });
}

#[test]
fn graceful_shutdown_reports_everything_executed() {
    for shards in [1, 4] {
        let rt = Runtime::new(2, shards);
        let region = rt.region(vec![0u64]);
        let ran = spawn_chain(&rt, &region, 32);
        let report = rt.shutdown();
        assert!(report.graceful);
        assert_eq!(report.executed, 32);
        assert_eq!(report.cancelled, 0);
        assert_eq!(ran.load(Ordering::SeqCst), 32);
    }
}

#[test]
fn sharded_hard_deadline_splits_executed_and_cancelled_exactly_once() {
    with_watchdog(60, "sharded deadline split", || {
        let rt = Runtime::new(1, 4);
        let region = rt.region(vec![0u64]);
        let gate = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicU64::new(0));
        // One gated head task, then a chain behind it. Everything behind
        // the head is queued or parked when the deadline fires.
        {
            let r = region.clone();
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            rt.task().inout(&region).spawn(move |t| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                t.write(&r)[0] += 1;
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..15 {
            let r = region.clone();
            let ran = Arc::clone(&ran);
            rt.task().inout(&region).spawn(move |t| {
                t.write(&r)[0] += 1;
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        let release = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(80));
                gate.store(true, Ordering::SeqCst);
            })
        };
        let report = rt.shutdown_deadline(Duration::from_millis(20));
        release.join().unwrap();
        assert!(!report.graceful);
        assert_eq!(
            report.executed + report.cancelled,
            16,
            "every submitted task retires exactly once"
        );
        assert_eq!(report.executed, ran.load(Ordering::SeqCst));
        assert!(report.cancelled >= 1, "the queued chain was cancelled");
    });
}
