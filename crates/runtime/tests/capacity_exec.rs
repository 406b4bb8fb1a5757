//! Bounded-capacity execution tests for [`Runtime`]: the
//! capacity-stress DAG (deep `inout` chains fanned out wider than the
//! shard tables) must drain deadlock-free at capacity 1 for every worker
//! count, under a watchdog; stall accounting must balance at quiescence,
//! whether the stalled submitter helped or parked; and shutdown must be
//! clean while a submitter is parked on a full shard.

use nexuspp_core::testsupport::with_watchdog;
use nexuspp_runtime::stress::drive_capacity_stress;
use nexuspp_runtime::{Region, Runtime, ShardCapacity, TaskCtx};
use std::sync::Arc;

fn bounded(workers: usize, shards: usize, limit: usize) -> Runtime {
    Runtime::with_capacity(workers, shards, ShardCapacity::Bounded(limit))
}

#[test]
fn capacity_one_stress_is_deadlock_free_for_every_worker_count() {
    for workers in [1usize, 2, 4, 8] {
        with_watchdog(
            120,
            format!("capacity-1 stress, {workers} workers"),
            move || {
                let rt = bounded(workers, 4, 1);
                assert_eq!(rt.capacity(), ShardCapacity::Bounded(1));
                drive_capacity_stress(&rt, 8, 40);
                let counts = rt.capacity_counts();
                let total_stalls: u64 = counts.iter().map(|c| c.stalls_observed).sum();
                // A stalled submitter helps before it parks; either way
                // the stall is one counted episode.
                assert!(
                    total_stalls > 0,
                    "{workers} workers: a 8-chain fan-out through capacity-1 shards \
                     must stall the submitter"
                );
                for (s, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.stalls_observed, c.retries_resolved,
                        "{workers} workers, shard {s}: unresolved stall episodes"
                    );
                    assert_eq!(c.resident, 0, "{workers} workers, shard {s}: leaked slots");
                }
            },
        );
    }
}

#[test]
fn capacity_two_stress_survives_wider_tables_and_more_chains() {
    with_watchdog(120, "capacity-2 stress", || {
        let rt = bounded(4, 2, 2);
        drive_capacity_stress(&rt, 16, 25);
        for c in rt.capacity_counts() {
            assert_eq!(c.stalls_observed, c.retries_resolved);
        }
    });
}

#[test]
fn unbounded_runtime_reports_zero_stalls() {
    // The default runtime is bounded at Table IV's Task Pool; unbounded
    // shards are asked for explicitly.
    assert_eq!(Runtime::new(1, 1).capacity(), ShardCapacity::Bounded(1024));
    let rt = Runtime::with_capacity(4, 4, ShardCapacity::Unbounded);
    assert_eq!(rt.capacity(), ShardCapacity::Unbounded);
    drive_capacity_stress(&rt, 8, 20);
    for (s, c) in rt.capacity_counts().iter().enumerate() {
        assert_eq!(c.stalls_observed, 0, "shard {s}");
        assert_eq!(c.retries_resolved, 0, "shard {s}");
    }
}

#[test]
fn shutdown_is_clean_while_a_submitter_is_parked() {
    with_watchdog(120, "parked-submitter shutdown", || {
        // One shard, capacity 1: a gate task holds the only slot (its
        // closure blocks on a channel), so a second submission must park.
        let rt = Arc::new(bounded(2, 1, 1));
        let gate: Region<u64> = rt.region(vec![0]);
        let other: Region<u64> = rt.region(vec![0]);
        let (open_tx, open_rx) = std::sync::mpsc::sync_channel::<()>(1);
        {
            let gate = gate.clone();
            rt.task().inout(&gate).spawn(move |t| {
                open_rx.recv().expect("gate signal");
                t.write(&gate)[0] = 7;
            });
        }
        let submitter = {
            let rt = Arc::clone(&rt);
            let other = other.clone();
            std::thread::spawn(move || {
                // Parks: the single shard's slot is held by the gate task.
                let other2 = other.clone();
                rt.task().inout(&other).spawn(move |t| {
                    t.write(&other2)[0] = 9;
                });
            })
        };
        // Deterministic rendezvous: the park is observed before the gate
        // opens, so the stall is real, then resolves through the finish
        // report while the runtime shuts down normally afterwards.
        while rt.capacity_counts()[0].stalls_observed == 0 {
            std::thread::yield_now();
        }
        open_tx.send(()).expect("worker waits on the gate");
        submitter.join().expect("parked submitter must resume");
        rt.barrier();
        assert_eq!(rt.with_data(&gate, |v| v[0]), 7);
        assert_eq!(rt.with_data(&other, |v| v[0]), 9);
        let c = &rt.capacity_counts()[0];
        assert_eq!((c.stalls_observed, c.retries_resolved), (1, 1));
        drop(rt); // workers join; Drop must not hang or panic
    });
}

#[test]
fn every_spawn_flavour_goes_through_one_accounted_submission_path() {
    use nexuspp_core::{nth_addr_on_shard, TaskBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    with_watchdog(120, "unified submission path", || {
        let rt = Arc::new(bounded(2, 2, 1));
        let ran = Arc::new(AtomicU64::new(0));
        let body = || {
            let ran = Arc::clone(&ran);
            move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        };
        let on_shard0 = |tag: u64| {
            let addr = nth_addr_on_shard(0, 2, tag as u32);
            TaskBuilder::new(0).tag(tag).read_writes(addr, 8).build()
        };
        let retry = |p| match rt.try_respawn(p) {
            Ok(()) => None,
            Err((e, p)) if e.is_retryable() => Some(p),
            Err((e, _)) => panic!("non-retryable rejection: {e:?}"),
        };

        // Builder spawns (blocking path): self-draining, so a park on a
        // full shard resolves by itself.
        let cell: Region<u64> = rt.region(vec![0]);
        for _ in 0..2 {
            let (cell2, run) = (cell.clone(), body());
            rt.task().inout(&cell).spawn(move |t| {
                t.write(&cell2)[0] += 1;
                run();
            });
        }
        // A gate holds shard 0's only slot (blocking lowered path).
        let (open_tx, open_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let run = body();
        rt.spawn_lowered(on_shard0(100), move || {
            open_rx.recv().expect("gate signal");
            run();
        });
        assert_eq!(rt.submitted(), 3);

        // Non-blocking path against the full shard: handed back intact,
        // retryable, and not counted.
        let run = body();
        let job = Box::new(move |_: &TaskCtx| run());
        let Err((e, mut pending)) = rt.try_spawn_lowered(on_shard0(101), job) else {
            panic!("shard 0 is full: the submission must be rejected");
        };
        assert!(e.is_retryable() && e.shard() == Some(0), "{e:?}");
        assert_eq!((pending.tag(), rt.submitted()), (101, 3));

        // A barrier racing further rejections must return as soon as the
        // admitted tasks retire: a rejected task is never pending.
        let (at_barrier_tx, at_barrier_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let barrier = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                at_barrier_tx.send(()).expect("main thread listens");
                rt.barrier();
            })
        };
        at_barrier_rx.recv().expect("barrier thread started");
        for _ in 0..50 {
            pending = retry(pending).expect("the gate still holds shard 0's slot");
        }
        let run = body();
        rt.task().spawn(move |_| run());
        assert_eq!(rt.submitted(), 4);
        open_tx.send(()).expect("gate body waits");
        barrier
            .join()
            .expect("barrier must not wait for a rejected task");

        // The slot frees with the gate's finish: the same PendingSpawn
        // is admitted, and counted, exactly once.
        while let Some(p) = retry(pending) {
            pending = p;
            std::thread::yield_now();
        }
        rt.spawn_lowered(on_shard0(102), body());
        rt.barrier();
        assert_eq!((rt.submitted(), ran.load(Ordering::SeqCst)), (6, 6));
        assert_eq!(rt.with_data(&cell, |v| v[0]), 2);

        // Explicit shutdown joins the workers; a second one (and the
        // drop after it) finds none left and reports the same totals.
        let report = rt.shutdown();
        assert!(report.graceful);
        assert_eq!((report.executed, report.cancelled), (6, 0));
        assert_eq!(rt.shutdown(), report);
        drop(rt);
    });
}

#[test]
fn a_body_that_panics_on_the_help_path_is_reraised_once() {
    with_watchdog(60, "panicking body on the help path", || {
        // No workers and one slot: every body runs on the spawning thread,
        // through the help step of a blocking spawn or through `wait_on`.
        let rt = bounded(0, 1, 1);
        let cell: Region<u64> = rt.region(vec![1]);
        rt.task().inout(&cell).spawn(|_| panic!("first link fails"));
        for step in [2u64, 3] {
            let cell2 = cell.clone();
            rt.task().inout(&cell).spawn(move |t| {
                t.write(&cell2)[0] = step;
            });
        }
        rt.wait_on(&cell);
        // The later links found the slot taken and ran the ready link
        // before them: the first body panicked inside a spawn.
        let c = &rt.capacity_counts()[0];
        assert!(c.stalls_observed >= 2, "{c:?}");
        assert_eq!(c.stalls_observed, c.retries_resolved);

        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.barrier()))
            .expect_err("the barrier re-raises the body's panic");
        let msg = raised
            .downcast_ref::<String>()
            .expect("re-raised with a formatted message");
        assert!(msg.contains("first link fails"), "{msg}");
        rt.barrier(); // re-raised once, not again

        // The chain's value survives the failed link, and the runtime
        // still admits and runs a task on it.
        let cell2 = cell.clone();
        rt.task().inout(&cell).spawn(move |t| {
            t.write(&cell2)[0] *= 10;
        });
        rt.wait_on(&cell);
        assert_eq!(rt.with_data(&cell, |v| v[0]), 30);

        let report = rt.shutdown();
        assert!(report.graceful);
        assert_eq!(report.cancelled, 0);
        // Four tasks and the two `wait_on` probes.
        assert_eq!(report.executed, rt.submitted());
        assert_eq!(report.executed, 6);
    });
}
