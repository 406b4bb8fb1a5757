//! The `pending` counter and its waiter-gated `quiescent` notify.
//!
//! A retirement that takes `pending` to 0 notifies the runtime's
//! `EventCount`, which takes no lock unless a thread is counted inside
//! its `wait`. If that check could lose a wake, a `barrier()` would
//! sleep forever with nothing left to retire — so these tests drive the
//! count across 0 thousands of times with barriers racing every
//! crossing, under a watchdog.

use nexuspp_core::testsupport::with_watchdog;
use nexuspp_core::TaskBuilder;
use nexuspp_runtime::Runtime;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `spawners` threads each loop burst-then-barrier while `waiters` more
/// threads loop `barrier()` alone. A lone spawner is the sharp case: a
/// wake lost on its burst's last retirement has no later retirement by
/// anyone else to make up for it. The crowded case is the one where
/// registrations, crossings and notifies all overlap.
fn barriers_race_zero_crossings(shards: usize, spawners: u64, waiters: usize) {
    const BURSTS: u64 = 3000;
    let name = format!("{shards}-shard barrier race, {spawners} spawners, {waiters} waiters");
    with_watchdog(120, name, move || {
        let rt = Arc::new(Runtime::new(2, shards));
        let spawning = Arc::new(AtomicBool::new(true));
        // Pure waiters: barrier after barrier while the count bounces.
        let waiters: Vec<_> = (0..waiters)
            .map(|_| {
                let (rt, spawning) = (Arc::clone(&rt), Arc::clone(&spawning));
                std::thread::spawn(move || {
                    let mut returned = 0u64;
                    while spawning.load(Ordering::SeqCst) {
                        rt.barrier();
                        returned += 1;
                    }
                    returned
                })
            })
            .collect();
        // Spawners: a burst of 1-3 zero-grain tasks, then a barrier that
        // must not return before the burst has run.
        let spawners: Vec<_> = (0..spawners)
            .map(|s| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    let ran = Arc::new(AtomicU64::new(0));
                    let mut spawned = 0u64;
                    for burst in 0..BURSTS {
                        for i in 0..=(burst % 3) {
                            let ran = Arc::clone(&ran);
                            let sub = TaskBuilder::new(1)
                                .tag(spawned)
                                .read_writes((s << 32) | i, 8)
                                .build();
                            rt.spawn_lowered(sub, move || {
                                ran.fetch_add(1, Ordering::SeqCst);
                            });
                            spawned += 1;
                        }
                        rt.barrier();
                        assert_eq!(
                            ran.load(Ordering::SeqCst),
                            spawned,
                            "barrier returned before burst {burst} retired"
                        );
                    }
                    spawned
                })
            })
            .collect();
        let spawned: u64 = spawners.into_iter().map(|h| h.join().unwrap()).sum();
        spawning.store(false, Ordering::SeqCst);
        for w in waiters {
            assert!(w.join().unwrap() > 0);
        }
        let report = rt.shutdown();
        assert!(report.graceful);
        assert_eq!(report.executed, spawned);
    });
}

#[test]
fn barriers_race_zero_crossings_single_engine() {
    barriers_race_zero_crossings(1, 1, 0);
    barriers_race_zero_crossings(1, 2, 2);
}

#[test]
fn barriers_race_zero_crossings_sharded() {
    barriers_race_zero_crossings(4, 1, 0);
    barriers_race_zero_crossings(4, 2, 2);
}

#[test]
fn hard_deadline_shutdown_releases_a_parked_barrier() {
    with_watchdog(60, "deadline vs parked barrier", || {
        let rt = Arc::new(Runtime::new(1, 4));
        let gate = Arc::new(AtomicBool::new(false));
        // A gated head and a chain behind it: the deadline fires with
        // the head running, so the chain cancel-finishes.
        for i in 0..8u64 {
            let gate = Arc::clone(&gate);
            let sub = TaskBuilder::new(1).tag(i).read_writes(7, 8).build();
            rt.spawn_lowered(sub, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        // Two waiters share the eventcount: this barrier and the shutdown.
        let parked = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || rt.barrier())
        };
        let release = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                gate.store(true, Ordering::SeqCst);
            })
        };
        let report = rt.shutdown_deadline(Duration::from_millis(20));
        assert!(!report.graceful, "deadline should have fired");
        assert_eq!(report.executed + report.cancelled, 8, "{report:?}");
        assert!(report.executed >= 1, "the gated head ran");
        parked.join().unwrap();
        release.join().unwrap();
    });
}
