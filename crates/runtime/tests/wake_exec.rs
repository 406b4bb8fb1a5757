//! End-to-end wake-mode tests for the sharded runtime: the lock-free
//! wake lists and the locked kick-off baseline must compute identical
//! dataflow results under real workers, and the lock-free mode must keep
//! its structural promise (zero shard-lock acquisitions on the wake
//! delivery path) all the way up through the runtime.

use nexuspp_runtime::{Runtime, SchedulerKind, ShardCapacity, WakeMode};

fn wake_fan_in(rt: &Runtime, producers: u32, consumers_per: u32) -> u64 {
    // Each producer seeds a cell; its consumers add into a shared
    // accumulator region of their own; a final sum reduces everything.
    let cells: Vec<_> = (0..producers).map(|_| rt.region(vec![0u64])).collect();
    let acc = rt.region(vec![0u64; producers as usize]);
    for (p, cell) in cells.iter().enumerate() {
        {
            let cell = cell.clone();
            rt.task().output(&cell).spawn(move |t| {
                t.write(&cell)[0] = (p as u64) + 1;
            });
        }
        for _ in 0..consumers_per {
            let cell = cell.clone();
            let acc = acc.clone();
            rt.task().input(&cell).inout(&acc).spawn(move |t| {
                let v = t.read(&cell)[0];
                t.write(&acc)[p] += v;
            });
        }
    }
    rt.barrier();
    rt.with_data(&acc, |v| v.iter().sum())
}

/// Closed form of [`wake_fan_in`]'s result.
fn expected(producers: u32, consumers_per: u32) -> u64 {
    (1..=producers as u64)
        .map(|p| p * consumers_per as u64)
        .sum()
}

#[test]
fn wake_modes_compute_identical_results() {
    for mode in [WakeMode::Locked, WakeMode::LockFree] {
        for workers in [1usize, 4] {
            let rt = Runtime::with_options(
                workers,
                4,
                SchedulerKind::default(),
                ShardCapacity::Unbounded,
                mode,
            );
            assert_eq!(rt.wake_mode(), mode);
            let got = wake_fan_in(&rt, 8, 16);
            assert_eq!(
                got,
                expected(8, 16),
                "{} workers={workers}: fan-in result diverged",
                mode.name()
            );
            let counts = rt.wake_counts();
            assert!(
                counts.delivered >= 8,
                "{}: at least one wake per producer burst must flow \
                 through the dispatcher (got {})",
                mode.name(),
                counts.delivered
            );
        }
    }
}

#[test]
fn lock_free_wake_path_never_touches_a_shard_lock() {
    let rt = Runtime::new(4, 4);
    assert_eq!(rt.wake_mode(), WakeMode::LockFree);
    let got = wake_fan_in(&rt, 16, 8);
    assert_eq!(got, expected(16, 8));
    let counts = rt.wake_counts();
    assert_eq!(
        counts.delivery_lock_acquisitions, 0,
        "the default wake path must deliver without shard-lock acquisitions"
    );
    assert!(counts.delivered > 0 && counts.deliveries > 0);
}

#[test]
fn bounded_capacity_and_lock_free_wakes_compose() {
    // Capacity-1 shards force the stall/retry handshake while the wake
    // path runs lock-free: both features' counters must come out clean.
    for mode in [WakeMode::Locked, WakeMode::LockFree] {
        let rt = Runtime::with_options(
            4,
            2,
            SchedulerKind::default(),
            ShardCapacity::Bounded(1),
            mode,
        );
        let got = wake_fan_in(&rt, 6, 6);
        assert_eq!(got, expected(6, 6), "{}", mode.name());
        for (s, c) in rt.capacity_counts().iter().enumerate() {
            assert_eq!(
                c.stalls_observed,
                c.retries_resolved,
                "{} shard {s}: unresolved stall episodes",
                mode.name()
            );
            assert_eq!(c.resident, 0, "shard {s} leaked residency slots");
        }
    }
}
