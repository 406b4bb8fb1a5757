//! Wake-delivery performance: locked kick-off lists vs lock-free wake
//! lists on the wide fan-in `wake_stress` workload.
//!
//! Two views:
//!
//! * `wake_delivery/dispatcher` — the threaded `ShardDispatcher` alone,
//!   via the harness in `nexuspp_shard::stress` (payloads are `u64`s):
//!   4 finisher workers hammer one hot shard at the **same contended
//!   configuration the ≥ 1.3× acceptance gate measures** (256
//!   producers × 24 consumers each). What is timed (via `iter_custom`)
//!   is the dispatcher's own `delivery_ns` counter — the drain-to-
//!   report step the gate compares — NOT whole-run wall clock. The two
//!   wake modes do identical resolution work, so wall clock around the
//!   full run is mode-blind (on a small host it is pinned by
//!   resolution) and an earlier configuration of this bench recorded
//!   exactly that: locked ≈ lock-free to within 0.4%. Timing the
//!   delivery step itself makes the trajectory reflect the quantity
//!   the gate holds at ≥ 1.3×.
//! * `wake_delivery/runtime` — end to end through `Runtime`
//!   (work-stealing scheduler, region bookkeeping, real closures), so
//!   the wake path's share of total runtime overhead is visible. Here
//!   wall clock is the right measure and near-parity is the expected
//!   reading.
//!
//! Delivery time and lock-acquisition counters are printed per
//! configuration so a lock sneaking back into the wake path shows up
//! even where wall-clock noise hides it.

use criterion::{criterion_group, criterion_main, Criterion};
use nexuspp_runtime::{Runtime, SchedulerKind, ShardCapacity};
use nexuspp_shard::stress::{run_wake_stress, WakeStressSpec};
use nexuspp_shard::WakeMode;
use std::time::Duration;

const MODES: [WakeMode; 2] = [WakeMode::Locked, WakeMode::LockFree];

fn bench_dispatcher_layer(c: &mut Criterion) {
    // The wake_perf gate's spec: 4 finishers racing 256 bursts of 24
    // wakes through one hot shard.
    let spec = WakeStressSpec {
        finishers: 4,
        producers: 256,
        consumers_per: 24,
        shards: 4,
        spin_ns: 0,
    };
    let mut g = c.benchmark_group("wake_delivery/dispatcher");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(spec.wake_count()));
    for mode in MODES {
        // One reporting run outside the timer for the counters.
        let r = run_wake_stress(mode, &spec);
        println!(
            "dispatcher/{}: {} wakes, delivery {:?}, wall {:?}, {} delivery lock acquisitions",
            mode.name(),
            r.woken,
            r.delivery_time(),
            r.elapsed,
            r.wake_counts.delivery_lock_acquisitions
        );
        g.bench_function(mode.name(), |b| {
            b.iter_custom(|iters| {
                let mut delivery = Duration::ZERO;
                for _ in 0..iters {
                    delivery += run_wake_stress(mode, &spec).delivery_time();
                }
                delivery
            });
        });
    }
    g.finish();
}

fn bench_runtime_level(c: &mut Criterion) {
    let mut g = c.benchmark_group("wake_delivery/runtime");
    g.sample_size(5);
    let producers = 32u32;
    let consumers_per = 16u32;
    g.throughput(criterion::Throughput::Elements(
        producers as u64 * consumers_per as u64,
    ));
    for mode in MODES {
        g.bench_function(mode.name(), |b| {
            b.iter(|| {
                let rt = Runtime::with_options(
                    4,
                    4,
                    SchedulerKind::default(),
                    ShardCapacity::Unbounded,
                    mode,
                );
                let cells: Vec<_> = (0..producers).map(|_| rt.region(vec![0u64])).collect();
                for cell in &cells {
                    {
                        let cell = cell.clone();
                        rt.task().output(&cell).spawn(move |t| {
                            t.write(&cell)[0] = 1;
                        });
                    }
                    for _ in 0..consumers_per {
                        let cell = cell.clone();
                        rt.task().input(&cell).spawn(move |t| {
                            assert_eq!(t.read(&cell)[0], 1);
                        });
                    }
                }
                rt.barrier();
                rt.wake_counts().delivered
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dispatcher_layer, bench_runtime_level);
criterion_main!(benches);
