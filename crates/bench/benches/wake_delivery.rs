//! Wake-delivery performance on the wide fan-in `wake_stress` workload.
//!
//! Two views:
//!
//! * `wake_delivery/dispatcher` — the threaded `ShardDispatcher` alone,
//!   via the harness in `nexuspp_shard::stress` (payloads are `u64`s):
//!   4 finisher workers hammer one hot shard (256 producers × 24
//!   consumers each). What is timed (via `iter_custom`) is the
//!   dispatcher's own `delivery_ns` counter — the drain-to-report step
//!   — NOT whole-run wall clock, which on a small host is pinned by
//!   resolution and blind to the delivery path.
//! * `wake_delivery/runtime` — end to end through `Runtime`
//!   (work-stealing scheduler, region bookkeeping, real closures), so
//!   the wake path's share of total runtime overhead is visible. Here
//!   wall clock is the right measure.
//!
//! The `locked` rows kept in `BENCH_wake_delivery.json` are the last
//! measurements of the deleted locked kick-off path (ARCHITECTURE.md,
//! "Retired baselines"); `bench-diff` renders them `removed`.

use criterion::{criterion_group, criterion_main, Criterion};
use nexuspp_runtime::Runtime;
use nexuspp_shard::stress::{run_wake_stress, WakeStressSpec};
use std::time::Duration;

/// Row label: the name the checked-in trajectory knows the wake path by.
const WAKES: &str = "lock-free";

fn bench_dispatcher_layer(c: &mut Criterion) {
    // 4 finishers racing 256 bursts of 24 wakes through one hot shard.
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
    // One reporting run outside the timer for the counters.
    let r = run_wake_stress(&spec);
    println!(
        "dispatcher/{WAKES}: {} wakes, delivery {:?}, wall {:?}",
        r.woken,
        r.delivery_time(),
        r.elapsed
    );
    g.bench_function(WAKES, |b| {
        b.iter_custom(|iters| {
            let mut delivery = Duration::ZERO;
            for _ in 0..iters {
                delivery += run_wake_stress(&spec).delivery_time();
            }
            delivery
        });
    });
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
    g.bench_function(WAKES, |b| {
        b.iter(|| {
            let rt = Runtime::new(4, 4);
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
    g.finish();
}

criterion_group!(benches, bench_dispatcher_layer, bench_runtime_level);
criterion_main!(benches);
