//! Resource-versioning frontend: lowering cost and the throughput the
//! renamed encoding buys over the raw (address-reusing) one.
//!
//! Three views over the rename-heavy `version_stress` workload:
//!
//! * `frontend/lower` — pure frontend cost: build the declarative
//!   `Program` and lower it to a `Param` stream, renamed vs raw. This is
//!   the overhead a StarSs master core would pay per task on top of the
//!   hardware submission itself.
//! * `frontend/engine_drain` — drain the lowered stream through the
//!   batch `ShardedEngine` (submit everything, then retire in FIFO
//!   ready order). Same tasks, same true dependencies; the raw encoding
//!   carries the WAW/WAR serialization the renamer deleted, so the
//!   renamed stream exposes strictly more ready work per step.
//! * `frontend/runtime` — end to end on the threaded `Runtime`
//!   via `spawn_lowered` with trivial task bodies: the wall-clock gap
//!   between the two encodings under a real scheduler.
//!
//! The structural ≥ 2× parallelism bar is asserted deterministically in
//! `nexuspp-workloads` (`version_stress` tests and the measured-width
//! integration test); the numbers printed here are the same contrast
//! under criterion timing, persisted to `BENCH_frontend.json` by the CI
//! summary sink.

use criterion::{criterion_group, criterion_main, Criterion};
use nexuspp_frontend::exec::{run_on_engine, run_on_runtime};
use nexuspp_frontend::Lowering;
use nexuspp_runtime::ShardCapacity;
use nexuspp_workloads::VersionStressSpec;

const LOWERINGS: [Lowering; 2] = [Lowering::Renamed, Lowering::Raw];

fn spec() -> VersionStressSpec {
    VersionStressSpec {
        chains: 16,
        chain_len: 16,
        cells: 8,
        steps: 4,
        exec_ns: 0,
    }
}

fn bench_lowering(c: &mut Criterion) {
    let spec = spec();
    let mut g = c.benchmark_group("frontend/lower");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(spec.task_count()));
    for lowering in LOWERINGS {
        g.bench_function(lowering.name(), |b| {
            b.iter(|| spec.lowered(lowering).tasks.len());
        });
    }
    g.finish();
}

fn bench_engine_drain(c: &mut Criterion) {
    let spec = spec();
    let mut g = c.benchmark_group("frontend/engine_drain");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(spec.task_count()));
    for lowering in LOWERINGS {
        let lp = spec.lowered(lowering);
        // One reporting run outside the timer: the ready-width contrast.
        let order = run_on_engine(&lp, 4);
        println!(
            "engine_drain/{}: {} tasks retired, {} true edges",
            lowering.name(),
            order.len(),
            lp.edges.len()
        );
        g.bench_function(lowering.name(), |b| {
            b.iter(|| run_on_engine(&lp, 4).len());
        });
    }
    g.finish();
}

fn bench_runtime_level(c: &mut Criterion) {
    let spec = spec();
    let mut g = c.benchmark_group("frontend/runtime");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(spec.task_count()));
    for lowering in LOWERINGS {
        let lp = spec.lowered(lowering);
        g.bench_function(lowering.name(), |b| {
            b.iter(|| run_on_runtime(&lp, 4, 2, ShardCapacity::Unbounded).len());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_lowering,
    bench_engine_drain,
    bench_runtime_level
);
criterion_main!(benches);
