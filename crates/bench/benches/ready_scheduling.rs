//! Ready-task scheduling throughput on the imbalanced `steal_stress`
//! workload.
//!
//! Two views:
//!
//! * `sched/*` — the scheduler layer alone, via the chain-stress harness
//!   in `nexuspp_sched::stress` (tasks are a few atomic increments):
//!   pure per-task scheduling overhead.
//! * `runtime/*` — end to end through the runtime at 1 and 4 resolver
//!   shards (engine resolution, region bookkeeping, panic fences
//!   included), so the scheduler's share of total runtime overhead is
//!   visible. One shard is the same code as four.
//!
//! The `mutex-queue` and `single-engine_*` rows kept in
//! `BENCH_ready_scheduling.json` are the last measurements of deleted
//! code (ARCHITECTURE.md, "Retired baselines"); `bench-diff` renders
//! them `removed`.
//!
//! Steal/park counters are printed per configuration so regressions in
//! redistribution (e.g. stealing stops happening) show up even where
//! wall-clock noise hides them.

use criterion::{criterion_group, criterion_main, Criterion};
use nexuspp_bench::steal_driver::run_steal;
use nexuspp_sched::stress::{run_chain_stress, ChainStressSpec};
use nexuspp_workloads::StealStressSpec;

/// Row label: the name the checked-in trajectory knows the scheduler by.
const SCHED: &str = "work-stealing";

fn bench_sched_layer(c: &mut Criterion) {
    let spec = ChainStressSpec {
        workers: 4,
        chains: 8,
        chain_len: 2000,
        spin_ns: 0,
    };
    let mut g = c.benchmark_group("ready_scheduling/sched");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(spec.task_count()));
    // One reporting run outside the timer for the counters.
    let r = run_chain_stress(&spec);
    println!(
        "sched/{SCHED}: {} tasks, {} steals, {} parks, {} unparks",
        r.executed, r.counts.steals, r.counts.parks, r.counts.unparks
    );
    g.bench_function(SCHED, |b| {
        b.iter(|| run_chain_stress(&spec));
    });
    g.finish();
}

fn bench_runtime_level(c: &mut Criterion) {
    let spec = StealStressSpec::for_workers(4, 800);
    let mut g = c.benchmark_group("ready_scheduling/runtime");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(spec.task_count()));
    for shards in [1usize, 4] {
        let r = run_steal(shards, 4, &spec);
        println!(
            "runtime/sharded{shards}/{SCHED}: {} tasks, {} steals",
            r.tasks, r.counts.steals
        );
        g.bench_function(&format!("sharded{shards}_{SCHED}"), |b| {
            b.iter(|| run_steal(shards, 4, &spec));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sched_layer, bench_runtime_level);
criterion_main!(benches);
