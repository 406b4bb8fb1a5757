//! Per-layer measurements of the threaded workloads, all from outside
//! the crates: spans round `spawn_lowered`/`barrier`, the public
//! counters, rounds with a `Recorder` attached, and single-thread
//! replays that feed the same submission stream to one inner layer
//! alone, on the generator thread, FIFO over the ready set.

use crate::body::BodyState;
use crate::harness::{Ctx, SHARDS, WORKERS};
use crate::metrics::Samples;
use crate::stats;
use nexuspp_core::{DependencyEngine, NexusConfig, Priority, ShardCapacity};
use nexuspp_frontend::LoweredProgram;
use nexuspp_obs::{latency_breakdown, timelines, Recorder};
use nexuspp_runtime::ShardedRuntime;
use nexuspp_sched::{Scheduler, SchedulerKind};
use nexuspp_shard::{ShardDispatcher, WakeMode};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Submit the whole stream with `spawn_lowered`, then `barrier`; the
/// two calls are the `runtime.spawn` and `runtime.barrier` spans.
/// Returns the time spent in each.
pub fn runtime_round(
    rt: &ShardedRuntime,
    lp: &LoweredProgram,
    body: &'static BodyState,
    ctx: &mut Ctx,
    parent: usize,
) -> (Duration, Duration) {
    let ((), spawn) = ctx.span("runtime.spawn", parent, || {
        for sub in lp.tasks.iter().cloned() {
            let tag = sub.tag;
            rt.spawn_lowered(sub, move || body.run(tag));
        }
    });
    let ((), barrier) = ctx.span("runtime.barrier", parent, || rt.barrier());
    (spawn, barrier)
}

/// The per-round runtime samples both batch workloads and the
/// `stack_stream` runtime replay report.
pub fn sample_runtime_round(s: &mut Samples, tasks: usize, spawn: Duration, barrier: Duration) {
    let n = tasks as f64;
    s.add("runtime.spawn_ns_per_task", spawn.as_nanos() as f64 / n);
    s.add(
        "runtime.submit_share",
        spawn.as_secs_f64() / (spawn + barrier).as_secs_f64(),
    );
    s.add("runtime.barrier_tail_ms", barrier.as_secs_f64() * 1e3);
}

/// Read the wake-path and scheduler counters of a threaded run. They
/// are cumulative, so ratios are over everything `rt` ever ran.
pub fn sample_runtime_counters(s: &mut Samples, rt: &ShardedRuntime) {
    let tasks = rt.submitted().max(1) as f64;
    let wake = rt.wake_counts();
    s.add(
        "shard.wake_delivery_ns_per_wake",
        wake.delivery_ns as f64 / wake.delivered.max(1) as f64,
    );
    s.add(
        "shard.delivery_lock_acquisitions",
        wake.delivery_lock_acquisitions as f64,
    );
    let sc = rt.sched_counts();
    s.add(
        "sched.steal_ratio",
        sc.steals as f64 / sc.dispatched().max(1) as f64,
    );
    s.add("sched.parks_per_ktask", sc.parks as f64 * 1e3 / tasks);
    s.add("sched.unparks_per_ktask", sc.unparks as f64 * 1e3 / tasks);
    s.add(
        "sched.wake_batch_size",
        sc.local_pushes as f64 / sc.wake_batches.max(1) as f64,
    );
}

/// Rounds on a runtime with a `Recorder` attached: the stage medians
/// from the existing lifecycle events, and what recording costs
/// (`untraced` is how long the same round takes without a recorder).
pub fn recorder_rounds(
    ctx: &mut Ctx,
    lp: &LoweredProgram,
    body: &'static BodyState,
    budget: Duration,
    untraced: Duration,
) {
    // Lanes sized so a whole round fits even if two threads share one;
    // events of a round are drained before the next.
    let rec = Arc::new(Recorder::with_capacity(
        WORKERS + 2,
        (lp.tasks.len() * 6).max(1 << 10),
    ));
    let rt = ShardedRuntime::with_recorder(
        WORKERS,
        SHARDS,
        SchedulerKind::default(),
        ShardCapacity::Unbounded,
        WakeMode::default(),
        Arc::clone(&rec),
    );
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || started.elapsed() < budget {
        rounds += 1;
        body.reset(false);
        let span = ctx.spans.begin("obs.recorded_round", None, ctx.round);
        runtime_round(&rt, lp, body, ctx, span);
        let wall = ctx.spans.end(span);
        body.check(lp, &mut ctx.checks);
        let stages = latency_breakdown(&timelines(&rec.drain()));
        let s = &mut ctx.samples;
        s.add(
            "runtime.submit_to_ready_ns_p50",
            stages.submit_to_ready.p50_ns as f64,
        );
        s.add(
            "runtime.ready_to_start_ns_p50",
            stages.ready_to_start.p50_ns as f64,
        );
        s.add(
            "runtime.done_to_finish_ns_p50",
            stages.done_to_finish.p50_ns as f64,
        );
        s.add(
            "obs.recording_overhead_ratio",
            untraced.as_secs_f64() / wall.as_secs_f64(),
        );
    }
    ctx.samples.set("obs.events_dropped", rec.dropped() as f64);
}

/// Every replay, a few times each; also derives `runtime.self`, the
/// part of `spawn_lowered` the dispatcher and scheduler replays do not
/// explain (boxing, grants, the pending count — and, on the threaded
/// path only, lock contention and unpark calls).
pub fn replay_inner_layers(
    ctx: &mut Ctx,
    lp: &LoweredProgram,
    body: &'static BodyState,
    budget: Duration,
) {
    let started = Instant::now();
    let mut sched_submit = Vec::new();
    let mut passes = 0;
    while passes < 3 || started.elapsed() < budget {
        passes += 1;
        core_replay(ctx, lp);
        shard_replay(ctx, lp);
        sched_submit.push(sched_replay(ctx, lp.tasks.len()));
        body.reset(false);
        let t = Instant::now();
        for sub in lp.tasks.iter().cloned() {
            body.mark(black_box(sub).tag);
        }
        ctx.samples.add(
            "bench.harness_ns_per_task",
            t.elapsed().as_nanos() as f64 / lp.tasks.len() as f64,
        );
    }
    let s = &mut ctx.samples;
    let explained = s.median("shard.submit_ns_per_task")
        + s.median("shard.ready_at_submit_ratio") * stats::median(&sched_submit);
    let own = (s.median("runtime.spawn_ns_per_task") - explained).max(0.0);
    s.set("runtime.self_ns_per_task", own);
}

/// One `DependencyEngine`: submit the whole stream, then finish FIFO.
pub fn core_replay(ctx: &mut Ctx, lp: &LoweredProgram) {
    let n = lp.tasks.len();
    let subs = lp.tasks.clone();
    let mut eng = DependencyEngine::new(&NexusConfig::unbounded());
    let mut ready = VecDeque::new();
    let span = ctx.spans.begin("core.replay", None, ctx.round);
    let t = Instant::now();
    for sub in subs {
        let (td, is_ready) = eng.try_submit(sub).expect("unbounded engine admits all");
        if is_ready {
            ready.push_back(td);
        }
    }
    let submit = t.elapsed();
    let mut finished = 0;
    while let Some(td) = ready.pop_front() {
        ready.extend(eng.finish(td).newly_ready);
        finished += 1;
    }
    let finish = t.elapsed() - submit;
    ctx.spans.end(span);
    ctx.checks
        .check(finished == n, "core replay retired every task");
    ctx.samples.add(
        "core.submit_ns_per_task",
        submit.as_nanos() as f64 / n as f64,
    );
    ctx.samples.add(
        "core.finish_ns_per_task",
        finish.as_nanos() as f64 / n as f64,
    );
}

/// One `ShardDispatcher`, same shape. The wake and ready-at-submit
/// counts of this replay repeat exactly for a seed.
fn shard_replay(ctx: &mut Ctx, lp: &LoweredProgram) {
    let n = lp.tasks.len();
    let subs = lp.tasks.clone();
    let d = ShardDispatcher::<()>::new(SHARDS, &NexusConfig::unbounded());
    let mut ready = VecDeque::new();
    let span = ctx.spans.begin("shard.replay", None, ctx.round);
    let t = Instant::now();
    for sub in subs {
        let (fptr, tag, params) = sub.into_parts();
        let res = d.submit(fptr, tag, &params, ());
        // A waiting task's ticket comes back in some finish report.
        if res.ready.is_some() {
            ready.push_back(res.ticket);
        }
    }
    let submit = t.elapsed();
    let ready_at_submit = ready.len();
    let (mut finished, mut wakes) = (0u64, 0usize);
    while let Some(ticket) = ready.pop_front() {
        let rep = d.finish(ticket);
        finished += rep.completed;
        wakes += rep.woken.len();
        ready.extend(rep.woken.into_iter().map(|(ticket, ())| ticket));
    }
    let finish = t.elapsed() - submit;
    ctx.spans.end(span);
    ctx.checks
        .check(finished == n as u64, "shard replay retired every task");
    let s = &mut ctx.samples;
    s.add(
        "shard.submit_ns_per_task",
        submit.as_nanos() as f64 / n as f64,
    );
    s.add(
        "shard.finish_ns_per_task",
        finish.as_nanos() as f64 / n as f64,
    );
    s.add(
        "shard.ready_at_submit_ratio",
        ready_at_submit as f64 / n as f64,
    );
    s.add("shard.wakes_per_finish", wakes as f64 / n as f64);
}

/// A bare work-stealing `Scheduler` with one worker handle and no
/// worker thread: `submit` every item, then `next` every item. Returns
/// the submit half, in nanoseconds per item.
fn sched_replay(ctx: &mut Ctx, n: usize) -> f64 {
    let (sched, handles) = Scheduler::<usize>::new(SchedulerKind::default(), 1);
    let span = ctx.spans.begin("sched.replay", None, ctx.round);
    let t = Instant::now();
    for i in 0..n {
        sched.submit(i, Priority::Normal);
    }
    let submit = t.elapsed();
    let mut sum = 0;
    for _ in 0..n {
        sum += sched.next(&handles[0]).expect("an item per submit");
    }
    let both = t.elapsed();
    ctx.spans.end(span);
    sched.shutdown();
    ctx.checks.check(
        sum == n * n.saturating_sub(1) / 2,
        "scheduler replay returned every item",
    );
    ctx.samples.add(
        "sched.submit_next_ns_per_item",
        both.as_nanos() as f64 / n as f64,
    );
    submit.as_nanos() as f64 / n as f64
}
