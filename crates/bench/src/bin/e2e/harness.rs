//! One workload in one process: set up (several times, so `setup_s` is a
//! median), measure whole rounds for the time asked, check every
//! round's outputs, and reduce the per-round samples to medians.

use crate::checks::Checks;
use crate::env;
use crate::metrics::{fill_ledger, Samples, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workloads;
use crate::{stats, Config};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads and dependence-table shards of every threaded
/// workload — fixed, whatever the host, so numbers stay comparable.
pub const WORKERS: usize = 2;
pub const SHARDS: usize = 4;

/// The timed part of one round.
pub struct Round {
    pub wall: Duration,
    pub cpu: Duration,
    /// Tasks retired (simulated, for the model) in the timed part.
    pub tasks: u64,
}

/// What a workload's rounds write into.
pub struct Ctx {
    pub seed: u64,
    pub quick: bool,
    pub spans: Spans,
    pub samples: Samples,
    pub checks: Checks,
    /// Whether the current round records per-task timestamps.
    pub traced: bool,
    /// Number of the current round (the `request` of batch spans).
    pub round: u64,
}

impl Ctx {
    /// Run the timed part of a round under a `round` span, measuring
    /// wall and process CPU time round it.
    pub fn timed(&mut self, tasks: u64, f: impl FnOnce(&mut Ctx, usize)) -> Round {
        let cpu0 = env::cpu_time();
        let span = self.spans.begin("round", None, self.round);
        f(self, span);
        let wall = self.spans.end(span);
        Round {
            wall,
            cpu: env::cpu_time().saturating_sub(cpu0),
            tasks,
        }
    }

    /// Time one call into a layer as a child span of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let idx = self.spans.begin(name, Some(parent), self.round);
        let out = f();
        (out, self.spans.end(idx))
    }
}

pub trait Workload {
    /// One round: the timed part, then (untimed) its output checks.
    fn round(&mut self, ctx: &mut Ctx) -> Round;

    /// The extra measurements of a traced run — single-thread replays of
    /// the inner layers, rounds with a `Recorder` attached — each taking
    /// about `budget / 4`. `untraced` is the median untraced round.
    fn layers(&mut self, _ctx: &mut Ctx, _budget: Duration, _untraced: &Round) {}

    /// Whether every round does identical work on one thread, so that
    /// any scatter between rounds is the host's (see `least_disturbed`).
    fn deterministic(&self) -> bool {
        false
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub rounds: usize,
    pub round_s: f64,
    pub samples: Samples,
    pub checks: Checks,
    pub self_ms: Vec<(&'static str, f64)>,
    pub span_file: Option<PathBuf>,
}

/// How many of a deterministic workload's `rounds` rounds, fastest
/// first, its end-to-end figures are taken from: a third, at least
/// three. The host this runs on slows memory-bound code by a third for
/// seconds to minutes at a time. Every round of a deterministic workload
/// does identical work on one thread, so the scatter between them is
/// the host's alone, it is one-sided, and the fastest rounds are the
/// ones it touched least. A threaded workload's scatter is also its own
/// (`rt_gaussian` runs some rounds at 2.5× its typical rate), so there
/// every round counts. `bench.round_spread` reports the scatter of all
/// rounds either way.
fn least_disturbed(rounds: usize) -> usize {
    (rounds / 3).max(3).min(rounds)
}

fn run_rounds(
    w: &mut dyn Workload,
    ctx: &mut Ctx,
    budget: Duration,
    min_rounds: usize,
    trace: bool,
) -> Vec<(bool, Round)> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || started.elapsed() < budget {
        // A traced run alternates untraced and traced rounds; their
        // ratio is the tracing overhead.
        ctx.traced = trace && rounds.len() % 2 == 1;
        ctx.round += 1;
        rounds.push((ctx.traced, w.round(ctx)));
    }
    rounds
}

/// Run `workload` as `cfg` asks and reduce it to its metrics.
pub fn run_workload(workload: &'static str, cfg: &Config) -> Outcome {
    let mut ctx = Ctx {
        seed: cfg.seed,
        quick: cfg.quick,
        spans: Spans::new(),
        samples: Samples::default(),
        checks: Checks::default(),
        traced: false,
        round: 0,
    };
    // Set-up: generate the inputs, construct the runtime or service, run
    // one warm-up round. Done several times; `setup_s` is the median.
    let mut setups = Vec::new();
    let mut generate = Vec::new();
    let mut built = None;
    for _ in 0..if cfg.quick { 1 } else { 5 } {
        drop(built.take());
        let t = Instant::now();
        let (mut w, tasks) = workloads::build(workload, &ctx);
        generate.push(t.elapsed().as_nanos() as f64 / tasks as f64);
        w.round(&mut ctx);
        setups.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut w = built.expect("set up at least once");
    ctx.samples.clear();

    let seconds = Duration::from_secs_f64(cfg.seconds);
    // A traced run spends half its time on rounds, half on `layers`.
    let (budget, min_rounds) = match (cfg.quick, cfg.trace) {
        (true, _) => (Duration::ZERO, 2),
        (false, false) => (seconds, 3),
        (false, true) => (seconds / 2, 4),
    };
    let rounds = run_rounds(&mut *w, &mut ctx, budget, min_rounds, cfg.trace);
    let rate = |r: &Round| r.tasks as f64 / r.wall.as_secs_f64();
    let mut untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    untraced.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    let all_rates: Vec<f64> = untraced.iter().map(|r| rate(r)).collect();
    if w.deterministic() {
        untraced.truncate(least_disturbed(untraced.len()));
    }
    let rates = &all_rates[..untraced.len()];
    let cpu: Duration = untraced.iter().map(|r| r.cpu).sum();
    let tasks: u64 = untraced.iter().map(|r| r.tasks).sum();
    let cpu_ns_per_task = cpu.as_nanos() as f64 / tasks as f64;
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall.as_secs_f64()).collect();

    let mut span_file = None;
    if cfg.trace {
        let traced: Vec<f64> = rounds
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, r)| r.wall.as_secs_f64())
            .collect();
        let s = &mut ctx.samples;
        s.set(
            "bench.trace_overhead_ratio",
            stats::median(&traced) / stats::median(&walls),
        );
        s.set("bench.round_spread", stats::iqr_share(&all_rates));
        s.set("workloads.generate_ns_per_task", stats::median(&generate));
        let mid = Round {
            wall: Duration::from_secs_f64(stats::median(&walls)),
            cpu: cpu / untraced.len() as u32,
            tasks: tasks / untraced.len() as u64,
        };
        w.layers(&mut ctx, budget, &mid);
        // Only the threaded workloads measure bodies, and only they
        // have a ledger.
        if ctx.samples.summary("ledger.body_ns_per_task").n > 0 {
            fill_ledger(&mut ctx.samples, cpu_ns_per_task);
        }
        let failed_share = ctx.checks.failed as f64 / ctx.checks.attempted.max(1) as f64;
        ctx.samples.set("bench.failed_share", failed_share);
        let path = cfg.out_dir.join(format!("e2e-trace-{workload}.json"));
        match ctx.spans.write_json(&path) {
            Ok(()) => span_file = Some(path),
            Err(e) => ctx.checks.check(false, &format!("span file written ({e})")),
        }
    } else {
        for &r in rates {
            ctx.samples.add("tasks_per_s", r);
        }
        ctx.samples.set("cpu_us_per_task", cpu_ns_per_task / 1e3);
        for s in setups {
            ctx.samples.add("setup_s", s);
        }
        ctx.samples.set("peak_rss_mb", env::peak_rss_mb());
    }
    for d in if cfg.trace { PER_LAYER } else { END_TO_END } {
        let v = ctx.samples.median(d.name);
        ctx.checks.check(v.is_finite(), "every metric is a number");
    }
    Outcome {
        workload,
        rounds: rounds.len(),
        round_s: stats::median(&walls),
        self_ms: ctx.spans.self_ms_by_name().into_iter().collect(),
        samples: ctx.samples,
        checks: ctx.checks,
        span_file,
    }
}
