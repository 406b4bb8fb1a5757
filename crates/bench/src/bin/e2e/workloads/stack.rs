//! `stack_stream`: the one path that crosses every layer. Each round
//! declares a program, lowers it `Renamed`, and streams it task by task
//! through two tenants' `try_submit`, then shuts the service down
//! gracefully.
//!
//! Closed loop: a tenant's lane holds 8 tasks and its budget admits 4,
//! so at most 24 tasks are in the system; the generator's next task
//! goes in only when `Backpressure` clears, and it yields while every
//! lane is full. (A time-paced open loop was tried and rejected:
//! generator lateness on a shared 2-core box moved p99 by 25× for the
//! same code.)

use crate::body::{BodyState, MAX_TASK_SPANS};
use crate::gen::{ProgramPlan, ProgramShape};
use crate::harness::{Ctx, Round, Workload, SHARDS, WORKERS};
use crate::replay;
use crate::spans::Span;
use crate::stats;
use nexuspp_core::TenantId;
use nexuspp_frontend::{LoweredProgram, Lowering};
use nexuspp_runtime::ShardedRuntime;
use nexuspp_service::{IngressError, ResolverService, ServiceConfig, ServiceTask};
use std::time::{Duration, Instant};

const LANE_CAPACITY: usize = 8;
const TENANT_BUDGET: u64 = 4;

pub struct StackStream {
    plan: ProgramPlan,
    body: &'static BodyState,
    /// The latest round's lowered program (the runtime replay reuses it).
    lowered: Option<LoweredProgram>,
}

impl StackStream {
    pub fn new(shape: ProgramShape, ctx: &Ctx) -> StackStream {
        StackStream {
            plan: ProgramPlan::new(shape, ctx.seed),
            body: BodyState::leak(shape.task_count(), Vec::new(), ctx.spans.epoch()),
            lowered: None,
        }
    }
}

/// What the generator records per task in a traced round.
#[derive(Default)]
struct StreamTrace {
    /// First `try_submit` attempt, per tag.
    first_ns: Vec<u64>,
    /// The accepting `try_submit` call, per tag: (start, end).
    accept_ns: Vec<(u64, u64)>,
    calls: u64,
    in_calls_ns: u64,
}

/// Stream `lp` through the service: per tenant in lowered order, the
/// other tenant's next task while one lane is full, a yield while both
/// are. Returns how many submissions the service refused for good.
fn stream(
    svc: &ResolverService,
    lp: &LoweredProgram,
    shape: &ProgramShape,
    body: &'static BodyState,
    mut trace: Option<&mut StreamTrace>,
) -> u64 {
    let tenants = shape.tenants as usize;
    let handles: Vec<_> = (0..tenants)
        .map(|t| svc.handle(TenantId(t as u32)).expect("registered tenant"))
        .collect();
    let mut queues: Vec<Vec<usize>> = vec![Vec::with_capacity(shape.tasks_per_tenant()); tenants];
    for (i, sub) in lp.tasks.iter().enumerate() {
        queues[shape.tenant_of(sub.tag)].push(i);
    }
    let mut cursor = vec![0usize; tenants];
    let mut held: Vec<Option<ServiceTask>> = (0..tenants).map(|_| None).collect();
    let mut left = lp.tasks.len();
    let mut refused = 0;
    while left > 0 {
        let mut progressed = false;
        for t in 0..tenants {
            while cursor[t] < queues[t].len() {
                let sub = &lp.tasks[queues[t][cursor[t]]];
                let tag = sub.tag;
                let task = held[t].take().unwrap_or_else(|| {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.first_ns[tag as usize] = body.now_ns();
                    }
                    ServiceTask::new(sub.clone(), move || body.run(tag))
                });
                let result = match trace.as_deref_mut() {
                    None => handles[t].try_submit(task),
                    Some(tr) => {
                        let start = body.now_ns();
                        let result = handles[t].try_submit(task);
                        let end = body.now_ns();
                        tr.calls += 1;
                        tr.in_calls_ns += end - start;
                        if result.is_ok() {
                            tr.accept_ns[tag as usize] = (start, end);
                        }
                        result
                    }
                };
                match result {
                    Ok(()) => {}
                    Err(IngressError::Backpressure(task)) => {
                        held[t] = Some(task);
                        break;
                    }
                    Err(IngressError::Closed(_)) => refused += 1,
                }
                cursor[t] += 1;
                left -= 1;
                progressed = true;
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    refused
}

impl Workload for StackStream {
    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let shape = self.plan.shape;
        let n = shape.task_count();
        self.body.reset(ctx.traced);
        let mut trace = ctx.traced.then(|| StreamTrace {
            first_ns: vec![0; n],
            accept_ns: vec![(0, 0); n],
            ..Default::default()
        });
        let mut cfg = ServiceConfig::new(WORKERS, SHARDS).lane_capacity(LANE_CAPACITY);
        for t in 0..shape.tenants {
            cfg = cfg.tenant(TenantId(t), TENANT_BUDGET);
        }
        let (mut declare, mut lower, mut shutdown) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut out = None;
        let mut stream_span = 0;
        let round = ctx.timed(n as u64, |ctx, span| {
            let svc = ResolverService::start(cfg);
            let (program, d) = ctx.span("frontend.declare", span, || self.plan.declare());
            let (lp, l) = ctx.span("frontend.lower", span, || {
                program.lower(Lowering::Renamed).expect("acyclic program")
            });
            stream_span = ctx.spans.begin("service.stream", Some(span), ctx.round);
            let refused = stream(&svc, &lp, &shape, self.body, trace.as_mut());
            ctx.spans.end(stream_span);
            let (report, s) = ctx.span("service.shutdown", span, || svc.shutdown());
            (declare, lower, shutdown) = (d, l, s);
            out = Some((svc, lp, report, refused));
        });
        let (svc, lp, report, refused) = out.expect("round ran");

        ctx.checks
            .count(n as u64, refused, "service accepted every task");
        ctx.checks
            .check(report.graceful, "service shutdown was graceful");
        ctx.checks.check(
            report.runtime.executed == n as u64 - refused && report.dropped_ingress == 0,
            "runtime executed every accepted task",
        );
        self.body.check(&lp, &mut ctx.checks);

        let per_task = |d: Duration| d.as_nanos() as f64 / n as f64;
        let s = &mut ctx.samples;
        s.add("frontend.declare_ns_per_task", per_task(declare));
        s.add("frontend.lower_ns_per_task", per_task(lower));
        s.add("frontend.edges_per_task", lp.edges.len() as f64 / n as f64);
        s.add("service.shutdown_ms", shutdown.as_secs_f64() * 1e3);
        let snap = svc.metrics_snapshot();
        let sum = |counter: &str| -> f64 {
            (0..shape.tenants)
                .filter_map(|t| snap.get(&TenantId(t).to_string(), counter))
                .sum::<u64>() as f64
        };
        let (submitted, refusals) = (sum("submitted"), sum("backpressured"));
        s.add(
            "service.backpressure_ratio",
            refusals / (submitted + refusals),
        );
        s.add(
            "service.budget_denied_per_task",
            sum("budget_denied") / n as f64,
        );
        s.add(
            "service.capacity_retries_per_task",
            sum("capacity_retries") / n as f64,
        );
        replay::sample_runtime_counters(s, svc.runtime());

        if let Some(tr) = trace {
            s.add(
                "ledger.body_ns_per_task",
                self.body.body_ns() as f64 / n as f64,
            );
            s.add(
                "service.try_submit_ns",
                tr.in_calls_ns as f64 / tr.calls as f64,
            );
            // As a tenant sees it: first attempt (backpressure wait
            // included) until the body starts.
            let mut latency: Vec<u64> = (0..n)
                .map(|tag| {
                    self.body
                        .started_ns(tag as u64)
                        .saturating_sub(tr.first_ns[tag])
                })
                .collect();
            latency.sort_unstable();
            s.add(
                "service.task_latency_p50_us",
                stats::percentile(&latency, 50.0) as f64 / 1e3,
            );
            s.add(
                "service.task_latency_p99_us",
                stats::percentile(&latency, 99.0) as f64 / 1e3,
            );
            let mut spans = self.body.body_spans(stream_span);
            for tag in 0..n.min(MAX_TASK_SPANS) {
                let (start_ns, end_ns) = tr.accept_ns[tag];
                let per_task = |name, start_ns, end_ns| Span {
                    name,
                    start_ns,
                    end_ns,
                    parent: Some(stream_span),
                    request: tag as u64,
                };
                spans.push(per_task("service.try_submit", start_ns, end_ns));
                // A worker may start the body before `try_submit` returns.
                let started = self.body.started_ns(tag as u64).max(end_ns);
                spans.push(per_task("stack.queued", end_ns, started));
            }
            ctx.spans.replace_task_spans(spans);
        }
        self.lowered = Some(lp);
        round
    }

    fn layers(&mut self, ctx: &mut Ctx, budget: Duration, untraced: &Round) {
        let lp = self.lowered.take().expect("a round ran");
        let n = lp.tasks.len();
        // The same lowered stream straight into `spawn_lowered`: what
        // the stack costs with the service (and the frontend) taken out.
        let rt = ShardedRuntime::new(WORKERS, SHARDS);
        let started = Instant::now();
        let mut direct = Vec::new();
        while direct.len() < 3 || started.elapsed() < budget / 4 {
            self.body.reset(false);
            let (mut spawn, mut barrier) = (Duration::ZERO, Duration::ZERO);
            let round = ctx.timed(n as u64, |ctx, span| {
                (spawn, barrier) = replay::runtime_round(&rt, &lp, self.body, ctx, span);
            });
            self.body.check(&lp, &mut ctx.checks);
            replay::sample_runtime_round(&mut ctx.samples, n, spawn, barrier);
            direct.push(round);
        }
        drop(rt);
        let per_task = |cpu: Duration, tasks: u64| cpu.as_nanos() as f64 / tasks as f64;
        let direct_cpu: Duration = direct.iter().map(|r| r.cpu).sum();
        let frontend = ctx.samples.median("frontend.declare_ns_per_task")
            + ctx.samples.median("frontend.lower_ns_per_task");
        let own = per_task(untraced.cpu, untraced.tasks)
            - frontend
            - per_task(direct_cpu, (n * direct.len()) as u64);
        ctx.samples.set("service.self_ns_per_task", own);

        let walls: Vec<f64> = direct.iter().map(|r| r.wall.as_secs_f64()).collect();
        let direct_wall = Duration::from_secs_f64(stats::median(&walls));
        replay::recorder_rounds(ctx, &lp, self.body, budget / 4, direct_wall);
        replay::replay_inner_layers(ctx, &lp, self.body, budget / 4);
    }
}
