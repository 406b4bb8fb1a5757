//! `model_video`: the paper's own artefact. One video trace through the
//! single-Maestro Task Machine and the multi-Maestro model, on one
//! thread. Deterministic: every simulated statistic must come out
//! identical in every round, whatever happens to host speed.

use crate::gen;
use crate::harness::{Ctx, Round, Workload};
use crate::replay;
use nexuspp_taskmachine::{simulate, simulate_sharded, MachineConfig, MultiMaestroConfig};
use nexuspp_trace::Trace;
use std::time::Duration;

/// Worker cores of the single-Maestro machine, shards of the sharded one.
const SIM_WORKERS: usize = 16;
const SIM_SHARDS: usize = 4;

pub struct ModelVideo {
    trace: Trace,
    /// The simulated statistics of the first round; later rounds must
    /// reproduce them exactly.
    first: Option<[u64; 8]>,
}

impl ModelVideo {
    pub fn new(trace: Trace) -> ModelVideo {
        ModelVideo { trace, first: None }
    }
}

impl Workload for ModelVideo {
    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let n = self.trace.len() as u64;
        let (mut single, mut multi) = (Duration::ZERO, Duration::ZERO);
        let mut reports = None;
        let round = ctx.timed(2 * n, |ctx, span| {
            let (one, s) = ctx.span("taskmachine.simulate", span, || {
                let mut source = self.trace.clone().into_source();
                simulate(MachineConfig::with_workers(SIM_WORKERS), &mut source)
            });
            let (many, m) = ctx.span("taskmachine.simulate_sharded", span, || {
                simulate_sharded(MultiMaestroConfig::with_shards(SIM_SHARDS), &self.trace)
            });
            (single, multi) = (s, m);
            reports = Some((one, many));
        });
        let (one, many) = reports.expect("round ran");
        let Ok(one) = one else {
            ctx.checks
                .check(false, "single-Maestro simulation completed");
            return round;
        };
        ctx.checks.count(
            2 * n,
            2 * n - one.tasks - many.tasks,
            "every task simulated",
        );
        let stats = [
            one.makespan.ps(),
            one.events,
            one.master_stalls,
            one.worker_exec.ps(),
            one.check_deps.ops,
            one.check_deps.busy.ps(),
            many.makespan.ps(),
            many.crossbar_grants,
        ];
        ctx.checks.check(
            *self.first.get_or_insert(stats) == stats,
            "simulated statistics identical in every round",
        );
        let s = &mut ctx.samples;
        s.add("taskmachine.sim_makespan_us", one.makespan.as_us_f64());
        s.add(
            "taskmachine.host_ns_per_task",
            single.as_nanos() as f64 / n as f64,
        );
        s.add(
            "taskmachine.host_ns_per_event",
            single.as_nanos() as f64 / one.events as f64,
        );
        s.add(
            "taskmachine.multi_host_ns_per_task",
            multi.as_nanos() as f64 / n as f64,
        );
        s.add("taskmachine.worker_utilization", one.worker_utilization());
        s.add(
            "taskmachine.check_deps_utilization",
            one.check_deps.utilization(one.makespan),
        );
        round
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn layers(&mut self, ctx: &mut Ctx, _budget: Duration, _untraced: &Round) {
        // Host speed of the tables both simulators are built on.
        let lp = gen::lowered_from_trace(self.trace.clone());
        for _ in 0..3 {
            replay::core_replay(ctx, &lp);
        }
    }
}
