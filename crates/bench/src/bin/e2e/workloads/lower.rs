//! `lower_batch`: declare a program, lower it under both `Lowering`s,
//! and drain each stream through the model-side sharded engine — all on
//! one thread. No scheduler, wake path or service runs, so this is the
//! bypass workload for changes to those, and the low-noise row.

use crate::gen::{ProgramPlan, ProgramShape};
use crate::harness::{Ctx, Round, Workload, SHARDS};
use crate::replay;
use nexuspp_frontend::exec::run_on_engine;
use nexuspp_frontend::{LoweredProgram, Lowering};
use std::time::Duration;

pub struct LowerBatch {
    plan: ProgramPlan,
    renamed: Option<LoweredProgram>,
}

impl LowerBatch {
    pub fn new(shape: ProgramShape, ctx: &Ctx) -> LowerBatch {
        LowerBatch {
            plan: ProgramPlan::new(shape, ctx.seed),
            renamed: None,
        }
    }
}

impl Workload for LowerBatch {
    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let n = self.plan.shape.task_count();
        let (mut declare, mut lower) = (Duration::ZERO, Duration::ZERO);
        let mut runs = Vec::new();
        // Every task is lowered and drained once per lowering.
        let round = ctx.timed(2 * n as u64, |ctx, span| {
            let (program, d) = ctx.span("frontend.declare", span, || self.plan.declare());
            declare = d;
            for lowering in [Lowering::Renamed, Lowering::Raw] {
                let (lp, l) = ctx.span("frontend.lower", span, || {
                    program.lower(lowering).expect("acyclic program")
                });
                lower += l;
                let (order, _) =
                    ctx.span("shard.engine_drain", span, || run_on_engine(&lp, SHARDS));
                runs.push((lp, order));
            }
        });
        for (lp, order) in &runs {
            let retired = order.len().min(n) as u64;
            ctx.checks
                .count(n as u64, n as u64 - retired, "engine retired every task");
            ctx.checks.check(
                lp.order_respects_edges(order),
                "retire order respects every edge",
            );
        }
        let s = &mut ctx.samples;
        s.add(
            "frontend.declare_ns_per_task",
            declare.as_nanos() as f64 / n as f64,
        );
        s.add(
            "frontend.lower_ns_per_task",
            lower.as_nanos() as f64 / (2 * n) as f64,
        );
        s.add(
            "frontend.edges_per_task",
            runs[0].0.edges.len() as f64 / n as f64,
        );
        self.renamed = Some(runs.swap_remove(0).0);
        round
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn layers(&mut self, ctx: &mut Ctx, _budget: Duration, _untraced: &Round) {
        let lp = self.renamed.take().expect("a round ran");
        for _ in 0..3 {
            replay::core_replay(ctx, &lp);
        }
    }
}
