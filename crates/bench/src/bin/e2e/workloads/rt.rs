//! `rt_gaussian` and `rt_video_grain`: a hand-addressed stream straight
//! into `ShardedRuntime::spawn_lowered`, then `barrier`. Batch: the
//! generator submits as fast as it can, nothing paces it.

use crate::body::BodyState;
use crate::harness::{Ctx, Round, Workload, SHARDS, WORKERS};
use crate::replay;
use nexuspp_frontend::LoweredProgram;
use nexuspp_runtime::ShardedRuntime;
use std::time::Duration;

pub struct RtBatch {
    rt: ShardedRuntime,
    lp: LoweredProgram,
    body: &'static BodyState,
}

impl RtBatch {
    /// `grain_ns` empty = zero-grain bodies.
    pub fn new(lp: LoweredProgram, grain_ns: Vec<u32>, ctx: &Ctx) -> RtBatch {
        RtBatch {
            rt: ShardedRuntime::new(WORKERS, SHARDS),
            body: BodyState::leak(lp.tasks.len(), grain_ns, ctx.spans.epoch()),
            lp,
        }
    }
}

impl Workload for RtBatch {
    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let n = self.lp.tasks.len();
        self.body.reset(ctx.traced);
        let (mut spawn, mut barrier) = (Duration::ZERO, Duration::ZERO);
        let mut round_span = 0;
        let round = ctx.timed(n as u64, |ctx, span| {
            round_span = span;
            (spawn, barrier) = replay::runtime_round(&self.rt, &self.lp, self.body, ctx, span);
        });
        self.body.check(&self.lp, &mut ctx.checks);
        // Measured in every round if the bodies spin, in traced rounds
        // if they are zero-grain.
        if self.body.body_ns() > 0 {
            ctx.samples.add(
                "ledger.body_ns_per_task",
                self.body.body_ns() as f64 / n as f64,
            );
        }
        replay::sample_runtime_round(&mut ctx.samples, n, spawn, barrier);
        ctx.samples.add(
            "sched.parallel_efficiency",
            self.body.body_ns() as f64 / (WORKERS as f64 * round.wall.as_nanos() as f64),
        );
        if ctx.traced {
            ctx.spans
                .replace_task_spans(self.body.body_spans(round_span));
        }
        round
    }

    fn layers(&mut self, ctx: &mut Ctx, budget: Duration, untraced: &Round) {
        replay::sample_runtime_counters(&mut ctx.samples, &self.rt);
        replay::recorder_rounds(ctx, &self.lp, self.body, budget / 4, untraced.wall);
        replay::replay_inner_layers(ctx, &self.lp, self.body, budget / 4);
    }
}
