//! `incr_edits`: the incremental layer used two ways. Each round builds
//! the 1000-task stencil and runs it from scratch, then applies 100
//! one-cell edits (a narrow dirty cone) and 40 ten-cell edits (cones
//! that cover most of the stencil), each `edit_batch` + `rerun` on the
//! threaded runtime backend.

use crate::gen::pick_cells;
use crate::harness::{Ctx, Round, Workload, SHARDS, WORKERS};
use crate::stats;
use nexuspp_desim::Rng;
use nexuspp_frontend::Lowering;
use nexuspp_incr::{Backend, Edit, IncrReport};
use nexuspp_workloads::IncrStencilSpec;
use std::time::Duration;

const BACKEND: Backend = Backend::Runtime {
    workers: WORKERS,
    shards: SHARDS,
};

pub struct IncrEdits {
    spec: IncrStencilSpec,
    /// The seeded edit batches of a round, in order: one-cell, then
    /// ten-cell. Every round replays the same sequence on a fresh
    /// program, so its counts repeat exactly.
    batches: Vec<Vec<Edit>>,
    one_cell: usize,
}

impl IncrEdits {
    pub fn new(spec: IncrStencilSpec, one_cell: usize, ten_cell: usize, ctx: &Ctx) -> IncrEdits {
        let mut rng = Rng::new(ctx.seed ^ 0x5EED_0004);
        let batches = (0..one_cell + ten_cell)
            .map(|op| {
                let cells = if op < one_cell { 1 } else { 10 };
                pick_cells(&mut rng, spec.cells, spec.steps, cells)
                    .into_iter()
                    .map(|i| Edit::SetInitial {
                        resource: spec.cell(i),
                        seed: rng.next_u64() | 1,
                    })
                    .collect()
            })
            .collect();
        IncrEdits {
            spec,
            batches,
            one_cell,
        }
    }
}

/// One kind of operation over a round.
#[derive(Default)]
struct Kind {
    edit_us: Vec<f64>,
    rerun_us: Vec<f64>,
    reran: usize,
}

impl Kind {
    fn sample(&self, ctx: &mut Ctx, names: [&'static str; 4]) {
        let both: Vec<f64> = self
            .edit_us
            .iter()
            .zip(&self.rerun_us)
            .map(|(a, b)| a + b)
            .collect();
        let s = &mut ctx.samples;
        s.add(names[0], stats::median(&both) / 1e3);
        s.add(names[1], stats::median(&self.edit_us));
        s.add(names[2], stats::median(&self.rerun_us));
        s.add(names[3], self.reran as f64 / self.edit_us.len() as f64);
    }
}

impl Workload for IncrEdits {
    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let us = |d: Duration| d.as_nanos() as f64 / 1e3;
        let mut reports: Vec<IncrReport> = Vec::new();
        let mut scratch = Duration::ZERO;
        let (mut one, mut ten) = (Kind::default(), Kind::default());
        let mut program = None;
        let mut round = ctx.timed(0, |ctx, span| {
            let (mut ip, build) = ctx.span("incr.edit_batch", span, || self.spec.build());
            let (first, run) =
                ctx.span("incr.rerun", span, || ip.rerun(Lowering::Renamed, &BACKEND));
            scratch = build + run;
            reports.push(first);
            for (op, batch) in self.batches.iter().enumerate() {
                let ((), edit) = ctx.span("incr.edit_batch", span, || {
                    ip.edit_batch(batch.iter().cloned())
                        .expect("initial-contents edits commit");
                });
                let (report, rerun) =
                    ctx.span("incr.rerun", span, || ip.rerun(Lowering::Renamed, &BACKEND));
                let kind = if op < self.one_cell {
                    &mut one
                } else {
                    &mut ten
                };
                kind.edit_us.push(us(edit));
                kind.rerun_us.push(us(rerun));
                kind.reran += report.reran;
                reports.push(report);
            }
            program = Some(ip);
        });
        round.tasks = reports.iter().map(|r| r.reran as u64).sum();

        // Checks: every re-run accounts for every task, and the edited
        // program ends where a from-scratch build with the same edits does.
        let ip = program.expect("round ran");
        let unbalanced = reports
            .iter()
            .filter(|r| r.reran + r.reused != r.total)
            .count();
        ctx.checks.count(
            reports.len() as u64,
            unbalanced as u64,
            "reran + reused == total",
        );
        ctx.checks.check(
            reports[0].reran as u64 == self.spec.task_count(),
            "the scratch run executes every task",
        );
        let mut fresh = self.spec.build();
        fresh
            .edit_batch(self.batches.iter().flatten().cloned())
            .expect("initial-contents edits commit");
        fresh.rerun(Lowering::Renamed, &Backend::Engine { shards: SHARDS });
        ctx.checks.check(
            ip.final_contents() == fresh.final_contents(),
            "final contents equal a from-scratch rebuild",
        );

        ctx.samples
            .add("incr.rerun_scratch_ms", scratch.as_secs_f64() * 1e3);
        one.sample(
            ctx,
            [
                "incr.rerun_edit1_ms",
                "incr.edit_batch_us_edit1",
                "incr.rerun_us_edit1",
                "incr.reran_edit1",
            ],
        );
        ten.sample(
            ctx,
            [
                "incr.rerun_edit10_ms",
                "incr.edit_batch_us_edit10",
                "incr.rerun_us_edit10",
                "incr.reran_edit10",
            ],
        );
        let edits = &reports[1..];
        let sum = |f: fn(&IncrReport) -> u64| edits.iter().map(f).sum::<u64>() as f64;
        let s = &mut ctx.samples;
        s.add(
            "incr.order_ops_per_edit",
            sum(|r| r.order_maintenance_ops) / edits.len().max(1) as f64,
        );
        s.add(
            "incr.reuse_ratio",
            sum(|r| r.reused as u64) / sum(|r| r.total as u64).max(1.0),
        );
        round
    }
}
