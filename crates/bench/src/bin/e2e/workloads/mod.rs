//! The six workloads. Names are stable; later issues cite them.

mod incr;
mod lower;
mod model;
mod rt;
mod stack;

use crate::gen::{self, ProgramShape};
use crate::harness::{Ctx, Workload};
use nexuspp_workloads::{IncrStencilSpec, VideoSpec};

/// Generate `name`'s inputs from the seed and construct what it runs
/// on. Returns the workload and how many tasks were generated.
pub fn build(name: &str, ctx: &Ctx) -> (Box<dyn Workload>, usize) {
    let q = ctx.quick;
    match name {
        "stack_stream" => {
            let shape = if q {
                ProgramShape {
                    tenants: 2,
                    chains: 4,
                    chain_len: 25,
                    cells: 6,
                    steps: 10,
                }
            } else {
                ProgramShape {
                    tenants: 2,
                    chains: 64,
                    chain_len: 500,
                    cells: 32,
                    steps: 250,
                }
            };
            (
                Box::new(stack::StackStream::new(shape, ctx)),
                shape.task_count(),
            )
        }
        "rt_gaussian" => {
            // n = 500 is the paper's Table II shape: 125 249 tasks.
            let lp = gen::gaussian(if q { 24 } else { 500 }, ctx.seed);
            let n = lp.tasks.len();
            (Box::new(rt::RtBatch::new(lp, Vec::new(), ctx)), n)
        }
        "rt_video_grain" => {
            let spec = if q {
                VideoSpec::small(2, 8, 6)
            } else {
                VideoSpec::new(8)
            };
            let (lp, grain) = gen::video(spec, ctx.seed);
            let n = lp.tasks.len();
            (Box::new(rt::RtBatch::new(lp, grain, ctx)), n)
        }
        "lower_batch" => {
            let shape = if q {
                ProgramShape {
                    tenants: 1,
                    chains: 8,
                    chain_len: 25,
                    cells: 8,
                    steps: 12,
                }
            } else {
                ProgramShape {
                    tenants: 1,
                    chains: 256,
                    chain_len: 500,
                    cells: 64,
                    steps: 344,
                }
            };
            (
                Box::new(lower::LowerBatch::new(shape, ctx)),
                shape.task_count(),
            )
        }
        "incr_edits" => {
            let (spec, one, ten) = if q {
                (
                    IncrStencilSpec {
                        cells: 16,
                        steps: 4,
                    },
                    4,
                    2,
                )
            } else {
                (IncrStencilSpec::thousand(), 100, 40)
            };
            let n = spec.task_count() as usize;
            (Box::new(incr::IncrEdits::new(spec, one, ten, ctx)), n)
        }
        "model_video" => {
            let spec = if q {
                VideoSpec::small(2, 8, 6)
            } else {
                VideoSpec::new(16)
            };
            let trace = gen::video_trace(spec, ctx.seed);
            let n = trace.len();
            (Box::new(model::ModelVideo::new(trace)), n)
        }
        other => unreachable!("{other} is not in metrics::WORKLOADS"),
    }
}
