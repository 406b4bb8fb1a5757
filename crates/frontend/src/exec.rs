//! Executing a [`LoweredProgram`] on the model-side [`ShardedEngine`].
//!
//! The frontend declares and lowers; it does not reach threads. The one
//! executor here drains the lowered stream single-threadedly, which is
//! what `e2e`'s `lower_batch` workload and `nexuspp_incr`'s
//! `Backend::Engine` run. The threaded executors live beside their
//! callers: `nexuspp_incr`'s `Backend::Runtime` (live bodies on the
//! runtime) and the frontend's own differential test, which also drives
//! a bounded engine.

use crate::lower::LoweredProgram;
use nexuspp_core::NexusConfig;
use nexuspp_shard::{ShardedEngine, TaskId};
use std::collections::VecDeque;

/// Run the lowered stream through an unbounded [`ShardedEngine`]
/// single-threadedly (submit everything, then retire FIFO), returning
/// the tags in retire order.
pub fn run_on_engine(lp: &LoweredProgram, n_shards: usize) -> Vec<u64> {
    let mut eng = ShardedEngine::new(n_shards, &NexusConfig::unbounded());
    let mut ready: VecDeque<TaskId> = VecDeque::new();
    for sub in lp.tasks.iter().cloned() {
        let (id, is_ready, _) = eng.submit(sub).expect("unbounded engine admits all");
        if is_ready {
            ready.push_back(id);
        }
    }
    let mut order = Vec::with_capacity(lp.tasks.len());
    while let Some(id) = ready.pop_front() {
        let fin = eng.finish(id);
        order.push(fin.tag);
        ready.extend(fin.newly_ready);
    }
    assert_eq!(order.len(), lp.tasks.len(), "every submitted task retired");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::Lowering;
    use crate::program::Program;

    fn pipeline() -> Program {
        let mut p = Program::new();
        p.resource("in");
        for stage in 0..4 {
            // Each stage reads the previous stage's output.
            let src = if stage == 0 {
                "in".to_string()
            } else {
                format!("s{}", stage - 1)
            };
            for lane in 0..3 {
                p.task(0x100 + stage)
                    .tag(stage * 10 + lane)
                    .reads(&src)
                    .writes(&format!("s{stage}_l{lane}"))
                    .submit()
                    .unwrap();
            }
            // Merge the lanes into the stage output.
            let mut t = p.task(0x200 + stage).tag(stage * 10 + 9);
            for lane in 0..3 {
                t = t.reads(&format!("s{stage}_l{lane}"));
            }
            t.writes(&format!("s{stage}")).submit().unwrap();
        }
        p
    }

    #[test]
    fn all_backends_run_every_task_and_respect_edges() {
        let p = pipeline();
        for lowering in [Lowering::Renamed, Lowering::Raw] {
            let lp = p.lower(lowering).unwrap();
            let mut expected: Vec<u64> = lp.tasks.iter().map(|t| t.tag).collect();
            expected.sort_unstable();
            for shards in [1, 4] {
                let order = run_on_engine(&lp, shards);
                let mut got = order.clone();
                got.sort_unstable();
                assert_eq!(got, expected, "{}: all tasks ran", lp.lowering.name());
                assert!(
                    lp.order_respects_edges(&order),
                    "{}: true edges respected in {order:?}",
                    lp.lowering.name()
                );
            }
        }
    }
}
