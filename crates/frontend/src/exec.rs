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
use nexuspp_shard::{ShardedEngine, ShardedFinish, TaskId};
use std::collections::VecDeque;

/// Run the lowered stream through an unbounded [`ShardedEngine`]
/// single-threadedly, returning the tags in retire order.
///
/// The drain holds at most the paper's Task Pool in flight
/// (`NexusConfig::default().task_pool_entries`, 1024 in Table IV): it
/// submits in stream order and, while that many tasks are in flight,
/// retires ready tasks first-in first-out until a slot frees, as the
/// master core stalls on a full pool. It cannot wedge: in a
/// topologically ordered stream the oldest task in flight has every
/// producer retired, so it is ready. The tables stay at the window's
/// size, and the drain allocates nothing per task beyond the returned
/// order once its buffers have grown.
pub fn run_on_engine(lp: &LoweredProgram, n_shards: usize) -> Vec<u64> {
    let window = NexusConfig::default().task_pool_entries;
    let mut eng = ShardedEngine::new(n_shards, &NexusConfig::unbounded());
    let mut ready: VecDeque<TaskId> = VecDeque::new();
    let mut fin = ShardedFinish::default();
    let mut order = Vec::with_capacity(lp.tasks.len());
    let mut retire = |eng: &mut ShardedEngine, ready: &mut VecDeque<TaskId>| {
        let id = ready.pop_front()?;
        eng.finish_into(id, &mut fin);
        order.push(fin.tag);
        ready.extend(&fin.newly_ready);
        Some(())
    };
    for sub in &lp.tasks {
        while eng.in_flight() >= window {
            retire(&mut eng, &mut ready).expect("the oldest task in flight is ready");
        }
        let (id, is_ready, _) = eng.submit(sub).expect("unbounded engine admits all");
        if is_ready {
            ready.push_back(id);
        }
    }
    while retire(&mut eng, &mut ready).is_some() {}
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

    /// A stream several windows long: a write-only chain of 1500
    /// versions (one write chain longer than the window under `Raw`),
    /// readers of its latest version folding into 32 accumulators, and
    /// a 32-cell halo stencil advanced 50 steps.
    fn longer_than_the_window() -> Program {
        let mut p = Program::new();
        for i in 0..1500 {
            p.task(0x10).writes("log").submit().unwrap();
            if i % 3 == 0 {
                p.task(0x11)
                    .reads("log")
                    .read_writes(&format!("acc{}", i % 32))
                    .submit()
                    .unwrap();
            }
        }
        let cells: Vec<String> = (0..32).map(|i| format!("cell{i}")).collect();
        for name in &cells {
            p.resource(name);
        }
        for step in 1..=50 {
            for i in 0..cells.len() {
                let mut t = p.task(0x12);
                for name in &cells[i.saturating_sub(1)..(i + 2).min(cells.len())] {
                    t = t.reads_version(name, step - 1);
                }
                t.writes(&cells[i]).submit().unwrap();
            }
        }
        p
    }

    #[test]
    fn all_backends_run_every_task_and_respect_edges() {
        let long = longer_than_the_window();
        assert!(long.tasks().len() >= 3 * NexusConfig::default().task_pool_entries);
        for p in [pipeline(), long] {
            for lowering in [Lowering::Renamed, Lowering::Raw] {
                let lp = p.lower(lowering).unwrap();
                let mut expected: Vec<u64> = lp.tasks.iter().map(|t| t.tag).collect();
                expected.sort_unstable();
                for shards in [1, 4] {
                    let order = run_on_engine(&lp, shards);
                    let mut got = order.clone();
                    got.sort_unstable();
                    assert_eq!(got, expected, "{}: each task ran once", lp.lowering.name());
                    assert!(
                        lp.order_respects_edges(&order),
                        "{} at {shards} shards: true edges respected",
                        lp.lowering.name()
                    );
                }
            }
        }
    }
}
