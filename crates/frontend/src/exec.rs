//! Executing a [`LoweredProgram`] on the three Nexus++ backends.
//!
//! These runners are the frontend's proof obligations made executable:
//! the same lowered stream drives the batch-style [`ShardedEngine`],
//! the concurrent [`ShardDispatcher`], and the threaded
//! [`Runtime`], each returning the order tasks actually ran so
//! differential tests can check (a) every declared task executed and
//! (b) every true dependency edge was respected — for *both* the
//! renamed and raw lowerings, on every backend.

use crate::lower::LoweredProgram;
use nexuspp_core::{NexusConfig, ShardCapacity};
use nexuspp_runtime::Runtime;
use nexuspp_shard::{ShardDispatcher, ShardedEngine, TaskId, TaskTicket};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Run the lowered stream through an unbounded [`ShardedEngine`]
/// single-threadedly (submit everything, then retire FIFO), returning
/// the tags in retire order.
pub fn run_on_engine(lp: &LoweredProgram, n_shards: usize) -> Vec<u64> {
    let mut eng = ShardedEngine::new(n_shards, &NexusConfig::unbounded());
    let mut ready: VecDeque<TaskId> = VecDeque::new();
    for sub in lp.tasks.iter().cloned() {
        let (id, is_ready) = eng.submit_task(sub).expect("unbounded engine admits all");
        if is_ready {
            ready.push_back(id);
        }
    }
    drain_engine(&mut eng, ready, lp.tasks.len())
}

/// Run the lowered stream through a **bounded** [`ShardedEngine`]: when
/// a shard's residency is full the feeder retires a ready task to free
/// a slot, then retries — the software form of the paper's master-core
/// stall. Returns the tags in retire order.
///
/// # Panics
///
/// Panics if admission wedges with nothing ready to retire. Cannot
/// happen for a topologically ordered stream (the oldest resident
/// always has all producers retired), which is exactly what
/// [`Program::lower`](crate::Program::lower) emits.
pub fn run_on_engine_bounded(
    lp: &LoweredProgram,
    n_shards: usize,
    capacity: ShardCapacity,
) -> Vec<u64> {
    let mut eng = ShardedEngine::with_capacity(n_shards, &NexusConfig::unbounded(), capacity);
    let mut ready: VecDeque<TaskId> = VecDeque::new();
    let mut order = Vec::with_capacity(lp.tasks.len());
    for sub in lp.tasks.iter() {
        loop {
            match eng.submit_task(sub.clone()) {
                Ok((id, is_ready)) => {
                    if is_ready {
                        ready.push_back(id);
                    }
                    break;
                }
                Err(e) if e.is_retryable() => {
                    let id = ready
                        .pop_front()
                        .expect("bounded feed wedged with no ready task");
                    retire(&mut eng, id, &mut ready, &mut order);
                }
                Err(e) => panic!("lowered submission rejected: {e}"),
            }
        }
    }
    order.extend(drain_engine(&mut eng, ready, lp.tasks.len() - order.len()));
    order
}

fn drain_engine(eng: &mut ShardedEngine, mut ready: VecDeque<TaskId>, expect: usize) -> Vec<u64> {
    let mut order = Vec::with_capacity(expect);
    while let Some(id) = ready.pop_front() {
        retire(eng, id, &mut ready, &mut order);
    }
    assert_eq!(order.len(), expect, "every submitted task retired");
    order
}

fn retire(eng: &mut ShardedEngine, id: TaskId, ready: &mut VecDeque<TaskId>, order: &mut Vec<u64>) {
    order.push(eng.tag_of(id));
    let fin = eng.finish(id);
    ready.extend(fin.newly_ready);
}

/// Run the lowered stream through a [`ShardDispatcher`] with `workers`
/// finisher threads churning concurrently, returning the tags in the
/// order workers *started* them (one submitting thread feeds in lowered
/// order; ready tasks fan out to whichever worker grabs them first).
pub fn run_on_dispatcher(lp: &LoweredProgram, n_shards: usize, workers: usize) -> Vec<u64> {
    let d = Arc::new(ShardDispatcher::<u64>::new(
        n_shards,
        &NexusConfig::unbounded(),
    ));
    let queue = Arc::new(crossbeam::queue::SegQueue::<(TaskTicket<u64>, u64)>::new());
    let done = Arc::new(AtomicUsize::new(0));
    let order = Arc::new(Mutex::new(Vec::with_capacity(lp.tasks.len())));
    let total = lp.tasks.len();
    let handles: Vec<_> = (0..workers.max(1))
        .map(|_| {
            let (d, queue, done, order) = (
                Arc::clone(&d),
                Arc::clone(&queue),
                Arc::clone(&done),
                Arc::clone(&order),
            );
            std::thread::spawn(move || {
                while done.load(Ordering::Acquire) < total {
                    match queue.pop() {
                        Some((ticket, tag)) => {
                            order.lock().push(tag);
                            for woken in d.finish(ticket).woken {
                                queue.push(woken);
                            }
                            done.fetch_add(1, Ordering::AcqRel);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            })
        })
        .collect();
    for sub in lp.tasks.iter().cloned() {
        let tag = sub.tag;
        let (fptr, tag_u, params) = sub.into_parts();
        debug_assert_eq!(tag, tag_u);
        let res = d.submit(fptr, tag_u, &params, tag);
        if let Some(p) = res.ready {
            queue.push((res.ticket, p));
        }
        // A waiting task's ticket resurfaces in some FinishReport::woken.
    }
    for h in handles {
        h.join().expect("dispatcher worker panicked");
    }
    let order = Arc::try_unwrap(order).expect("workers joined").into_inner();
    assert_eq!(order.len(), total, "every submitted task executed");
    order
}

/// Run the lowered stream on the full threaded [`Runtime`]:
/// every task body logs its tag, the runtime schedules as dependencies
/// allow, and the logged order (the order bodies actually ran) comes
/// back after the barrier.
pub fn run_on_runtime(
    lp: &LoweredProgram,
    workers: usize,
    shards: usize,
    capacity: ShardCapacity,
) -> Vec<u64> {
    let rt = Runtime::with_capacity(workers, shards, capacity);
    let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(lp.tasks.len())));
    for sub in lp.tasks.iter().cloned() {
        let tag = sub.tag;
        let log = Arc::clone(&log);
        rt.spawn_lowered(sub, move || {
            log.lock().push(tag);
        });
    }
    rt.barrier();
    let order = log.lock().clone();
    assert_eq!(order.len(), lp.tasks.len(), "every spawned task ran");
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
            for order in [
                run_on_engine(&lp, 4),
                run_on_engine_bounded(&lp, 2, ShardCapacity::Bounded(3)),
                run_on_dispatcher(&lp, 4, 3),
                run_on_runtime(&lp, 4, 4, ShardCapacity::Unbounded),
            ] {
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
