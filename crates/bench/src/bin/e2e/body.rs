//! What the benchmark's task bodies do: prove they ran exactly once and
//! in which order, spin for their grain, and (in a traced round) leave
//! the timestamps per-task spans are built from.

use crate::checks::Checks;
use crate::spans::Span;
use nexuspp_frontend::LoweredProgram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Per-task spans kept for the span file: the first tasks of the last
/// traced round (a whole round of `stack_stream` would be ~25 MB).
pub const MAX_TASK_SPANS: usize = 20_000;

/// Shared between the generator thread and every task body of one
/// workload instance. Leaked once per set-up so bodies can be `'static`
/// without a reference count bouncing between submitter and workers.
pub struct BodyState {
    epoch: Instant,
    traced: AtomicBool,
    /// Next position in the executed order.
    seq: AtomicU64,
    /// Per tag: 1 + the position its body ran at; 0 = never ran.
    order: Vec<AtomicU64>,
    reruns: AtomicU64,
    /// Per tag: how long the body spins (empty = zero grain).
    grain_ns: Vec<u32>,
    /// Σ measured body time of the round.
    body_ns: AtomicU64,
    start_ns: Vec<AtomicU64>,
    end_ns: Vec<AtomicU64>,
}

impl BodyState {
    pub fn leak(tasks: usize, grain_ns: Vec<u32>, epoch: Instant) -> &'static BodyState {
        let slots = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Box::leak(Box::new(BodyState {
            epoch,
            traced: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            order: slots(tasks),
            reruns: AtomicU64::new(0),
            grain_ns,
            body_ns: AtomicU64::new(0),
            start_ns: slots(tasks),
            end_ns: slots(tasks),
        }))
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Clear the round's records; call between rounds, while quiescent.
    pub fn reset(&self, traced: bool) {
        self.traced.store(traced, Relaxed);
        self.seq.store(0, Relaxed);
        self.reruns.store(0, Relaxed);
        self.body_ns.store(0, Relaxed);
        for slot in &self.order {
            slot.store(0, Relaxed);
        }
    }

    /// Record that `tag`'s body ran, and when in the executed order.
    /// One `fetch_add` on a shared counter orders the executions: the
    /// runtime's own synchronisation makes a producer's increment happen
    /// before its consumer's, and a single atomic's modification order
    /// respects happens-before.
    pub fn mark(&self, tag: u64) {
        let pos = self.seq.fetch_add(1, Relaxed) + 1;
        if self.order[tag as usize].swap(pos, Relaxed) != 0 {
            self.reruns.fetch_add(1, Relaxed);
        }
    }

    /// The task body: mark, then spin for the task's grain.
    pub fn run(&self, tag: u64) {
        self.mark(tag);
        let i = tag as usize;
        let grain = u64::from(self.grain_ns.get(i).copied().unwrap_or(0));
        let traced = self.traced.load(Relaxed);
        if grain == 0 && !traced {
            return;
        }
        let start = self.now_ns();
        let mut end = self.now_ns();
        while end - start < grain {
            std::hint::spin_loop();
            end = self.now_ns();
        }
        self.body_ns.fetch_add(end - start, Relaxed);
        if traced {
            self.start_ns[i].store(start, Relaxed);
            self.end_ns[i].store(end, Relaxed);
        }
    }

    /// Σ measured body time of the round, in nanoseconds.
    pub fn body_ns(&self) -> u64 {
        self.body_ns.load(Relaxed)
    }

    /// When a traced round's body started, in nanoseconds since the epoch.
    pub fn started_ns(&self, tag: u64) -> u64 {
        self.start_ns[tag as usize].load(Relaxed)
    }

    /// Output check of one round: every task's body ran exactly once,
    /// and the executed order respects every edge of the program.
    pub fn check(&self, lp: &LoweredProgram, checks: &mut Checks) {
        let n = self.order.len() as u64;
        let missing = self.order.iter().filter(|s| s.load(Relaxed) == 0).count() as u64;
        checks.count(
            n,
            missing + self.reruns.load(Relaxed),
            "task body ran exactly once",
        );
        let mut by_pos: Vec<(u64, u64)> = self
            .order
            .iter()
            .enumerate()
            .map(|(tag, s)| (s.load(Relaxed), tag as u64))
            .collect();
        by_pos.sort_unstable();
        let order: Vec<u64> = by_pos.into_iter().map(|(_, tag)| tag).collect();
        checks.check(
            lp.order_respects_edges(&order),
            "executed order respects every edge",
        );
    }

    /// The `task.body` spans of a traced round.
    pub fn body_spans(&self, parent: usize) -> Vec<Span> {
        (0..self.order.len().min(MAX_TASK_SPANS))
            .map(|tag| Span {
                name: "task.body",
                start_ns: self.start_ns[tag].load(Relaxed),
                end_ns: self.end_ns[tag].load(Relaxed),
                parent: Some(parent),
                request: tag as u64,
            })
            .collect()
    }
}
