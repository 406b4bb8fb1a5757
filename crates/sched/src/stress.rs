//! The steal-stress harness: an imbalanced fan-out workload driven
//! straight through a [`Scheduler`] by the acceptance tests
//! (`tests/scheduler_exec.rs`).
//!
//! Shape (mirroring `nexuspp_workloads::steal_stress`, which generates
//! the same DAG as an address trace): one root task fans out into
//! `chains` dependency chains of `chain_len` strictly serial tasks.
//! Whichever worker executes the root wakes *every* chain head at once —
//! the single-producer burst — so any speedup beyond one worker requires
//! the other workers to take work they did not produce: they steal the
//! chain heads once and then run each chain locally.
//!
//! Tasks are `u64` ids; "executing" one costs a few atomic increments, so
//! measured wall-clock is almost pure scheduling overhead.

use crate::{Priority, SchedCounts, Scheduler, SchedulerKind};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of the chain-stress run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStressSpec {
    /// Worker threads.
    pub workers: usize,
    /// Parallel chains fanned out by the root.
    pub chains: u32,
    /// Serial tasks per chain.
    pub chain_len: u32,
    /// Busy-work per task. Zero measures pure scheduling overhead;
    /// non-zero stretches the run across many OS scheduling quanta so
    /// sibling workers provably get CPU time while work remains (the
    /// deterministic way to observe steals on a single-CPU host).
    pub spin_ns: u64,
}

impl ChainStressSpec {
    /// Total tasks including the root.
    pub fn task_count(&self) -> u64 {
        1 + self.chains as u64 * self.chain_len as u64
    }
}

/// Outcome of a chain-stress run.
#[derive(Debug, Clone)]
pub struct ChainStressReport {
    /// Wall-clock from root submission to last task executed.
    pub elapsed: Duration,
    /// Tasks executed.
    pub executed: u64,
    /// True iff every task ran exactly once (no loss, no duplication).
    pub exactly_once: bool,
    /// Scheduler activity counters at quiescence.
    pub counts: SchedCounts,
}

/// Task id encoding: 0 is the root; chain `c` step `i` is
/// `1 + c * chain_len + i`.
fn chain_head(c: u32, chain_len: u32) -> u64 {
    1 + c as u64 * chain_len as u64
}

/// Busy-wait for `ns` nanoseconds (no-op for zero): the synthetic task
/// body used wherever a stress run must span real wall-clock.
fn spin_for(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Run the workload to completion on `spec.workers` threads and report.
pub fn run_chain_stress(spec: &ChainStressSpec) -> ChainStressReport {
    assert!(spec.chains >= 1 && spec.chain_len >= 1);
    let total = spec.task_count();
    let (sched, handles) = Scheduler::<u64>::new(SchedulerKind::default(), spec.workers);
    let sched = Arc::new(sched);
    let executed = Arc::new(AtomicU64::new(0));
    let per_task: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
    let (chains, chain_len, spin_ns) = (spec.chains, spec.chain_len, spec.spin_ns);

    let workers: Vec<_> = handles
        .into_iter()
        .map(|h| {
            let sched = Arc::clone(&sched);
            let executed = Arc::clone(&executed);
            let per_task = Arc::clone(&per_task);
            std::thread::spawn(move || {
                while let Some(id) = sched.next(&h) {
                    spin_for(spin_ns);
                    if id == 0 {
                        // The imbalanced burst: one worker wakes every
                        // chain head in a single batched delivery.
                        let heads =
                            (0..chains).map(|c| (chain_head(c, chain_len), Priority::Normal));
                        sched.wake_batch(&h, heads);
                    } else {
                        let step = (id - 1) % chain_len as u64;
                        if step + 1 < chain_len as u64 {
                            sched.wake(&h, id + 1, Priority::Normal);
                        }
                    }
                    per_task[id as usize].fetch_add(1, Ordering::Relaxed);
                    executed.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();

    let t0 = Instant::now();
    sched.submit(0, Priority::Normal);
    while executed.load(Ordering::SeqCst) < total {
        std::thread::yield_now();
    }
    let elapsed = t0.elapsed();
    sched.shutdown();
    for w in workers {
        w.join().expect("worker thread panicked");
    }

    let exactly_once = per_task.iter().all(|c| c.load(Ordering::Relaxed) == 1);
    ChainStressReport {
        elapsed,
        executed: executed.load(Ordering::SeqCst),
        exactly_once,
        counts: sched.counts(),
    }
}
