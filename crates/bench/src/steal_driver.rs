//! Executes the [`StealStressSpec`] workload on the threaded runtime —
//! real closures, real regions, any shard count — and reports
//! wall-clock plus scheduler counters. Shared by
//! `experiments::steal` and the `ready_scheduling` criterion bench.

use nexuspp_runtime::{Runtime, SchedCounts};
use nexuspp_sched::stress::spin_for;
use nexuspp_workloads::StealStressSpec;
use std::time::{Duration, Instant};

/// Outcome of one runtime-level steal-stress run.
#[derive(Debug, Clone)]
pub struct StealRun {
    /// Wall-clock from first spawn to quiescence.
    pub elapsed: Duration,
    /// Tasks executed (root + every chain task).
    pub tasks: u64,
    /// Scheduler counters at quiescence.
    pub counts: SchedCounts,
}

impl StealRun {
    /// Executed tasks per second.
    pub fn tasks_per_sec(&self) -> f64 {
        self.tasks as f64 / self.elapsed.as_secs_f64()
    }
}

/// Run the workload to completion on a runtime of `shards` resolver
/// shards and report. Panics if any chain lost a task (the runtime's
/// correctness tests guard this; here it protects the measurement).
pub fn run_steal(shards: usize, workers: usize, spec: &StealStressSpec) -> StealRun {
    let rt = Runtime::new(workers, shards);
    let exec_ns = spec.exec_ns;
    let root = rt.region(vec![0u64]);
    let cells: Vec<_> = (0..spec.chains).map(|_| rt.region(vec![0u64])).collect();
    let t0 = Instant::now();
    {
        let root = root.clone();
        rt.task().output(&root).spawn(move |t| {
            spin_for(exec_ns);
            t.write(&root)[0] = 1;
        });
    }
    for cell in &cells {
        for i in 0..spec.chain_len {
            let cell2 = cell.clone();
            if i == 0 {
                let root = root.clone();
                rt.task().input(&root).inout(cell).spawn(move |t| {
                    spin_for(exec_ns);
                    t.write(&cell2)[0] += 1;
                });
            } else {
                rt.task().inout(cell).spawn(move |t| {
                    spin_for(exec_ns);
                    t.write(&cell2)[0] += 1;
                });
            }
        }
    }
    rt.barrier();
    let elapsed = t0.elapsed();
    for cell in &cells {
        assert_eq!(
            rt.with_data(cell, |v| v[0]),
            spec.chain_len as u64,
            "a chain lost tasks"
        );
    }
    StealRun {
        elapsed,
        tasks: spec.task_count(),
        counts: rt.sched_counts(),
    }
}

/// Best (minimum) wall-clock over `runs` repetitions.
pub fn best_steal(shards: usize, workers: usize, spec: &StealStressSpec, runs: u32) -> StealRun {
    let mut best: Option<StealRun> = None;
    for _ in 0..runs {
        let r = run_steal(shards, workers, spec);
        if best.as_ref().is_none_or(|b| r.elapsed < b.elapsed) {
            best = Some(r);
        }
    }
    best.expect("runs >= 1")
}
