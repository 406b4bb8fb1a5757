//! The steal-stress workload: an imbalanced fan-out that makes work
//! stealing *mandatory* for any parallel speedup.
//!
//! Shape: one root task writes a seed address; `chains` chain-head tasks
//! each read the seed and take write ownership of their chain's cell
//! address; every subsequent chain task accesses its cell `inout`, so
//! each chain is strictly serial. The dependency graph is therefore a
//! single burst point — whoever retires the root wakes *every* chain head
//! at once — followed by long runs of one-wakes-one tasks.
//!
//! Under a centralized ready queue the burst and every subsequent wake
//! funnel through the same lock; under per-worker queues the burst lands
//! on the finishing worker's queue and other workers must steal chains to
//! contribute — which is exactly what `nexuspp_sched`'s stealing path
//! optimizes for and what its steal counters make visible. The same DAG
//! is generated here as an address trace so the dependency engines, the
//! cycle simulator, and the threaded runtimes can all consume it; the
//! scheduler-level harness in `nexuspp_sched::stress` replays the
//! identical structure directly.

use nexuspp_desim::SimTime;
use nexuspp_trace::{MemCost, Param, TaskRecord, Trace};

/// Parameters of the steal-stress stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealStressSpec {
    /// Parallel chains fanned out by the root.
    pub chains: u32,
    /// Serial tasks per chain.
    pub chain_len: u32,
    /// Pure execution time per task.
    pub exec_ns: u64,
}

impl StealStressSpec {
    /// A spec sized so `workers` workers stay fed once chains distribute
    /// (two chains per worker).
    #[cfg(test)]
    pub(crate) fn for_workers(workers: u32, chain_len: u32) -> Self {
        StealStressSpec {
            chains: 2 * workers.max(1),
            chain_len,
            exec_ns: 0,
        }
    }

    /// Total tasks including the root.
    pub fn task_count(&self) -> u64 {
        1 + self.chains as u64 * self.chain_len as u64
    }

    /// The root's seed address.
    pub(crate) fn root_addr(&self) -> u64 {
        0xD000_0000
    }

    /// Chain `c`'s cell address.
    pub(crate) fn chain_addr(&self, c: u32) -> u64 {
        0xD100_0000 + c as u64 * 0x100
    }

    /// Generate the trace: task ids match the scheduler-level harness
    /// encoding (0 is the root; chain `c` step `i` is
    /// `1 + c·chain_len + i`).
    pub fn generate(&self) -> Trace {
        assert!(self.chains >= 1, "need at least one chain");
        assert!(self.chain_len >= 1, "chains need at least one task");
        let task = |id: u64, params: Vec<Param>| TaskRecord {
            id,
            fptr: 0x57EA,
            params,
            exec: SimTime::from_ns(self.exec_ns),
            read: MemCost::None,
            write: MemCost::None,
        };
        let mut tasks = Vec::with_capacity(self.task_count() as usize);
        tasks.push(task(0, vec![Param::output(self.root_addr(), 64)]));
        for c in 0..self.chains {
            let cell = self.chain_addr(c);
            for i in 0..self.chain_len {
                let id = 1 + c as u64 * self.chain_len as u64 + i as u64;
                let params = if i == 0 {
                    vec![Param::input(self.root_addr(), 64), Param::inout(cell, 16)]
                } else {
                    vec![Param::inout(cell, 16)]
                };
                tasks.push(task(id, params));
            }
        }
        Trace::from_tasks(
            format!("steal-stress-{}x{}", self.chains, self.chain_len),
            tasks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_core::oracle::OracleResolver;

    #[test]
    fn only_root_is_initially_ready_and_burst_follows() {
        let spec = StealStressSpec {
            chains: 4,
            chain_len: 10,
            exec_ns: 0,
        };
        let trace = spec.generate();
        assert_eq!(trace.len() as u64, spec.task_count());
        let mut oracle = OracleResolver::new();
        let mut ready_at_submit = 0;
        for t in &trace.tasks {
            let (_, ready) = oracle.submit(&t.params);
            if ready {
                ready_at_submit += 1;
            }
        }
        assert_eq!(ready_at_submit, 1, "only the root may start immediately");
        // Finishing the root wakes exactly the chain heads — the
        // single-producer burst.
        let mut ready = oracle.ready_set();
        assert_eq!(ready.len(), 1);
        let woken = oracle.finish(ready.pop().unwrap());
        assert_eq!(
            woken.len() as u32,
            spec.chains,
            "root completion must release every chain head at once"
        );
    }

    #[test]
    fn chains_serialize_and_drain_completely() {
        let spec = StealStressSpec {
            chains: 3,
            chain_len: 8,
            exec_ns: 0,
        };
        let trace = spec.generate();
        let mut oracle = OracleResolver::new();
        for t in &trace.tasks {
            oracle.submit(&t.params);
        }
        let mut ready = oracle.ready_set();
        let mut done = 0u64;
        while let Some(id) = ready.pop() {
            done += 1;
            let woken = oracle.finish(id);
            // A chain task wakes at most its successor; the root wakes
            // the heads.
            assert!(woken.len() as u32 <= spec.chains);
            ready.extend(woken);
            // Never more ready than one per chain (strict serialization).
            assert!(ready.len() as u32 <= spec.chains);
        }
        assert_eq!(done, spec.task_count());
        assert!(oracle.all_done());
    }

    #[test]
    fn worker_sizing_keeps_every_worker_fed() {
        let spec = StealStressSpec::for_workers(4, 100);
        assert_eq!(spec.chains, 8);
        assert_eq!(spec.task_count(), 801);
    }
}
