//! Synthetic stressors for mechanisms the paper's benchmarks do not reach.
//!
//! * [`wide_params`] — tasks with arbitrarily long parameter lists,
//!   validating the **dummy task** chain in the Task Pool (the paper's own
//!   benchmarks have ≤ 3 parameters per task under our workload models;
//!   the mechanism is motivated by §II-C but only synthetic tasks hit it),
//! * `fan_out` (unit tests only) — one producer feeding `k` consumers,
//!   the minimal Kick-Off-List overflow case,
//! * `war_chain` (unit tests only) — alternating reader groups and
//!   writers on one address, exercising the `ww` ("a writer waits") flag
//!   and the drain-readers-until-writer wake-up that the paper describes
//!   as a WAR/WAW safeguard.

use nexuspp_desim::SimTime;
use nexuspp_trace::{MemCost, Param, TaskRecord, Trace};

fn task(id: u64, params: Vec<Param>, exec_ns: u64) -> TaskRecord {
    TaskRecord {
        id,
        fptr: 0x57E5,
        params,
        exec: SimTime::from_ns(exec_ns),
        read: MemCost::None,
        write: MemCost::None,
    }
}

/// `n_tasks` tasks, each with `n_params` parameters. Consecutive tasks are
/// chained: task `t` reads the first output of task `t−1`, so the trace
/// also checks that dependencies land on the correct parameter even deep
/// inside a dummy-task chain.
pub fn wide_params(n_tasks: u32, n_params: u32, exec_ns: u64) -> Trace {
    assert!(n_params >= 1);
    let stride = 64u64;
    let block = |t: u64, k: u64| 0x8000_0000 + (t * n_params as u64 + k) * stride;
    let mut tasks = Vec::with_capacity(n_tasks as usize);
    for t in 0..n_tasks as u64 {
        let mut params = Vec::with_capacity(n_params as usize);
        if t > 0 {
            // Depend on the previous task's first output.
            params.push(Param::input(block(t - 1, 0), 16));
        }
        let own = if t > 0 { n_params - 1 } else { n_params };
        for k in 0..own as u64 {
            params.push(Param::output(block(t, k), 16));
        }
        tasks.push(task(t, params, exec_ns));
    }
    Trace::from_tasks(format!("wide-params-{n_tasks}x{n_params}"), tasks)
}

/// One producer writing a block, then `k` consumers each reading it: the
/// producer's Kick-Off List must hold `k` waiters (dummy entries beyond
/// the hardware list size).
#[cfg(test)]
pub(crate) fn fan_out(k: u32, exec_ns: u64) -> Trace {
    let addr = 0x9000_0000;
    let mut tasks = vec![task(0, vec![Param::output(addr, 64)], exec_ns)];
    for c in 1..=k as u64 {
        tasks.push(task(
            c,
            vec![Param::input(addr, 64), Param::output(addr + c * 0x100, 64)],
            exec_ns,
        ));
    }
    Trace::from_tasks(format!("fan-out-{k}"), tasks)
}

/// `rounds` repetitions of: `readers` read-only tasks on a shared address
/// followed by one writer of it. Every round after the first exercises the
/// RAW wake-up; every writer exercises the WAR (`ww`) path against the
/// round's readers.
#[cfg(test)]
pub(crate) fn war_chain(rounds: u32, readers: u32, exec_ns: u64) -> Trace {
    let shared = 0xA000_0000u64;
    let mut tasks = Vec::new();
    let mut id = 0u64;
    // Seed the address with an initial writer so readers have a producer.
    tasks.push(task(id, vec![Param::output(shared, 64)], exec_ns));
    id += 1;
    for r in 0..rounds as u64 {
        for c in 0..readers as u64 {
            tasks.push(task(
                id,
                vec![
                    Param::input(shared, 64),
                    Param::output(0xB000_0000 + (r * readers as u64 + c) * 0x40, 16),
                ],
                exec_ns,
            ));
            id += 1;
        }
        tasks.push(task(id, vec![Param::inout(shared, 64)], exec_ns));
        id += 1;
    }
    Trace::from_tasks(format!("war-chain-{rounds}x{readers}"), tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_core::oracle::OracleResolver;
    use nexuspp_core::{DependencyEngine, NexusConfig};

    #[test]
    fn wide_params_shapes() {
        let t = wide_params(4, 20, 100);
        assert_eq!(t.len(), 4);
        assert_eq!(t.tasks[0].params.len(), 20);
        assert_eq!(t.tasks[1].params.len(), 20); // 1 input + 19 outputs
        assert_eq!(t.stats().max_params, 20);
    }

    #[test]
    fn wide_params_chain_through_engine_with_dummies() {
        let trace = wide_params(6, 20, 100);
        let mut e = DependencyEngine::new(&NexusConfig::default());
        let mut tds = Vec::new();
        let mut ready_count = 0;
        for t in &trace.tasks {
            let (td, ready) = e.submit(t.fptr, t.id, t.params.clone()).unwrap();
            tds.push(td);
            ready_count += ready as u32;
        }
        assert_eq!(ready_count, 1, "only the head of the chain is ready");
        // 20 params at 8/TD → 3 descriptors each.
        assert_eq!(e.pool().stats().dummy_tds_allocated, 2 * 6);
        for td in tds {
            e.finish(td);
        }
        assert_eq!(e.pool().in_use(), 0);
        assert_eq!(e.table().occupied(), 0);
    }

    #[test]
    fn fan_out_waiters_overflow_kickoff_list() {
        let trace = fan_out(20, 100);
        let mut e = DependencyEngine::new(&NexusConfig::default());
        let mut tds = Vec::new();
        for t in &trace.tasks {
            let (td, _) = e.submit(t.fptr, t.id, t.params.clone()).unwrap();
            tds.push(td);
        }
        // 20 waiters at list size 8 → at least 2 dummy entries.
        assert!(e.table().stats().ext_allocs >= 2);
        let fin = e.finish(tds[0]);
        assert_eq!(fin.newly_ready.len(), 20, "all consumers wake at once");
    }

    #[test]
    fn war_chain_is_fully_serial_between_rounds() {
        let trace = war_chain(3, 4, 10);
        let mut oracle = OracleResolver::new();
        for t in &trace.tasks {
            oracle.submit(&t.params);
        }
        // Drain: at any point the ready set is either one writer or one
        // round of readers.
        let mut steps = Vec::new();
        while !oracle.all_done() {
            let ready = oracle.ready_set();
            steps.push(ready.len());
            for id in ready {
                oracle.finish(id);
            }
        }
        assert_eq!(steps, vec![1, 4, 1, 4, 1, 4, 1]);
    }
}
