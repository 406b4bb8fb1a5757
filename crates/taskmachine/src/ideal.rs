//! Zero-overhead list scheduling: the scalability upper bound.
//!
//! An omniscient manager with free dependency resolution, free
//! scheduling, and uncontended memory: each task occupies one of `n`
//! cores for `read + exec + write` (no prefetch overlap — a core is its
//! own Task Controller here). The resulting makespan bounds what any
//! task-management hardware can achieve for the graph, which is the right
//! yardstick for the Figure 7 curves ("limited application scalability
//! explains why the speedup gain decreases faster for the H.264
//! benchmark").

use crate::memory::MemoryConfig;
use nexuspp_core::engine::CheckProgress;
use nexuspp_core::pool::TdIndex;
use nexuspp_core::{DependencyEngine, NexusConfig};
use nexuspp_desim::{Scheduler, SimTime};
use nexuspp_trace::{MemCost, TraceSource};
use std::collections::VecDeque;

fn mem_time(cost: MemCost, mem: &MemoryConfig) -> SimTime {
    match cost {
        MemCost::None => SimTime::ZERO,
        MemCost::Time(t) => t,
        MemCost::Bytes(b) => mem.transfer_time(b),
    }
}

/// Makespan of `source` under ideal list scheduling on `cores` cores.
/// Task duration = read + exec + write (timed by `mem` for byte-volume
/// costs) — a *no-prefetch* core model. Submission order is respected for
/// dependency discovery but imposes no rate limit. Note that a machine
/// with task buffering can overlap memory with execution and legitimately
/// beat this number; [`ideal_makespan_overlapped`] is the absolute bound.
pub fn ideal_makespan(source: &mut dyn TraceSource, cores: usize, mem: &MemoryConfig) -> SimTime {
    assert!(cores >= 1);
    let mut engine = DependencyEngine::new(&NexusConfig::unbounded());
    let mut durations: Vec<SimTime> = Vec::new();

    // Admit everything up front (an omniscient manager has no window) and
    // collect the initially ready set.
    let mut ready: VecDeque<TdIndex> = VecDeque::new();
    while let Some(rec) = source.next_task() {
        let dur = mem_time(rec.read, mem) + rec.exec + mem_time(rec.write, mem);
        let (td, _) = engine
            .admit(rec.fptr, rec.id, rec.params)
            .expect("growable engine cannot reject");
        if td.0 as usize >= durations.len() {
            durations.resize(td.0 as usize + 1, SimTime::ZERO);
        }
        durations[td.0 as usize] = dur;
        match engine.check(td) {
            CheckProgress::Done { ready: r, .. } => {
                if r {
                    ready.push_back(td);
                }
            }
            CheckProgress::Stalled { .. } => unreachable!("growable"),
        }
    }

    // Event-driven list scheduling.
    let mut sched: Scheduler<TdIndex> = Scheduler::new();
    let mut free_cores = cores;
    let mut makespan = SimTime::ZERO;
    loop {
        while free_cores > 0 {
            match ready.pop_front() {
                Some(td) => {
                    free_cores -= 1;
                    sched.schedule(durations[td.0 as usize], td);
                }
                None => break,
            }
        }
        match sched.pop() {
            Some((t, td)) => {
                makespan = t;
                free_cores += 1;
                let fin = engine.finish(td);
                ready.extend(fin.newly_ready);
            }
            None => break,
        }
    }
    assert_eq!(
        engine.in_flight(),
        0,
        "ideal schedule left tasks unfinished"
    );
    makespan
}

/// Absolute lower bound: perfect prefetching hides all memory time, so a
/// task occupies a core for its execution time only. No task manager —
/// hardware or software — can finish the graph faster on `cores` cores.
pub fn ideal_makespan_overlapped(source: &mut dyn TraceSource, cores: usize) -> SimTime {
    struct ExecOnly<'a>(&'a mut dyn TraceSource);
    impl TraceSource for ExecOnly<'_> {
        fn next_task(&mut self) -> Option<nexuspp_trace::TaskRecord> {
            self.0.next_task().map(|mut t| {
                t.read = MemCost::None;
                t.write = MemCost::None;
                t
            })
        }
        fn len_hint(&self) -> Option<u64> {
            self.0.len_hint()
        }
    }
    ideal_makespan(&mut ExecOnly(source), cores, &MemoryConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_trace::{Param, TaskRecord, Trace};
    use nexuspp_workloads::{GridPattern, GridSpec};

    fn mem() -> MemoryConfig {
        MemoryConfig::default()
    }

    #[test]
    fn independent_tasks_pack_perfectly() {
        let tasks: Vec<TaskRecord> = (0..16)
            .map(|i| TaskRecord {
                id: i,
                fptr: 1,
                params: vec![Param::inout(0x100 + i * 64, 8)],
                exec: SimTime::from_us(5),
                read: MemCost::None,
                write: MemCost::None,
            })
            .collect();
        let tr = Trace::from_tasks("ind", tasks);
        let mut s = tr.clone().into_source();
        assert_eq!(ideal_makespan(&mut s, 4, &mem()), SimTime::from_us(20));
        let mut s = tr.clone().into_source();
        assert_eq!(ideal_makespan(&mut s, 16, &mem()), SimTime::from_us(5));
        let mut s = tr.into_source();
        assert_eq!(ideal_makespan(&mut s, 1, &mem()), SimTime::from_us(80));
    }

    #[test]
    fn chain_is_serial_even_with_many_cores() {
        let tasks: Vec<TaskRecord> = (0..10)
            .map(|i| {
                let mut p = vec![Param::output(0x100 + i * 64, 8)];
                if i > 0 {
                    p.push(Param::input(0x100 + (i - 1) * 64, 8));
                }
                TaskRecord {
                    id: i,
                    fptr: 1,
                    params: p,
                    exec: SimTime::from_us(3),
                    read: MemCost::None,
                    write: MemCost::None,
                }
            })
            .collect();
        let mut s = Trace::from_tasks("chain", tasks).into_source();
        assert_eq!(ideal_makespan(&mut s, 8, &mem()), SimTime::from_us(30));
    }

    #[test]
    fn wavefront_bound_matches_profile() {
        // The ideal speedup of the deterministic wavefront approaches
        // tasks / critical-path for large core counts.
        let g = GridSpec::small(20, 12);
        let tr = g.generate(GridPattern::Wavefront);
        let mut s1 = tr.clone().into_source();
        let m1 = ideal_makespan(&mut s1, 1, &mem());
        let mut sbig = tr.clone().into_source();
        let mbig = ideal_makespan(&mut sbig, 1024, &mem());
        let profile = nexuspp_workloads::analysis::parallelism_profile(&tr);
        let ideal_speedup = m1 / mbig;
        let bound = profile.avg_parallelism();
        assert!(
            (ideal_speedup - bound).abs() / bound < 0.05,
            "ideal {ideal_speedup} vs avg parallelism {bound}"
        );
    }

    #[test]
    fn byte_costs_timed_by_memory_model() {
        let tasks = vec![TaskRecord {
            id: 0,
            fptr: 1,
            params: vec![Param::inout(0x100, 8)],
            exec: SimTime::from_ns(100),
            read: MemCost::Bytes(256),  // 2 chunks → 24 ns
            write: MemCost::Bytes(128), // 1 chunk → 12 ns
        }];
        let mut s = Trace::from_tasks("b", tasks).into_source();
        assert_eq!(
            ideal_makespan(&mut s, 1, &mem()),
            SimTime::from_ns(100 + 24 + 12)
        );
    }
}
