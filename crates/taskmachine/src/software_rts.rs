//! The software StarSs runtime bottleneck model.
//!
//! "Previous work \[10\] has shown, however, that the StarSs RTS, when
//! implemented in software, can be a bottleneck that limits the
//! scalability of applications parallelized using StarSs. Roughly
//! speaking, the RTS cannot compute task dependencies and attend to
//! finished tasks fast enough to keep all worker cores busy."
//!
//! The model: one master core runs the runtime. Every submission costs
//! `submit_base + per_param × n` and every completion costs
//! `finish_base + per_param × n`, all serialized on the master (software
//! hash tables, no hardware concurrency). Workers execute tasks
//! (read + exec + write, uncontended) and are otherwise free. The
//! defaults are fitted so that the H.264 workload saturates around the
//! 4–5× speedup the Nexus work reports for a software runtime at 16
//! cores, giving the motivating curve Nexus and Nexus++ improve on.

use crate::memory::MemoryConfig;
use crate::sched::Scheduler;
use nexuspp_core::engine::CheckProgress;
use nexuspp_core::pool::TdIndex;
use nexuspp_core::{DependencyEngine, NexusConfig};
use nexuspp_desim::SimTime;
use nexuspp_trace::{MemCost, TaskRecord, TraceSource};
use std::collections::VecDeque;

/// Software runtime cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareRtsConfig {
    /// Fixed master-side cost per task submission.
    pub submit_base: SimTime,
    /// Fixed master-side cost per task completion.
    pub finish_base: SimTime,
    /// Additional master-side cost per parameter (hashing, list surgery).
    pub per_param: SimTime,
    /// Tasks the runtime keeps in flight (software task window).
    pub window: usize,
}

impl Default for SoftwareRtsConfig {
    fn default() -> Self {
        SoftwareRtsConfig {
            submit_base: SimTime::from_ns(1500),
            finish_base: SimTime::from_ns(1500),
            per_param: SimTime::from_ns(300),
            window: 1024,
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// Master finished its current runtime operation.
    MasterDone,
    /// A worker finished its task.
    WorkerDone(TdIndex),
}

#[derive(Debug)]
enum MasterOp {
    Submit(TaskRecord),
    Finish(TdIndex),
}

fn mem_time(cost: MemCost, mem: &MemoryConfig) -> SimTime {
    match cost {
        MemCost::None => SimTime::ZERO,
        MemCost::Time(t) => t,
        MemCost::Bytes(b) => mem.transfer_time(b),
    }
}

/// Simulate `source` on `workers` cores under the software runtime.
/// Returns the makespan.
pub fn simulate_software_rts(
    source: &mut dyn TraceSource,
    workers: usize,
    cfg: &SoftwareRtsConfig,
    mem: &MemoryConfig,
) -> SimTime {
    assert!(workers >= 1);
    let mut engine = DependencyEngine::new(&NexusConfig::unbounded());
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let mut durations: Vec<SimTime> = Vec::new();

    let mut ready: VecDeque<TdIndex> = VecDeque::new();
    // Completions waiting for the master's attention.
    let mut finish_q: VecDeque<TdIndex> = VecDeque::new();
    // The operation the master is currently performing.
    let mut current: Option<MasterOp> = None;
    let mut free_workers = workers;
    let mut source_done = false;
    let mut in_flight = 0usize;
    let mut makespan = SimTime::ZERO;

    // Start the next master operation if idle: completions take priority
    // (they unblock workers), then submission while the window has room.
    #[allow(clippy::too_many_arguments)] // internal helper mirroring the sim state
    fn kick_master(
        current: &mut Option<MasterOp>,
        finish_q: &mut VecDeque<TdIndex>,
        source: &mut dyn TraceSource,
        source_done: &mut bool,
        in_flight: usize,
        cfg: &SoftwareRtsConfig,
        engine: &DependencyEngine,
        sched: &mut Scheduler<Ev>,
    ) {
        if current.is_some() {
            return;
        }
        if let Some(td) = finish_q.pop_front() {
            let n = engine.pool().get(td).params.len() as u64;
            sched.schedule(cfg.finish_base + cfg.per_param * n, Ev::MasterDone);
            *current = Some(MasterOp::Finish(td));
            return;
        }
        if !*source_done && in_flight < cfg.window {
            match source.next_task() {
                Some(rec) => {
                    let n = rec.params.len() as u64;
                    sched.schedule(cfg.submit_base + cfg.per_param * n, Ev::MasterDone);
                    *current = Some(MasterOp::Submit(rec));
                }
                None => *source_done = true,
            }
        }
    }

    kick_master(
        &mut current,
        &mut finish_q,
        source,
        &mut source_done,
        in_flight,
        cfg,
        &engine,
        &mut sched,
    );
    while let Some((t, ev)) = sched.pop() {
        match ev {
            Ev::MasterDone => match current.take().expect("master done without op") {
                MasterOp::Submit(rec) => {
                    in_flight += 1;
                    let dur = mem_time(rec.read, mem) + rec.exec + mem_time(rec.write, mem);
                    let (td, _) = engine
                        .admit(rec.fptr, rec.id, rec.params)
                        .expect("growable engine cannot reject");
                    if td.0 as usize >= durations.len() {
                        durations.resize(td.0 as usize + 1, SimTime::ZERO);
                    }
                    durations[td.0 as usize] = dur;
                    let is_ready = match engine.check(td) {
                        CheckProgress::Done { ready, .. } => ready,
                        CheckProgress::Stalled { .. } => unreachable!("growable"),
                    };
                    if is_ready {
                        ready.push_back(td);
                    }
                }
                MasterOp::Finish(td) => {
                    in_flight -= 1;
                    let fin = engine.finish(td);
                    ready.extend(fin.newly_ready);
                    makespan = t;
                }
            },
            Ev::WorkerDone(td) => {
                free_workers += 1;
                makespan = t;
                finish_q.push_back(td);
            }
        }
        // Dispatch ready tasks to free workers.
        while free_workers > 0 {
            match ready.pop_front() {
                Some(td) => {
                    free_workers -= 1;
                    sched.schedule(durations[td.0 as usize], Ev::WorkerDone(td));
                }
                None => break,
            }
        }
        kick_master(
            &mut current,
            &mut finish_q,
            source,
            &mut source_done,
            in_flight,
            cfg,
            &engine,
            &mut sched,
        );
    }
    assert_eq!(engine.in_flight(), 0, "software RTS left tasks unfinished");
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_workloads::{GridPattern, GridSpec};

    #[test]
    fn rts_overhead_caps_scalability() {
        // The master serializes every submit and finish, so no number of
        // cores brings the makespan under their sum.
        let tr = GridSpec::default().generate(GridPattern::Independent);
        let (cfg, stats) = (SoftwareRtsConfig::default(), tr.stats());
        let master = (cfg.submit_base + cfg.finish_base) * stats.tasks
            + cfg.per_param * (2 * stats.total_params);
        for cores in [1, 16, 64] {
            let mut src = tr.clone().into_source();
            let m = simulate_software_rts(&mut src, cores, &cfg, &MemoryConfig::default());
            assert!(m >= master, "{cores} cores: {m} < master {master}");
        }
    }

    #[test]
    fn single_worker_close_to_serial_sum() {
        let g = GridSpec::small(6, 6);
        let tr = g.generate(GridPattern::Independent);
        let stats = tr.stats();
        let serial: SimTime = stats.total_exec + stats.total_read_time + stats.total_write_time;
        let mut s = tr.clone().into_source();
        let m = simulate_software_rts(
            &mut s,
            1,
            &SoftwareRtsConfig::default(),
            &MemoryConfig::default(),
        );
        assert!(m >= serial, "makespan must cover all work");
        assert!(
            m < serial * 2,
            "overhead should not dominate 19 µs tasks: {m} vs {serial}"
        );
    }

    #[test]
    fn deterministic() {
        let tr = GridSpec::small(8, 8).generate(GridPattern::Wavefront);
        let mut a = tr.clone().into_source();
        let mut b = tr.clone().into_source();
        let cfg = SoftwareRtsConfig::default();
        let mem = MemoryConfig::default();
        assert_eq!(
            simulate_software_rts(&mut a, 7, &cfg, &mem),
            simulate_software_rts(&mut b, 7, &cfg, &mem)
        );
    }
}
