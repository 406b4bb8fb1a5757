//! Closed-form bottleneck analysis of the Task Machine.
//!
//! The paper explains its curves qualitatively: "the speedup gain starts
//! to decrease because the master core … cannot generate tasks fast enough
//! to keep all worker cores busy, and due to limited memory bandwidth."
//! This module turns that reasoning into checked arithmetic: a pipeline of
//! servers (master, Maestro stages, worker pool, memory banks), each with
//! a per-task service time computed from the same configuration constants
//! the simulator uses. The steady-state task rate is the minimum stage
//! rate, and predicted speedup is that rate normalized by the single-core
//! rate.
//!
//! The integration tests require the discrete-event simulator to agree
//! with this model within a small tolerance on steady-state workloads —
//! a strong internal-consistency check: two independent implementations of
//! the same system model must tell the same story.

use crate::config::{MachineConfig, NEXUS_CLOCK};
use crate::memory::MemoryMode;
use nexuspp_desim::SimTime;
use nexuspp_trace::{MemCost, Trace};

/// Mean per-task demands extracted from a workload.
#[derive(Debug, Clone, Copy)]
pub struct TaskDemand {
    /// Mean execution time.
    pub exec: SimTime,
    /// Mean input-fetch time (trace times and byte volumes combined).
    pub read: SimTime,
    /// Mean write-back time.
    pub write: SimTime,
    /// Mean parameters per task.
    pub params: f64,
}

impl TaskDemand {
    /// Extract mean demands from a trace under a machine's memory model.
    pub(crate) fn from_trace(trace: &Trace, cfg: &MachineConfig) -> TaskDemand {
        let n = trace.len().max(1) as u64;
        let mem_time = |c: MemCost| match c {
            MemCost::None => SimTime::ZERO,
            MemCost::Time(t) => t,
            MemCost::Bytes(b) => cfg.memory.transfer_time(b),
        };
        let mut exec = SimTime::ZERO;
        let mut read = SimTime::ZERO;
        let mut write = SimTime::ZERO;
        let mut params = 0u64;
        for t in &trace.tasks {
            exec += t.exec;
            read += mem_time(t.read);
            write += mem_time(t.write);
            params += t.params.len() as u64;
        }
        TaskDemand {
            exec: exec / n,
            read: read / n,
            write: write / n,
            params: params as f64 / n as f64,
        }
    }
}

/// Per-stage service times and the resulting throughput prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Master-core serial time per task (prep + submission + staging).
    pub master: SimTime,
    /// Estimated busiest Maestro block time per task.
    pub maestro: SimTime,
    /// Per-worker pipeline period (buffered: stages overlap).
    pub core_period: SimTime,
    /// Memory-bank service demand per task (read + write slot holding).
    pub mem_per_task: SimTime,
    /// Memory slots available (usize::MAX when contention-free).
    pub mem_slots: usize,
    /// Worker count.
    pub workers: usize,
}

impl Prediction {
    /// Build a prediction for `demand` on `cfg`.
    pub fn new(demand: &TaskDemand, cfg: &MachineConfig) -> Prediction {
        let params = demand.params.ceil() as usize;
        let clk = NEXUS_CLOCK;
        let words = 1 + params as u64;
        let master = cfg.master.prep_time
            + cfg.bus.submission_time(params)
            + clk.cycles(cfg.blocks.getds_cycles_per_word * words);
        // Rough per-block service estimates: base cycles + one SRAM access
        // per parameter (insert or release) — the same constants the
        // simulator charges, minus chain effects.
        let per_param = cfg.sram.access_time(params as u64);
        let write_tp = clk.cycles(cfg.blocks.write_tp_base) + cfg.sram.access_time(1);
        let check = clk.cycles(cfg.blocks.check_deps_base) + per_param * 2;
        let schedule = clk.cycles(cfg.blocks.schedule_cycles);
        let send = clk.cycles(cfg.blocks.send_tds_base)
            + cfg.sram.access_time(1)
            + cfg.bus.td_transfer_time(params);
        let fin = clk.cycles(cfg.blocks.handle_fin_base) + per_param * 3;
        let maestro = [write_tp, check, schedule, send, fin]
            .into_iter()
            .max()
            .expect("nonempty");
        // With buffering ≥ 2 the TC pipeline overlaps its stages, so a
        // worker's steady-state period is its slowest stage.
        let core_period = if cfg.buffering_depth >= 2 {
            demand.exec.max(demand.read).max(demand.write)
        } else {
            demand.exec + demand.read + demand.write
        };
        Prediction {
            master,
            maestro,
            core_period,
            mem_per_task: demand.read + demand.write,
            mem_slots: match cfg.memory.mode {
                MemoryMode::Contended { slots } => slots,
                MemoryMode::ContentionFree => usize::MAX,
            },
            workers: cfg.workers,
        }
    }

    /// Steady-state task rate of each stage, in tasks per second.
    fn stage_rates(&self) -> [f64; 4] {
        let rate = |t: SimTime, servers: f64| {
            if t.is_zero() {
                f64::INFINITY
            } else {
                servers / (t.ps() as f64 * 1e-12)
            }
        };
        [
            rate(self.master, 1.0),
            rate(self.maestro, 1.0),
            rate(self.core_period, self.workers as f64),
            if self.mem_slots == usize::MAX {
                f64::INFINITY
            } else {
                rate(self.mem_per_task, self.mem_slots as f64)
            },
        ]
    }

    /// Predicted sustained throughput in tasks/second.
    pub fn throughput(&self) -> f64 {
        self.stage_rates().into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Which stage limits throughput.
    pub fn bottleneck(&self) -> &'static str {
        let rates = self.stage_rates();
        let min = self.throughput();
        const NAMES: [&str; 4] = ["master", "maestro", "workers", "memory"];
        for (name, r) in NAMES.iter().zip(rates) {
            if r == min {
                return name;
            }
        }
        unreachable!("minimum must match one stage")
    }

    /// Predicted speedup vs a single worker of the same family (whose rate
    /// is one task per `core_period`, matching the double-buffered
    /// single-core baseline).
    pub fn speedup(&self) -> f64 {
        let single = 1.0 / (self.core_period.ps() as f64 * 1e-12);
        self.throughput() / single.min(self.single_core_cap())
    }

    fn single_core_cap(&self) -> f64 {
        // A single worker is also bounded by master + maestro rates.
        let rates = self.stage_rates();
        rates[0]
            .min(rates[1])
            .min(1.0 / (self.core_period.ps() as f64 * 1e-12))
    }
}

/// Convenience: predict throughput-limited speedup for `trace` on `cfg`.
pub fn predict_speedup(trace: &Trace, cfg: &MachineConfig) -> Prediction {
    let demand = TaskDemand::from_trace(trace, cfg);
    Prediction::new(&demand, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    use nexuspp_trace::{Param, TaskRecord};

    fn independent(n: u64, exec_us: u64, read_us: u64) -> Trace {
        let tasks = (0..n)
            .map(|i| TaskRecord {
                id: i,
                fptr: 1,
                params: vec![
                    Param::input(0x10_0000 + i * 128, 16),
                    Param::input(0x10_0040 + i * 128, 16),
                    Param::inout(0x10_0080 + i * 128, 16),
                ],
                exec: SimTime::from_us(exec_us),
                read: if read_us == 0 {
                    MemCost::None
                } else {
                    MemCost::Time(SimTime::from_us(read_us))
                },
                write: MemCost::None,
            })
            .collect();
        Trace::from_tasks("ind", tasks)
    }

    #[test]
    fn demand_extraction() {
        let cfg = MachineConfig::with_workers(4);
        let d = TaskDemand::from_trace(&independent(10, 10, 5), &cfg);
        assert_eq!(d.exec, SimTime::from_us(10));
        assert_eq!(d.read, SimTime::from_us(5));
        assert!((d.params - 3.0).abs() < 1e-9);
    }

    #[test]
    fn few_workers_are_worker_bound() {
        let trace = independent(100, 10, 0);
        let p = predict_speedup(&trace, &MachineConfig::with_workers(4));
        assert_eq!(p.bottleneck(), "workers");
        assert!((p.speedup() - 4.0).abs() < 0.2, "speedup {}", p.speedup());
    }

    #[test]
    fn many_workers_hit_master() {
        let trace = independent(100, 10, 0);
        let p = predict_speedup(&trace, &MachineConfig::with_workers(512).contention_free());
        assert_eq!(p.bottleneck(), "master");
        assert!(p.speedup() < 512.0);
    }

    #[test]
    fn memory_ceiling_detected() {
        // 64 workers × 6 µs memory per task vs 32 slots and 2 µs exec: the
        // memory pool is the constraint.
        let trace = independent(100, 2, 6);
        let p = predict_speedup(&trace, &MachineConfig::with_workers(64));
        assert_eq!(p.bottleneck(), "memory");
    }

    #[test]
    fn contention_free_removes_memory_ceiling() {
        let trace = independent(100, 2, 6);
        let p = predict_speedup(&trace, &MachineConfig::with_workers(64).contention_free());
        assert_ne!(p.bottleneck(), "memory");
    }
}
