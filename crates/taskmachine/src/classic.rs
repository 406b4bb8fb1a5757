//! The original Nexus, as a feasibility and cost model.
//!
//! From the paper's §I: "since the hash table entries have a fixed size,
//! the number of inputs and outputs of each task is limited (up to 5 in
//! \[10\], \[9\]). Similarly, the number of tasks that can depend on a certain
//! data segment is limited. This limits the applicability of Nexus, i.e.,
//! not all StarSs applications can be executed on a multicore system with
//! Nexus." And §III-B: "Dependency resolution in Nexus++ is more
//! efficient than that in Nexus, since we use fewer and simpler tables and
//! Kick-Off Lists. Nexus++ has only one table to maintain the task graph
//! […] In Nexus, on the other hand, three tables (containing two Kick-Off
//! Lists) are used and are accessed always for all kinds of scenarios."
//!
//! [`classic_check`] replays a workload through the Nexus++ engine (whose
//! statistics tell us exactly where capacity virtualization was needed)
//! and classifies it for classic Nexus: any task needing more than
//! `max_params` parameters, or any Kick-Off List needing more than
//! `kickoff_entries` waiters, makes the workload unsupported. It also
//! reports the lookup-count comparison behind the efficiency claim.

use nexuspp_core::engine::CheckProgress;
use nexuspp_core::pool::PoolError;
use nexuspp_core::{DependencyEngine, NexusConfig};
use nexuspp_desim::Rng;
use nexuspp_trace::{Trace, TraceSource};
use std::collections::VecDeque;

/// The published limits of the original Nexus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassicLimits {
    /// Parameters per task ("up to 5 in \[10\], \[9\]").
    pub max_params: usize,
    /// Kick-Off List slots, with no dummy-entry extension.
    pub kickoff_entries: usize,
    /// Tables touched per dependency operation ("three tables … are
    /// accessed always for all kinds of scenarios").
    pub tables_per_op: u64,
}

impl Default for ClassicLimits {
    fn default() -> Self {
        ClassicLimits {
            max_params: 5,
            kickoff_entries: 8,
            tables_per_op: 3,
        }
    }
}

/// Outcome of checking a workload against classic Nexus.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassicVerdict {
    /// Whether classic Nexus can run the workload at all.
    pub supported: bool,
    /// Human-readable reasons for rejection (empty when supported).
    pub reasons: Vec<String>,
    /// Tasks that exceed the parameter limit.
    pub oversized_tasks: u64,
    /// Largest parameter list seen.
    pub max_params_seen: u64,
    /// Largest simultaneous waiter count on one address.
    pub max_waiters_seen: u64,
    /// Estimated classic lookup count (three tables on every operation).
    pub classic_accesses: u64,
    /// Measured Nexus++ table accesses for the same workload.
    pub nexuspp_accesses: u64,
}

impl ClassicVerdict {
    /// Lookup-count ratio (classic / Nexus++) — the §III-B efficiency
    /// claim quantified.
    pub fn access_ratio(&self) -> f64 {
        if self.nexuspp_accesses == 0 {
            0.0
        } else {
            self.classic_accesses as f64 / self.nexuspp_accesses as f64
        }
    }
}

/// Replay `source` through a roomy Nexus++ engine with a random (seeded)
/// completion order and classify it for classic Nexus.
///
/// Execution order matters for waiter-count peaks; a seeded random order
/// with a bounded in-flight window approximates the windowed execution of
/// the real machine. `window` bounds in-flight tasks (the Task Pool size).
pub(crate) fn classic_check(
    source: &mut dyn TraceSource,
    limits: ClassicLimits,
    window: usize,
    seed: u64,
) -> ClassicVerdict {
    // Roomy engine: we want the workload's *demands*, not capacity stalls.
    let cfg = NexusConfig {
        task_pool_entries: window.max(16),
        params_per_td: usize::MAX,
        dep_table_entries: (window.max(16)) * 8,
        kickoff_entries: usize::MAX,
        growable: true,
    };
    let mut engine = DependencyEngine::new(&cfg);
    let mut rng = Rng::new(seed);
    let mut ready: Vec<nexuspp_core::TdIndex> = Vec::new();
    let mut pending: VecDeque<nexuspp_trace::TaskRecord> = VecDeque::new();

    let mut oversized = 0u64;
    let mut max_params_seen = 0u64;
    let mut max_waiters = 0u64;
    let mut param_ops = 0u64; // parameters processed (check + finish)

    let mut exhausted = false;
    loop {
        // Admit up to the window.
        while !exhausted && engine.in_flight() < window {
            let rec = if let Some(r) = pending.pop_front() {
                r
            } else {
                match source.next_task() {
                    Some(r) => r,
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            };
            max_params_seen = max_params_seen.max(rec.params.len() as u64);
            if rec.params.len() > limits.max_params {
                oversized += 1;
            }
            param_ops += rec.params.len() as u64;
            let (td, _) = match engine.admit(rec.fptr, rec.id, rec.params) {
                Ok(v) => v,
                Err(PoolError::PoolFull { .. }) => unreachable!("growable"),
                Err(PoolError::TaskTooLarge { .. }) => unreachable!("growable"),
            };
            match engine.check(td) {
                CheckProgress::Done { ready: r, .. } => {
                    if r {
                        ready.push(td);
                    }
                }
                CheckProgress::Stalled { .. } => unreachable!("growable"),
            }
        }
        if ready.is_empty() {
            break;
        }
        // Finish a random ready task.
        let pick = rng.gen_range(ready.len() as u64) as usize;
        let td = ready.swap_remove(pick);
        param_ops += engine.pool().get(td).params.len() as u64;
        let fin = engine.finish(td);
        ready.extend(fin.newly_ready);
    }
    // The live-waiter maximum is tracked monotonically by the table.
    max_waiters = max_waiters.max(engine.table().stats().max_waiters_live);

    let mut reasons = Vec::new();
    if oversized > 0 {
        reasons.push(format!(
            "{oversized} task(s) exceed the {}-parameter descriptor limit (max seen: {max_params_seen})",
            limits.max_params
        ));
    }
    if max_waiters > limits.kickoff_entries as u64 {
        reasons.push(format!(
            "kick-off list overflow: {max_waiters} waiters on one data segment (limit {})",
            limits.kickoff_entries
        ));
    }
    let nexuspp_accesses = engine.table().stats().chain_lengths.total()
        + engine.table().stats().inserts
        + engine.table().stats().deletes
        + engine.table().stats().ext_allocs;
    ClassicVerdict {
        supported: reasons.is_empty(),
        reasons,
        oversized_tasks: oversized,
        max_params_seen,
        max_waiters_seen: max_waiters,
        classic_accesses: param_ops * limits.tables_per_op,
        nexuspp_accesses,
    }
}

/// Convenience for in-memory traces.
pub fn classic_check_trace(
    trace: &Trace,
    limits: ClassicLimits,
    window: usize,
    seed: u64,
) -> ClassicVerdict {
    let mut src = trace.clone().into_source();
    classic_check(&mut src, limits, window, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_workloads::{stress, GaussianSpec, GridPattern, GridSpec};

    #[test]
    fn h264_wavefront_is_supported() {
        // The wavefront has ≤3 params and ≤2 dependents per block.
        let tr = GridSpec::small(20, 12).generate(GridPattern::Wavefront);
        let v = classic_check_trace(&tr, ClassicLimits::default(), 1024, 1);
        assert!(v.supported, "reasons: {:?}", v.reasons);
        assert!(v.max_params_seen <= 3);
    }

    #[test]
    fn gaussian_is_rejected_for_kickoff_overflow() {
        // Column fan-out exceeds any fixed kick-off list once n is large
        // enough relative to the window.
        let tr = GaussianSpec::new(64).trace();
        let v = classic_check_trace(&tr, ClassicLimits::default(), 1024, 1);
        assert!(!v.supported);
        assert!(v.max_waiters_seen > 8, "waiters: {}", v.max_waiters_seen);
        assert!(v.reasons.iter().any(|r| r.contains("kick-off")));
    }

    #[test]
    fn wide_params_rejected_for_descriptor_limit() {
        let tr = stress::wide_params(10, 12, 100);
        let v = classic_check_trace(&tr, ClassicLimits::default(), 64, 1);
        assert!(!v.supported);
        assert_eq!(v.oversized_tasks, 10);
        assert!(v.reasons.iter().any(|r| r.contains("parameter")));
    }

    #[test]
    fn nexuspp_uses_fewer_lookups() {
        let tr = GridSpec::small(16, 16).generate(GridPattern::Wavefront);
        let v = classic_check_trace(&tr, ClassicLimits::default(), 256, 7);
        assert!(
            v.access_ratio() > 1.0,
            "classic should cost more lookups: ratio {}",
            v.access_ratio()
        );
    }
}
