//! The version-stress workload: rename-heavy declarative programs where
//! the gap between the frontend's two lowerings is the whole point.
//!
//! Two shapes, both built through the resource-versioning frontend
//! (`nexuspp-frontend`) rather than hand-addressed:
//!
//! * **Version chains** — `chains` resources, each written
//!   `chain_len` times by `writes`-only tasks (a producer refilling a
//!   buffer). There are **no reads**, so under [`Lowering::Renamed`]
//!   every write gets its own address and all `chains × chain_len`
//!   tasks are independent; under [`Lowering::Raw`] each chain
//!   serializes through the Dependence Table's output-dependence (`ww`)
//!   tracking — the classic WAW false-dependency tax.
//! * **Halo-exchange stencil** — a 1-D Jacobi sweep: `cells` resources,
//!   `steps` timesteps, task `(i, t)` reading the step-`t−1` versions
//!   of cells `i−1, i, i+1` (version pins) and writing cell `i`. The
//!   true dependencies form a wavefront of width `cells`; the raw
//!   encoding adds WAR/WAW serialization between consecutive steps.
//!
//! The structural claim — renaming buys ≥ 2× available parallelism —
//! is asserted by `parallelism_profile` over both lowered traces in
//! this module's tests; the *measured* claim (executed-width on a
//! 4-worker `Runtime` at least doubles) lives
//! in `tests/version_parallelism.rs`.

use nexuspp_desim::SimTime;
use nexuspp_frontend::{LoweredProgram, Lowering, Program};
use nexuspp_trace::{MemCost, Trace};

/// Parameters of the version-stress program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionStressSpec {
    /// Independent write-only version chains.
    pub chains: u32,
    /// Writes per chain (the WAW depth the raw lowering serializes).
    pub chain_len: u32,
    /// Stencil cells (0 disables the stencil).
    pub cells: u32,
    /// Stencil timesteps.
    pub steps: u32,
    /// Pure execution time per task (carried onto trace records).
    pub exec_ns: u64,
}

impl VersionStressSpec {
    /// The default rename-heavy mix: 32 chains of depth 32 plus a
    /// 12-cell, 6-step stencil.
    pub fn renaming_heavy() -> Self {
        VersionStressSpec {
            chains: 32,
            chain_len: 32,
            cells: 12,
            steps: 6,
            exec_ns: 0,
        }
    }

    /// A single deep chain: the starkest case — strictly serial raw,
    /// fully independent renamed. Used by the measured-width test.
    pub fn single_chain(chain_len: u32) -> Self {
        VersionStressSpec {
            chains: 1,
            chain_len,
            cells: 0,
            steps: 0,
            exec_ns: 0,
        }
    }

    /// Total declared tasks.
    pub fn task_count(&self) -> u64 {
        u64::from(self.chains) * u64::from(self.chain_len)
            + u64::from(self.cells) * u64::from(self.steps)
    }

    /// Build the declarative program (chains first, then the stencil,
    /// step-major so every version pin references minted history).
    pub fn program(&self) -> Program {
        let mut p = Program::new();
        let mut tag = 0u64;
        for c in 0..self.chains {
            let name = format!("chain{c}");
            for _ in 0..self.chain_len {
                p.task(0x7E10).tag(tag).writes(&name).submit().unwrap();
                tag += 1;
            }
        }
        if self.cells > 0 {
            let cell = |i: u32| format!("cell{i}");
            for i in 0..self.cells {
                p.resource(&cell(i));
            }
            for t in 1..=self.steps {
                for i in 0..self.cells {
                    let mut b = p.task(0x7E57).tag(tag);
                    if i > 0 {
                        b = b.reads_version(&cell(i - 1), t - 1);
                    }
                    b = b.reads_version(&cell(i), t - 1);
                    if i + 1 < self.cells {
                        b = b.reads_version(&cell(i + 1), t - 1);
                    }
                    b.writes(&cell(i)).submit().unwrap();
                    tag += 1;
                }
            }
        }
        p
    }

    /// Lower the program under the given address mapping.
    pub fn lowered(&self, lowering: Lowering) -> LoweredProgram {
        self.program()
            .lower(lowering)
            .expect("version-stress pins always reference minted history")
    }

    /// The lowered program as an address trace (for the timing models
    /// and `parallelism_profile`).
    pub fn trace(&self, lowering: Lowering) -> Trace {
        let lp = self.lowered(lowering);
        let exec = SimTime::from_ns(self.exec_ns);
        let tasks = lp
            .tasks
            .into_iter()
            .map(|s| s.into_record(exec, MemCost::None, MemCost::None))
            .collect();
        Trace::from_tasks(
            format!(
                "version-stress-{}x{}c{}s{}-{}",
                self.chains,
                self.chain_len,
                self.cells,
                self.steps,
                lowering.name()
            ),
            tasks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::parallelism_profile;

    #[test]
    fn renaming_at_least_doubles_available_parallelism() {
        let spec = VersionStressSpec::renaming_heavy();
        let renamed = parallelism_profile(&spec.trace(Lowering::Renamed));
        let raw = parallelism_profile(&spec.trace(Lowering::Raw));
        assert_eq!(renamed.tasks as u64, spec.task_count());
        assert_eq!(raw.tasks as u64, spec.task_count());
        assert!(
            renamed.avg_parallelism() >= 2.0 * raw.avg_parallelism(),
            "avg: renamed {:.1} vs raw {:.1}",
            renamed.avg_parallelism(),
            raw.avg_parallelism()
        );
        assert!(
            renamed.max_parallelism() >= 2 * raw.max_parallelism(),
            "max: renamed {} vs raw {}",
            renamed.max_parallelism(),
            raw.max_parallelism()
        );
        // And renaming shortens the critical path to the stencil depth.
        assert_eq!(renamed.critical_path() as u32, spec.steps.max(1));
        assert!(raw.critical_path() as u32 >= spec.chain_len);
    }

    #[test]
    fn chain_structure_is_serial_raw_and_flat_renamed() {
        let spec = VersionStressSpec::single_chain(16);
        let renamed = parallelism_profile(&spec.trace(Lowering::Renamed));
        assert_eq!(renamed.critical_path(), 1);
        assert_eq!(renamed.max_parallelism(), 16);
        let raw = parallelism_profile(&spec.trace(Lowering::Raw));
        assert_eq!(raw.critical_path(), 16, "WAW serializes the raw chain");
        assert_eq!(raw.max_parallelism(), 1);
    }

    #[test]
    fn stencil_wavefront_has_cells_width_per_step() {
        let spec = VersionStressSpec {
            chains: 0,
            chain_len: 0,
            cells: 9,
            steps: 5,
            exec_ns: 0,
        };
        let renamed = parallelism_profile(&spec.trace(Lowering::Renamed));
        assert_eq!(renamed.critical_path(), 5);
        assert!(renamed.widths.iter().all(|&w| w == 9));
        let raw = parallelism_profile(&spec.trace(Lowering::Raw));
        assert!(raw.critical_path() > 5, "raw adds false inter-step hazards");
    }

    #[test]
    fn traces_are_reproducible_and_named() {
        let spec = VersionStressSpec::renaming_heavy();
        let a = spec.trace(Lowering::Renamed);
        let b = spec.trace(Lowering::Renamed);
        assert_eq!(a.tasks, b.tasks);
        assert!(a.name.contains("renamed"));
        assert!(spec.trace(Lowering::Raw).name.contains("raw"));
    }
}
