//! Edit-heavy stencil workload for the incremental re-execution layer.
//!
//! [`IncrStencilSpec`] builds the same halo-exchange stencil as
//! [`crate::version_stress`] — `cells` resources advanced for `steps`
//! timesteps, each task reading the previous step's `i-1 / i / i+1`
//! versions and minting the next version of cell `i` — but as an
//! editable [`IncrementalProgram`] instead of a one-shot frontend
//! program. It is the workload behind the `e2e` benchmark's
//! `incr_edits` and the release speedup gate: run it from scratch once,
//! then apply small edit batches ([`touch_edits`]) and measure how much
//! of the graph the incremental layer actually re-executes.
//!
//! The stencil is the interesting shape for this measurement because
//! its dirty cone is *geometric*: touching one cell's initial contents
//! dirties a light-cone that widens by one cell per step, so a single
//! edit on a wide, shallow stencil (the [`thousand`] default:
//! 100 cells × 10 steps) invalidates roughly `steps²` of the
//! `cells × steps` tasks — an order of magnitude less than from
//! scratch — while ten spread-out edits approach full invalidation.
//! Both regimes matter and the bench reports both.
//!
//! [`touch_edits`]: IncrStencilSpec::touch_edits
//! [`thousand`]: IncrStencilSpec::thousand

use nexuspp_core::Priority;
use nexuspp_incr::{Access, Edit, IncrementalProgram};

/// Spec for an editable halo-exchange stencil: `cells` resources
/// advanced `steps` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrStencilSpec {
    /// Number of stencil cells (resources).
    pub cells: u32,
    /// Number of timesteps; each step mints one new version per cell.
    pub steps: u32,
}

impl IncrStencilSpec {
    /// The benchmark default: a wide, shallow 100 × 10 stencil —
    /// 1000 tasks whose single-edit dirty cone is a small fraction of
    /// the program.
    pub fn thousand() -> IncrStencilSpec {
        IncrStencilSpec {
            cells: 100,
            steps: 10,
        }
    }

    /// Total task count: one task per `(cell, step)`.
    pub fn task_count(&self) -> u64 {
        self.cells as u64 * self.steps as u64
    }

    /// Resource name of cell `i`.
    pub fn cell(&self, i: u32) -> String {
        format!("cell{i}")
    }

    /// Stable task key for the task advancing cell `i` at timestep `t`
    /// (`t` is 1-based, matching the version it mints).
    pub fn key(&self, i: u32, t: u32) -> u64 {
        t as u64 * self.cells as u64 + i as u64
    }

    /// The edit list that declares the whole stencil, step-major: the
    /// task for `(i, t)` pins version `t - 1` of its halo neighbours
    /// and writes cell `i` (minting version `t`).
    pub(crate) fn decl_edits(&self) -> Vec<Edit> {
        let mut edits = Vec::with_capacity(self.task_count() as usize);
        for t in 1..=self.steps {
            for i in 0..self.cells {
                let mut accesses = Vec::with_capacity(4);
                if i > 0 {
                    accesses.push(Access::ReadVersion(self.cell(i - 1), t - 1));
                }
                accesses.push(Access::ReadVersion(self.cell(i), t - 1));
                if i + 1 < self.cells {
                    accesses.push(Access::ReadVersion(self.cell(i + 1), t - 1));
                }
                accesses.push(Access::Write(self.cell(i)));
                edits.push(Edit::AddTask {
                    key: self.key(i, t),
                    fptr: 0x5000 + (i as u64 % 7) * 0x10,
                    priority: Priority::Normal,
                    accesses,
                });
            }
        }
        edits
    }

    /// Build the stencil as one batch edit on a fresh program. The
    /// memo store is empty, so the first `rerun` is the from-scratch
    /// baseline.
    pub fn build(&self) -> IncrementalProgram {
        let mut ip = IncrementalProgram::new();
        ip.edit_batch(self.decl_edits())
            .expect("stencil declarations are acyclic");
        ip
    }

    /// A deterministic batch of `count` initial-contents edits on
    /// evenly spaced cells, with seeds varied by `round` so repeated
    /// rounds keep producing genuinely new contents (a repeated seed
    /// would hit the early-cutoff path and re-run nothing).
    pub fn touch_edits(&self, count: u32, round: u64) -> Vec<Edit> {
        let count = count.clamp(1, self.cells);
        (0..count)
            .map(|k| {
                let i = (k * self.cells) / count;
                Edit::SetInitial {
                    resource: self.cell(i),
                    seed: 1 + round * 131 + k as u64,
                }
            })
            .collect()
    }

    /// Upper bound on the single-edit dirty cone rooted at cell `i`,
    /// step 1: the light-cone widens by one cell per step, clipped at
    /// the boundary. Used by tests to pin the cone's geometry.
    pub fn cone_bound(&self, i: u32) -> u64 {
        (1..=self.steps)
            .map(|t| {
                let lo = i.saturating_sub(t);
                let hi = (i + t).min(self.cells - 1);
                (hi - lo + 1) as u64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_frontend::Lowering;
    use nexuspp_incr::Backend;

    #[test]
    fn builds_the_full_stencil() {
        let spec = IncrStencilSpec { cells: 8, steps: 4 };
        let ip = spec.build();
        assert_eq!(ip.len() as u64, spec.task_count());
        // Interior task (i, t) has 3 halo producers at step t-1.
        let producers: Vec<u64> = ip
            .edges()
            .into_iter()
            .filter(|&(_, to)| to == spec.key(3, 2))
            .map(|(f, _)| f)
            .collect();
        assert_eq!(
            producers,
            vec![spec.key(2, 1), spec.key(3, 1), spec.key(4, 1)]
        );
    }

    #[test]
    fn single_edit_cone_is_the_light_cone() {
        let spec = IncrStencilSpec {
            cells: 16,
            steps: 5,
        };
        let mut ip = spec.build();
        let first = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(first.reran as u64, spec.task_count());

        let i = 7;
        ip.edit_batch(spec.touch_edits(1, 0)).unwrap();
        // touch_edits(1, _) touches cell 0 of the even spacing — also
        // touch an explicit interior cell to check the two-sided cone.
        ip.edit(Edit::SetInitial {
            resource: spec.cell(i),
            seed: 424242,
        })
        .unwrap();
        let cone = ip.dirty_cone();
        // Every cone member sits inside the light-cone |i' - root| <= t
        // of one of the touched cells (0 and 7).
        for &k in &cone {
            let t = (k / spec.cells as u64) as u32;
            let c = (k % spec.cells as u64) as u32;
            let within = |root: u32| (c as i64 - root as i64).unsigned_abs() <= t as u64;
            assert!(
                within(0) || within(i),
                "key {k} (cell {c}, step {t}) outside both cones"
            );
        }
        assert!((cone.len() as u64) <= spec.cone_bound(0) + spec.cone_bound(i));

        let second = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!((second.reran + second.reused) as u64, spec.task_count());
        assert!(second.reran <= cone.len());
        assert!((second.reran as u64) < spec.task_count());
    }

    #[test]
    fn repeated_rounds_keep_dirtying() {
        let spec = IncrStencilSpec {
            cells: 10,
            steps: 3,
        };
        let mut ip = spec.build();
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        for round in 0..3 {
            ip.edit_batch(spec.touch_edits(2, round)).unwrap();
            let rep = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
            assert!(rep.reran > 0, "round {round} reran nothing");
            assert!(rep.reused > 0, "round {round} reused nothing");
        }
        // Re-applying the *same* seeds is a semantic no-op: the cone is
        // validated but early cutoff reuses everything.
        ip.edit_batch(spec.touch_edits(2, 2)).unwrap();
        let rep = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(rep.reran, 0);
        assert!(rep.dirtied > 0);
    }
}
