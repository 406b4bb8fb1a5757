//! Seeded input generation. The crates under test see only what is
//! generated here; the seed salts base addresses and the order in which
//! resources are registered (so shard hashing differs between seeds),
//! picks the edited cells, and jitters the task grain.

use nexuspp_core::Submission;
use nexuspp_desim::Rng;
use nexuspp_frontend::{LoweredProgram, Lowering, Program};
use nexuspp_trace::Trace;
use nexuspp_workloads::{GaussianSpec, VideoSpec};
use std::collections::HashMap;

/// A random cache-line-aligned offset added to a workload's base address.
fn address_salt(rng: &mut Rng) -> u64 {
    rng.gen_range(1 << 24) << 6
}

/// Shape of a declarative program: per tenant, `chains` write-only
/// version chains of `chain_len` writes each, plus a halo stencil of
/// `cells` cells advanced `steps` times (each step reads the previous
/// version of a cell and of its two neighbours). The same generator
/// feeds `stack_stream` (two tenants) and `lower_batch` (one, larger).
#[derive(Debug, Clone, Copy)]
pub struct ProgramShape {
    pub tenants: u32,
    pub chains: u32,
    pub chain_len: u32,
    pub cells: u32,
    pub steps: u32,
}

impl ProgramShape {
    pub fn tasks_per_tenant(&self) -> usize {
        (self.chains * self.chain_len + self.cells * self.steps) as usize
    }

    pub fn task_count(&self) -> usize {
        self.tenants as usize * self.tasks_per_tenant()
    }

    /// Which tenant declared the task with this tag (tags are
    /// declaration indices, tenants declared one after the other).
    pub fn tenant_of(&self, tag: u64) -> usize {
        tag as usize / self.tasks_per_tenant()
    }
}

/// Everything `declare` needs that is not frontend work: the resource
/// names, namespaced per tenant and salted with the seed, and the
/// seed-shuffled order they are registered in (a resource's id, and
/// with it every address the lowering assigns, follows that order).
pub struct ProgramPlan {
    pub shape: ProgramShape,
    chain_names: Vec<String>,
    cell_names: Vec<String>,
    registration: Vec<(bool, usize)>,
}

impl ProgramPlan {
    pub fn new(shape: ProgramShape, seed: u64) -> ProgramPlan {
        let mut rng = Rng::new(seed ^ 0x5EED_0001);
        let mut chain_names = Vec::new();
        let mut cell_names = Vec::new();
        for t in 0..shape.tenants {
            for c in 0..shape.chains {
                chain_names.push(format!("t{t}.s{seed:x}.chain{c}"));
            }
            for i in 0..shape.cells {
                cell_names.push(format!("t{t}.s{seed:x}.cell{i}"));
            }
        }
        let mut registration: Vec<(bool, usize)> = (0..chain_names.len())
            .map(|i| (true, i))
            .chain((0..cell_names.len()).map(|i| (false, i)))
            .collect();
        rng.shuffle(&mut registration);
        ProgramPlan {
            shape,
            chain_names,
            cell_names,
            registration,
        }
    }

    /// Declare the whole program through the frontend's builder API —
    /// the `frontend.declare` span. Tags are declaration indices.
    pub fn declare(&self) -> Program {
        let s = &self.shape;
        let mut p = Program::new();
        for &(is_chain, i) in &self.registration {
            p.resource(if is_chain {
                &self.chain_names[i]
            } else {
                &self.cell_names[i]
            });
        }
        for t in 0..s.tenants as usize {
            let chains = &self.chain_names[t * s.chains as usize..][..s.chains as usize];
            for name in chains {
                for _ in 0..s.chain_len {
                    p.task(0x7E10).writes(name).submit().expect("chain write");
                }
            }
            let cells = &self.cell_names[t * s.cells as usize..][..s.cells as usize];
            for step in 1..=s.steps {
                for i in 0..cells.len() {
                    let mut b = p.task(0x7E57);
                    if i > 0 {
                        b = b.reads_version(&cells[i - 1], step - 1);
                    }
                    b = b.reads_version(&cells[i], step - 1);
                    if i + 1 < cells.len() {
                        b = b.reads_version(&cells[i + 1], step - 1);
                    }
                    b.writes(&cells[i]).submit().expect("stencil step");
                }
            }
        }
        p
    }
}

/// Every ordering constraint address matching imposes on a
/// hand-addressed stream: read-after-write, write-after-write and
/// write-after-read, as (earlier tag, later tag) pairs.
fn edges_of(subs: &[Submission]) -> Vec<(u64, u64)> {
    struct AddrState {
        last_writer: Option<u64>,
        readers: Vec<u64>,
    }
    let mut state: HashMap<u64, AddrState> = HashMap::new();
    let mut edges = Vec::new();
    for s in subs {
        for p in &s.params {
            let st = state.entry(p.addr).or_insert(AddrState {
                last_writer: None,
                readers: Vec::new(),
            });
            edges.extend(st.last_writer.filter(|&w| w != s.tag).map(|w| (w, s.tag)));
            if p.mode.is_read_only() {
                st.readers.push(s.tag);
            } else {
                edges.extend(
                    st.readers
                        .drain(..)
                        .filter(|&r| r != s.tag)
                        .map(|r| (r, s.tag)),
                );
                st.last_writer = Some(s.tag);
            }
        }
    }
    edges
}

/// Wrap a hand-addressed trace as a [`LoweredProgram`] (tags rewritten
/// to stream positions), so the traced workloads share one output check
/// — [`LoweredProgram::order_respects_edges`] — with the lowered ones.
pub fn lowered_from_trace(trace: Trace) -> LoweredProgram {
    let tasks: Vec<Submission> = trace
        .tasks
        .into_iter()
        .enumerate()
        .map(|(i, t)| Submission::from((t.fptr, i as u64, t.params)))
        .collect();
    let edges = edges_of(&tasks);
    LoweredProgram {
        lowering: Lowering::Raw,
        tasks,
        edges,
    }
}

/// Gaussian elimination on an `n`×`n` matrix (the paper's Table II
/// shape) at a seed-salted base address.
pub fn gaussian(n: u32, seed: u64) -> LoweredProgram {
    let mut spec = GaussianSpec::new(n);
    spec.base_addr += address_salt(&mut Rng::new(seed ^ 0x5EED_0002));
    lowered_from_trace(spec.trace())
}

/// The multi-frame H.264 wavefront at a seed-salted base address, with
/// seeded macroblock times (the paper's 11.8 µs scale).
pub fn video_trace(spec: VideoSpec, seed: u64) -> Trace {
    let mut spec = spec;
    let mut rng = Rng::new(seed ^ 0x5EED_0003);
    spec.grid.base_addr += address_salt(&mut rng);
    spec.grid.seed = rng.next_u64();
    spec.generate()
}

/// A video trace as a threaded-runtime workload: the stream plus each
/// task's body length in nanoseconds.
pub fn video(spec: VideoSpec, seed: u64) -> (LoweredProgram, Vec<u32>) {
    let trace = video_trace(spec, seed);
    let grain = trace
        .tasks
        .iter()
        .map(|t| t.exec.as_ns_f64() as u32)
        .collect();
    (lowered_from_trace(trace), grain)
}

/// `count` distinct cells of a `cells`-wide stencil, seeded, all at
/// least `margin` from either edge: an edit's dirty cone widens by one
/// cell per step, so with `margin` = the step count no cone is clipped
/// by the boundary and every seed dirties about the same number of tasks.
pub fn pick_cells(rng: &mut Rng, cells: u32, margin: u32, count: u32) -> Vec<u32> {
    let mut interior: Vec<u32> = (margin..cells - margin).collect();
    rng.shuffle(&mut interior);
    interior.truncate(count as usize);
    interior
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_core::TaskBuilder;

    #[test]
    fn edges_cover_raw_waw_and_war() {
        let subs = vec![
            TaskBuilder::new(1).tag(0).writes(0xA0, 8).build(),
            TaskBuilder::new(1).tag(1).reads(0xA0, 8).build(),
            TaskBuilder::new(1).tag(2).reads(0xA0, 8).build(),
            TaskBuilder::new(1).tag(3).writes(0xA0, 8).build(),
        ];
        let mut e = edges_of(&subs);
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn seed_moves_addresses_but_not_the_graph() {
        let (a, b) = (gaussian(12, 1), gaussian(12, 2));
        assert_eq!(a.tasks.len(), b.tasks.len());
        assert_eq!(a.edges, b.edges);
        assert_ne!(a.tasks[0].params[0].addr, b.tasks[0].params[0].addr);
        assert_eq!(a.tasks, gaussian(12, 1).tasks, "same seed, same inputs");

        let shape = ProgramShape {
            tenants: 2,
            chains: 3,
            chain_len: 4,
            cells: 5,
            steps: 2,
        };
        assert_eq!(shape.task_count(), 44);
        assert_eq!((shape.tenant_of(21), shape.tenant_of(22)), (0, 1));
        let lower = |seed| {
            ProgramPlan::new(shape, seed)
                .declare()
                .lower(Lowering::Renamed)
                .unwrap()
        };
        let (a, b) = (lower(1), lower(2));
        assert_eq!(a.tasks.len(), 44);
        assert_eq!(a.edges.len(), b.edges.len());
        let addrs = |lp: &LoweredProgram| -> Vec<u64> {
            lp.tasks.iter().map(|t| t.params[0].addr).collect()
        };
        assert_ne!(addrs(&a), addrs(&b));
        assert_eq!(addrs(&a), addrs(&lower(1)));
    }
}
