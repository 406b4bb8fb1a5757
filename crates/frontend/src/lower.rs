//! Lowering: from logical (resource, version) space to the physical
//! `Param` address stream the Nexus++ engines consume.
//!
//! Two lowerings of the same [`Program`] bracket what renaming buys:
//!
//! * [`Lowering::Renamed`] gives **every logical version its own
//!   physical address**. The only hazards the Dependence Table can see
//!   are the true read-after-write edges the program declared — WAR and
//!   WAW false dependencies vanish, exactly like register renaming in
//!   an out-of-order core.
//! * [`Lowering::Raw`] maps **all versions of a resource to one
//!   address**, the way a hand-addressed encoding that reuses buffers
//!   would. Every version chain serializes through output-dependence
//!   (`ww`) and anti-dependence tracking.
//!
//! Both lowerings emit tasks in the same **stable topological order**
//! of the true-dependency graph (Kahn's algorithm, ties broken by
//! declaration index). Submission order matters: the engines resolve
//! dependencies by submission-order address matching, so producers must
//! be submitted before consumers — and under the raw lowering, the
//! serialization each version chain adds is then a *superset* of the
//! true edges, which keeps the two encodings semantically equivalent
//! (same tasks, every true edge respected) while differing hugely in
//! available parallelism.

use crate::program::{FrontendError, Program, ResourceId, Version};
use nexuspp_core::{Submission, TaskBuilder};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// First physical address the frontend assigns. High above anything the
/// examples/workloads hand-address (and the `Region` id counter, which
/// starts at 0x1000), so lowered streams never collide with them.
pub(crate) const ADDRESS_BASE: u64 = 1 << 40;

/// Address block reserved per resource (bounds versions per resource).
pub(crate) const RESOURCE_STRIDE: u64 = 1 << 20;

/// Address stride between versions inside a resource block (a cache
/// line, matching the paper's per-parameter granularity).
pub(crate) const VERSION_STRIDE: u64 = 64;

/// How logical versions map onto physical addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lowering {
    /// Each (resource, version) pair gets a distinct address: only true
    /// RAW dependencies reach the Dependence Table.
    Renamed,
    /// All versions of a resource share one address: WAR/WAW hazards
    /// serialize each resource's version chain.
    Raw,
}

impl Lowering {
    /// Stable label (used by benchmarks and reports).
    pub fn name(self) -> &'static str {
        match self {
            Lowering::Renamed => "renamed",
            Lowering::Raw => "raw",
        }
    }

    /// The physical address of a (resource, version) pair — the stable
    /// identity contract between the frontend and every consumer that
    /// re-submits *parts* of a program (the incremental re-execution
    /// layer in `nexuspp-incr` builds partial streams against exactly
    /// this mapping, so cached producers and re-run consumers agree on
    /// addresses across edits).
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds the per-resource version budget
    /// (2^14 versions: a 1 MiB address block per resource, one 64-byte
    /// line per version).
    pub fn address(self, r: ResourceId, v: Version) -> u64 {
        assert!(
            (v as u64) < RESOURCE_STRIDE / VERSION_STRIDE,
            "resource {} exceeded {} versions",
            r.0,
            RESOURCE_STRIDE / VERSION_STRIDE
        );
        let block = ADDRESS_BASE + u64::from(r.0) * RESOURCE_STRIDE;
        match self {
            Lowering::Renamed => block + u64::from(v) * VERSION_STRIDE,
            Lowering::Raw => block,
        }
    }
}

/// A [`Program`] lowered to submission-ready address streams.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    /// Which address mapping produced this stream.
    pub lowering: Lowering,
    /// The tasks, in stable topological order of the true-dependency
    /// graph, ready for any `submit`-shaped consumer.
    pub tasks: Vec<Submission>,
    /// The true RAW edges as (producer tag, consumer tag) pairs —
    /// the graph both lowerings must respect — by producer, then
    /// consumer, each in declaration order.
    pub edges: Vec<(u64, u64)>,
}

impl LoweredProgram {
    /// Does an executed tag order respect every true RAW edge (each
    /// producer appearing before each of its consumers)? Tags absent
    /// from `order` fail the check.
    pub fn order_respects_edges(&self, order: &[u64]) -> bool {
        let pos: HashMap<u64, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        self.edges
            .iter()
            .all(|(p, c)| matches!((pos.get(p), pos.get(c)), (Some(a), Some(b)) if a < b))
    }
}

impl Program {
    /// Lower the program: infer the true-dependency edges from version
    /// production/consumption, order tasks topologically (stable in
    /// declaration order), assign physical addresses per `lowering`,
    /// and emit one [`Submission`] per task.
    ///
    /// Fails with [`FrontendError::UnknownProducer`] if a pinned read
    /// names a version no task mints, or [`FrontendError::Cycle`] if
    /// version pins loop.
    pub fn lower(&self, lowering: Lowering) -> Result<LoweredProgram, FrontendError> {
        let decls = self.tasks();
        let n = decls.len();
        // Who mints each (resource, version)? Writes mint versions 1, 2,
        // ... of a resource in declaration order, so version `v`'s
        // producer is entry `v - 1` of the resource's list.
        let mut producer: Vec<Vec<usize>> = vec![Vec::new(); self.resource_count()];
        for (i, t) in decls.iter().enumerate() {
            for &(r, v) in &t.writes {
                let minted = &mut producer[r.0 as usize];
                minted.push(i);
                debug_assert_eq!(minted.len(), v as usize, "versions are minted densely");
            }
        }
        // True RAW edges: minter of the read version → reader. Version 0
        // is initial contents (no producer); a task's read of a version
        // it mints itself is not an edge. Readers are visited in
        // declaration order, so a reader's duplicate edges to one
        // producer are adjacent in that producer's list.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg: Vec<usize> = vec![0; n];
        for (i, t) in decls.iter().enumerate() {
            for &(r, v) in &t.reads {
                if v == 0 {
                    continue;
                }
                let &p = producer[r.0 as usize].get(v as usize - 1).ok_or_else(|| {
                    FrontendError::UnknownProducer {
                        resource: self.resource_name(r).to_string(),
                        version: v,
                        reader: t.tag,
                    }
                })?;
                if p != i && adj[p].last() != Some(&i) {
                    adj[p].push(i);
                    indeg[i] += 1;
                }
            }
        }
        // Kahn's algorithm, always popping the smallest declaration
        // index: the emitted order is deterministic and follows program
        // order wherever dependencies permit.
        let mut ready: BinaryHeap<Reverse<usize>> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| Reverse(i))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for &j in &adj[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(Reverse(j));
                }
            }
        }
        if order.len() < n {
            let on_cycle: Vec<u64> = indeg
                .iter()
                .enumerate()
                .filter(|(_, &d)| d > 0)
                .map(|(i, _)| decls[i].tag)
                .collect();
            return Err(FrontendError::Cycle { tags: on_cycle });
        }
        // Emit. Under Raw, a read and a write of the same resource
        // collapse to one address; TaskBuilder's normalization merges
        // them into a single inout parameter.
        let tasks = order
            .iter()
            .map(|&i| {
                let t = &decls[i];
                let mut b = TaskBuilder::new(t.fptr).tag(t.tag).priority(t.priority);
                for &(r, v) in &t.reads {
                    b = b.reads(lowering.address(r, v), self.resource_size(r));
                }
                for &(r, v) in &t.writes {
                    b = b.writes(lowering.address(r, v), self.resource_size(r));
                }
                b.build()
            })
            .collect();
        let edges = adj
            .iter()
            .enumerate()
            .flat_map(|(p, consumers)| consumers.iter().map(move |&c| (p, c)))
            .map(|(p, c)| (decls[p].tag, decls[c].tag))
            .collect();
        Ok(LoweredProgram {
            lowering,
            tasks,
            edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_trace::AccessMode;

    #[test]
    fn renamed_assigns_distinct_addresses_per_version() {
        let mut p = Program::new();
        p.task(1).writes("a").submit().unwrap();
        p.task(1).writes("a").submit().unwrap();
        let lp = p.lower(Lowering::Renamed).unwrap();
        let a0 = lp.tasks[0].params[0].addr;
        let a1 = lp.tasks[1].params[0].addr;
        assert_ne!(a0, a1, "renaming separates WAW writers");
        assert_eq!(a1 - a0, VERSION_STRIDE);
        assert!(lp.edges.is_empty(), "no reads, so no true edges");
    }

    #[test]
    fn raw_collapses_versions_onto_one_address() {
        let mut p = Program::new();
        p.task(1).writes("a").submit().unwrap();
        p.task(1).writes("a").submit().unwrap();
        let lp = p.lower(Lowering::Raw).unwrap();
        assert_eq!(lp.tasks[0].params[0].addr, lp.tasks[1].params[0].addr);
    }

    #[test]
    fn raw_read_write_merges_to_inout() {
        let mut p = Program::new();
        p.task(1).writes("a").submit().unwrap();
        p.task(1).read_writes("a").submit().unwrap();
        let raw = p.lower(Lowering::Raw).unwrap();
        let t1 = &raw.tasks[1];
        assert_eq!(t1.params.len(), 1);
        assert_eq!(t1.params[0].mode, AccessMode::InOut);
        // Renamed keeps the read and the mint on distinct addresses.
        let ren = p.lower(Lowering::Renamed).unwrap();
        assert_eq!(ren.tasks[1].params.len(), 2);
        assert_eq!(ren.edges, vec![(0, 1)]);
    }

    #[test]
    fn future_pins_reorder_into_dependency_order() {
        let mut p = Program::new();
        p.resource("x");
        // Declared first, but reads the version the *second* decl mints.
        p.task(1).reads_version("x", 1).tag(10).submit().unwrap();
        p.task(1).writes("x").tag(20).submit().unwrap();
        let lp = p.lower(Lowering::Renamed).unwrap();
        let tags: Vec<u64> = lp.tasks.iter().map(|t| t.tag).collect();
        assert_eq!(tags, vec![20, 10], "producer emitted first");
        assert_eq!(lp.edges, vec![(20, 10)]);
    }

    #[test]
    fn unknown_producer_and_cycle_are_detected() {
        let mut p = Program::new();
        p.resource("x");
        p.task(1).reads_version("x", 7).tag(3).submit().unwrap();
        assert_eq!(
            p.lower(Lowering::Renamed).unwrap_err(),
            FrontendError::UnknownProducer {
                resource: "x".into(),
                version: 7,
                reader: 3
            }
        );

        let mut c = Program::new();
        c.resource("a");
        c.resource("b");
        // t0 reads b v1 and mints a v1; t1 reads a v1 and mints b v1.
        c.task(1)
            .reads_version("b", 1)
            .writes("a")
            .submit()
            .unwrap();
        c.task(1)
            .reads_version("a", 1)
            .writes("b")
            .submit()
            .unwrap();
        assert_eq!(
            c.lower(Lowering::Renamed).unwrap_err(),
            FrontendError::Cycle { tags: vec![0, 1] }
        );
    }

    #[test]
    fn self_read_of_own_mint_is_not_an_edge() {
        let mut p = Program::new();
        p.resource("x");
        // Reads the very version it mints: legal, no self-edge.
        p.task(1)
            .reads_version("x", 1)
            .writes("x")
            .submit()
            .unwrap();
        let lp = p.lower(Lowering::Renamed).unwrap();
        assert_eq!(lp.tasks.len(), 1);
        assert!(lp.edges.is_empty());
    }

    #[test]
    fn edges_come_out_by_producer_then_consumer_on_every_lowering() {
        // A 16-cell halo stencil advanced 10 steps: 160 tasks, each
        // reading the previous version of its cell and its neighbours.
        let mut p = Program::new();
        let cells: Vec<String> = (0..16).map(|i| format!("c{i}")).collect();
        for name in &cells {
            p.resource(name);
        }
        for step in 1..=10 {
            for i in 0..cells.len() {
                let mut t = p.task(1);
                for name in &cells[i.saturating_sub(1)..(i + 2).min(cells.len())] {
                    t = t.reads_version(name, step - 1);
                }
                t.writes(&cells[i]).submit().unwrap();
            }
        }
        let first = p.lower(Lowering::Renamed).unwrap().edges;
        assert_eq!(first.len(), 9 * (16 * 3 - 2));
        assert_eq!(p.lower(Lowering::Renamed).unwrap().edges, first);
        assert_eq!(p.lower(Lowering::Raw).unwrap().edges, first);
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(first, sorted, "tags are declaration indices here");
    }

    #[test]
    fn stable_topo_order_follows_declaration_order() {
        let mut p = Program::new();
        for i in 0..8 {
            p.task(1).writes(&format!("r{i}")).submit().unwrap();
        }
        let lp = p.lower(Lowering::Renamed).unwrap();
        let tags: Vec<u64> = lp.tasks.iter().map(|t| t.tag).collect();
        assert_eq!(tags, (0..8).collect::<Vec<u64>>());
    }
}
