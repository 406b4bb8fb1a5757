//! Re-running an [`IncrementalProgram`] on the Nexus++ backends.
//!
//! [`IncrementalProgram::rerun`] is the tentpole operation: walk the
//! dirty cone in the maintained dependency order, validate each member
//! against its memo (content fingerprints, so renumbered-but-equal
//! bindings cut off early), and resubmit **only the invalidated tasks**
//! as a *partial* lowered stream to the chosen [`Backend`] — the batch
//! engine or the threaded runtime. Cached
//! outputs of clean producers are spliced in as already-available
//! inputs, so a re-run's cost scales with the edit, not the program.
//!
//! # Why partial streams are safe
//!
//! The engines resolve dependencies by submission-order address
//! matching. A partial stream emitted in (maintained) topological order
//! preserves every true edge *between resubmitted tasks*: producers
//! precede consumers, and their (resource, version) addresses — the
//! frontend's public [`Lowering::address`] contract — match exactly.
//! Addresses of clean producers simply never appear, so their consumers
//! start dependency-free, which is correct because their inputs are
//! memoized contents, not pending writes. Under the raw lowering the
//! collapsed per-resource addresses add extra serialization, but only
//! *backwards* (earlier submissions), i.e. a superset of the true edges
//! — acyclic and semantically safe, exactly as in full-program lowering.
//!
//! # The live splice proof
//!
//! The [`Backend::Runtime`] path does not just schedule dummy bodies:
//! every resubmitted task's closure *computes its outputs* from a
//! shared content map seeded with the spliced memoized inputs, on the
//! runtime's worker threads, ordered only by the engines' dependency
//! tracking. After the barrier, the concurrently computed contents must
//! equal the memoized plan — a live end-to-end check that splicing
//! cached outputs under partial resubmission preserves the dataflow.
//! The validation walk itself holds **no shard locks**: it runs
//! entirely on the caller's thread before anything is submitted.

use crate::program::IncrementalProgram;
use crate::store::{self, TaskRecord};
use nexuspp_core::{Priority, Submission, TaskBuilder};
use nexuspp_frontend::exec::run_on_engine;
use nexuspp_frontend::{LoweredProgram, Lowering, ResourceId, Version};
use nexuspp_runtime::Runtime;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which execution backend a re-run resubmits invalidated tasks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The batch-style sharded engine, drained single-threadedly.
    Engine {
        /// Number of dependence-table shards.
        shards: usize,
    },
    /// The full threaded runtime; task bodies compute contents live
    /// (see the [module docs](self)).
    Runtime {
        /// Number of worker threads.
        workers: usize,
        /// Number of dependence-table shards.
        shards: usize,
    },
}

impl Backend {
    /// Stable label (used by benchmarks and reports).
    pub fn name(&self) -> String {
        match self {
            Backend::Engine { shards } => format!("engine/{shards}"),
            Backend::Runtime { workers, shards } => format!("runtime/{workers}w{shards}s"),
        }
    }
}

/// What one [`rerun`](IncrementalProgram::rerun) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrReport {
    /// Tasks currently declared.
    pub total: usize,
    /// Size of the structural dirty cone the walk validated (touched
    /// keys plus forward closure).
    pub dirtied: usize,
    /// Tasks whose fingerprint changed: re-executed on the backend.
    pub reran: usize,
    /// Tasks spliced from the memo store (`reused + reran == total`,
    /// always).
    pub reused: usize,
    /// Pearce–Kelly maintenance work (nodes visited + shifted) spent by
    /// the edits since the previous report — the online-ordering cost
    /// of this round of edits.
    pub order_maintenance_ops: u64,
    /// Keys of the re-executed tasks, sorted.
    pub reran_keys: Vec<u64>,
    /// Backend execution order of the re-executed tasks (tags, in the
    /// order they actually ran).
    pub executed: Vec<u64>,
}

/// One invalidated task, fully planned (inputs resolved, outputs
/// recomputed) before anything touches a backend.
struct Plan {
    key: u64,
    fptr: u64,
    priority: Priority,
    /// Resolved reads, self-reads of the task's own mints excluded
    /// (their content is the task's own output — circular, and never
    /// an edge in the frontend either).
    reads: Vec<(ResourceId, Version)>,
    writes: Vec<(ResourceId, Version)>,
}

impl IncrementalProgram {
    /// Validate the dirty cone and re-execute exactly the invalidated
    /// tasks on `backend`, splicing memoized outputs for everything
    /// else. With an empty memo store this degenerates to a full
    /// from-scratch run; with no pending edits it is a no-op that
    /// touches no backend at all.
    ///
    /// The walk proceeds in the maintained topological order, so every
    /// task's inputs are resolved (memoized or just recomputed) before
    /// the task itself is validated. Store mutation happens here, on
    /// the caller's thread, under `&mut self` — the single-writer rule.
    pub fn rerun(&mut self, lowering: Lowering, backend: &Backend) -> IncrReport {
        let total = self.len();
        let mut cone = self.dirty_cone();
        let dirtied = cone.len();
        cone.sort_by_key(|&k| self.topo().ord(k).expect("cone keys are declared tasks"));

        // Phase 1 (caller thread, no locks): validate the cone in
        // dependency order, recompute what changed, refresh memos.
        let mut plans: Vec<Plan> = Vec::new();
        for &key in &cone {
            let d = self.resolved[&key].clone();
            let reads: Vec<(ResourceId, Version)> = d
                .reads
                .iter()
                .copied()
                .filter(|rv| self.producers.get(rv) != Some(&key))
                .collect();
            let inputs: Vec<u64> = reads.iter().map(|&(r, v)| self.content_of(r, v)).collect();
            let read_pairs: Vec<(u64, u64)> = reads
                .iter()
                .zip(&inputs)
                .map(|(&(r, _), &c)| (self.name_hashes[r.0 as usize], c))
                .collect();
            let write_hashes: Vec<u64> = d
                .writes
                .iter()
                .map(|&(r, _)| self.name_hashes[r.0 as usize])
                .collect();
            let fp = store::fingerprint(d.fptr, d.priority, &read_pairs, &write_hashes);
            if self.store.record(key).map(|rec| rec.fingerprint) == Some(fp) {
                continue; // early cutoff: the memo stands
            }
            let outputs: Vec<(ResourceId, u64)> = d
                .writes
                .iter()
                .map(|&(r, _)| {
                    let name = self.resource_name(r);
                    (r, store::task_output(d.fptr, name, &inputs))
                })
                .collect();
            self.store.put(
                key,
                TaskRecord {
                    fingerprint: fp,
                    outputs,
                },
            );
            plans.push(Plan {
                key,
                fptr: d.fptr,
                priority: d.priority,
                reads,
                writes: d.writes.clone(),
            });
        }

        // Phase 2: resubmit the invalidated tasks as a partial lowered
        // stream (already in maintained topological order).
        let reran_keys: Vec<u64> = plans.iter().map(|p| p.key).collect();
        let reran_set: BTreeSet<u64> = reran_keys.iter().copied().collect();
        let executed = if plans.is_empty() {
            Vec::new()
        } else {
            let partial = self.partial_stream(&plans, lowering, &reran_set);
            let executed = match *backend {
                Backend::Engine { shards } => run_on_engine(&partial, shards),
                Backend::Runtime { workers, shards } => {
                    self.run_spliced_on_runtime(&plans, &partial, workers, shards)
                }
            };
            let got: BTreeSet<u64> = executed.iter().copied().collect();
            assert_eq!(got, reran_set, "backend ran exactly the invalidated tasks");
            assert!(
                partial.order_respects_edges(&executed),
                "partial resubmission respected every true edge among reran tasks"
            );
            executed
        };

        let ops_total = self.topo().ops();
        let report = IncrReport {
            total,
            dirtied,
            reran: plans.len(),
            reused: total - plans.len(),
            order_maintenance_ops: ops_total - self.ops_reported,
            reran_keys: {
                let mut v = reran_keys;
                v.sort_unstable();
                v
            },
            executed,
        };
        self.ops_reported = ops_total;
        self.touched.clear();
        if let Some(g) = &self.metrics {
            let bump = |name: &str, v: u64| {
                if let Some(c) = g.counter(name) {
                    c.add(v);
                }
            };
            bump("runs", 1);
            bump("total", report.total as u64);
            bump("dirtied", report.dirtied as u64);
            bump("reran", report.reran as u64);
            bump("reused", report.reused as u64);
            bump("order_ops", report.order_maintenance_ops);
        }
        report
    }

    /// Build the partial lowered stream for the invalidated tasks: one
    /// submission per plan under the frontend's public address mapping,
    /// plus the true edges *among* reran tasks (for order checking).
    fn partial_stream(
        &self,
        plans: &[Plan],
        lowering: Lowering,
        reran: &BTreeSet<u64>,
    ) -> LoweredProgram {
        let tasks: Vec<Submission> = plans
            .iter()
            .map(|p| {
                let mut b = TaskBuilder::new(p.fptr).tag(p.key).priority(p.priority);
                for &(r, v) in &p.reads {
                    b = b.reads(lowering.address(r, v), self.program.resource_size(r));
                }
                for &(r, v) in &p.writes {
                    b = b.writes(lowering.address(r, v), self.program.resource_size(r));
                }
                b.build()
            })
            .collect();
        let edges: Vec<(u64, u64)> = self
            .edges
            .iter()
            .copied()
            .filter(|(f, t)| reran.contains(f) && reran.contains(t))
            .collect();
        LoweredProgram {
            lowering,
            tasks,
            edges,
        }
    }

    /// The live splice run (see the [module docs](self)): spawn every
    /// invalidated task on the threaded runtime with a body that
    /// computes its outputs from a shared content map seeded with the
    /// memoized inputs of clean producers, then assert the concurrent
    /// result equals the memoized plan.
    fn run_spliced_on_runtime(
        &self,
        plans: &[Plan],
        partial: &LoweredProgram,
        workers: usize,
        shards: usize,
    ) -> Vec<u64> {
        // Seed the map with every input *not* produced within this
        // partial stream — the splice of memoized contents.
        let produced: HashSet<(ResourceId, Version)> = plans
            .iter()
            .flat_map(|p| p.writes.iter().copied())
            .collect();
        let mut seed: HashMap<(ResourceId, Version), u64> = HashMap::new();
        for p in plans {
            for &(r, v) in &p.reads {
                if !produced.contains(&(r, v)) {
                    seed.insert((r, v), self.content_of(r, v));
                }
            }
        }
        let map = Arc::new(Mutex::new(seed));
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(plans.len())));
        let rt = Runtime::new(workers, shards);
        for (p, sub) in plans.iter().zip(partial.tasks.iter().cloned()) {
            let (map, log) = (Arc::clone(&map), Arc::clone(&log));
            let (key, fptr) = (p.key, p.fptr);
            let reads = p.reads.clone();
            let writes = p.writes.clone();
            let names: Vec<String> = p
                .writes
                .iter()
                .map(|&(r, _)| self.resource_name(r).to_string())
                .collect();
            rt.spawn_lowered(sub, move || {
                let mut m = lock(&map);
                let inputs: Vec<u64> = reads
                    .iter()
                    .map(|rv| {
                        *m.get(rv)
                            .expect("input available: spliced or produced by a predecessor")
                    })
                    .collect();
                for (&(r, v), name) in writes.iter().zip(&names) {
                    m.insert((r, v), store::task_output(fptr, name, &inputs));
                }
                lock(&log).push(key);
            });
        }
        rt.barrier();
        let m = lock(&map);
        for p in plans {
            let rec = self.store.record(p.key).expect("just memoized");
            for &(r, v) in &p.writes {
                assert_eq!(
                    m.get(&(r, v)).copied(),
                    rec.output(r),
                    "live spliced run diverged from the memoized plan at ({r:?}, v{v})"
                );
            }
        }
        drop(m);
        let order = lock(&log).clone();
        order
    }
}

/// Take `m`, recovering it if poisoned: a task body that panics under
/// it is re-raised by the barrier before anything reads it again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Access, Edit};

    fn add(key: u64, fptr: u64, accesses: Vec<Access>) -> Edit {
        Edit::AddTask {
            key,
            fptr,
            priority: Priority::Normal,
            accesses,
        }
    }

    fn diamond() -> IncrementalProgram {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(
            0,
            0x10,
            vec![Access::Read("in".into()), Access::Write("a".into())],
        ))
        .unwrap();
        ip.edit(add(
            1,
            0x11,
            vec![Access::Read("a".into()), Access::Write("b".into())],
        ))
        .unwrap();
        ip.edit(add(
            2,
            0x12,
            vec![Access::Read("a".into()), Access::Write("c".into())],
        ))
        .unwrap();
        ip.edit(add(
            3,
            0x13,
            vec![
                Access::Read("b".into()),
                Access::Read("c".into()),
                Access::Write("out".into()),
            ],
        ))
        .unwrap();
        ip
    }

    #[test]
    fn first_rerun_is_from_scratch_then_noop() {
        for backend in [
            Backend::Engine { shards: 2 },
            Backend::Runtime {
                workers: 2,
                shards: 2,
            },
        ] {
            let mut ip = diamond();
            let r1 = ip.rerun(Lowering::Renamed, &backend);
            assert_eq!(
                (r1.total, r1.reran, r1.reused),
                (4, 4, 0),
                "{}",
                backend.name()
            );
            assert_eq!(r1.reran + r1.reused, r1.total);
            let r2 = ip.rerun(Lowering::Renamed, &backend);
            assert_eq!((r2.reran, r2.reused, r2.dirtied), (0, 4, 0));
            assert!(r2.executed.is_empty());
        }
    }

    #[test]
    fn one_edit_reruns_only_the_cone() {
        let mut ip = diamond();
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        let before = ip.final_contents();
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 42,
        })
        .unwrap();
        let r = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(
            r.reran_keys,
            vec![0, 1, 2, 3],
            "whole diamond depends on in"
        );
        let after = ip.final_contents();
        assert_ne!(before, after);

        // An edit to a leaf output's producer function: only the sink
        // re-runs beyond it.
        ip.edit(Edit::Retarget {
            key: 1,
            accesses: vec![Access::Read("a".into()), Access::Write("b".into())],
        })
        .unwrap();
        let r = ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        // Retarget with identical accesses: in the cone, but contents
        // unchanged — early cutoff everywhere.
        assert_eq!(r.reran, 0);
        assert!(r.dirtied >= 1);
        assert_eq!(ip.final_contents(), after);
    }

    #[test]
    fn raw_lowering_partial_streams_agree_with_renamed() {
        for backend in [
            Backend::Engine { shards: 2 },
            Backend::Runtime {
                workers: 3,
                shards: 2,
            },
        ] {
            let mut a = diamond();
            let mut b = diamond();
            a.rerun(Lowering::Renamed, &backend);
            b.rerun(Lowering::Raw, &backend);
            for ip in [&mut a, &mut b] {
                ip.edit(Edit::SetInitial {
                    resource: "in".into(),
                    seed: 9,
                })
                .unwrap();
            }
            a.rerun(Lowering::Renamed, &backend);
            b.rerun(Lowering::Raw, &backend);
            assert_eq!(a.final_contents(), b.final_contents(), "{}", backend.name());
        }
    }

    #[test]
    fn invalidate_all_matches_incremental_contents() {
        let mut inc = diamond();
        inc.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        inc.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 5,
        })
        .unwrap();
        inc.edit(add(
            4,
            0x20,
            vec![Access::Read("out".into()), Access::Write("post".into())],
        ))
        .unwrap();
        let r = inc.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert!(r.reran > 0);

        let mut scratch = diamond();
        scratch
            .edit(Edit::SetInitial {
                resource: "in".into(),
                seed: 5,
            })
            .unwrap();
        scratch
            .edit(add(
                4,
                0x20,
                vec![Access::Read("out".into()), Access::Write("post".into())],
            ))
            .unwrap();
        let rs = scratch.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(rs.reran, 5, "empty store reruns everything");
        assert_eq!(inc.final_contents(), scratch.final_contents());

        // invalidate_all on the incremental copy: same contents again.
        inc.invalidate_all();
        let rf = inc.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(rf.reran, 5);
        assert_eq!(inc.final_contents(), scratch.final_contents());
    }

    #[test]
    fn metrics_funnel_adds_up() {
        use nexuspp_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut ip = diamond();
        ip.register_metrics(&reg, "incr");
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 3,
        })
        .unwrap();
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        let snap = reg.snapshot();
        assert_eq!(snap.get("incr", "runs"), Some(2));
        assert_eq!(
            snap.get("incr", "reran").unwrap() + snap.get("incr", "reused").unwrap(),
            snap.get("incr", "total").unwrap(),
            "reran + reused == total, cumulatively"
        );
    }
}
