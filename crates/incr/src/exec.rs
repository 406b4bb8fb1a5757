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
//! every resubmitted task's closure *computes its outputs* on the
//! runtime's worker threads. Each write in the partial stream owns one
//! write-once slot; before anything is spawned, each read is resolved
//! either to a spliced memoized content or to the slot of its producer
//! in the stream. A body reads its producers' slots and fills its own,
//! ordered only by the engines' dependency tracking (the `OnceLock` and
//! the runtime's dependency edge carry the happens-before). After the
//! barrier, the concurrently computed contents must equal the memoized
//! plan — a live end-to-end check that splicing cached outputs under
//! partial resubmission preserves the dataflow. The validation walk
//! itself holds **no shard locks**: it runs entirely on the caller's
//! thread before anything is submitted.
//!
//! The program keeps the runtime it last ran on (rebuilt only when the
//! backend's `(workers, shards)` changes), so a re-run pays for its cone
//! and the runtime's per-task cost, not for starting and joining
//! workers.

use crate::program::IncrementalProgram;
use crate::store::{self, TaskRecord};
use nexuspp_core::{Submission, TaskBuilder};
use nexuspp_frontend::exec::run_on_engine;
use nexuspp_frontend::{LoweredProgram, Lowering, ResourceId, TaskDecl, Version};
use nexuspp_runtime::Runtime;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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

/// One invalidated task, planned (inputs resolved, outputs recomputed)
/// before anything touches a backend.
struct Plan<'a> {
    decl: &'a TaskDecl,
    /// The task's resolved reads, as a range of the run's read list.
    /// Self-reads of the task's own mints are excluded (their content
    /// is the task's own output — circular, and never an edge in the
    /// frontend either).
    reads: Range<usize>,
}

/// Where a re-run task's input comes from.
#[derive(Clone, Copy)]
enum Input {
    /// Spliced: the memoized content of a clean producer, or initial
    /// contents.
    Memo(u64),
    /// Produced in this stream: the index of its producer's slot.
    Slot(usize),
}

/// One spawned body's share of a [`Splice`].
struct SpliceTask {
    key: u64,
    fptr: u64,
    inputs: Range<usize>,
    slots: Range<usize>,
}

/// Everything the bodies of one live splice run share.
struct Splice {
    tasks: Vec<SpliceTask>,
    inputs: Vec<Input>,
    /// Name hash of the resource each slot holds.
    slot_names: Vec<u64>,
    /// One write-once content per write in the partial stream.
    slots: Vec<OnceLock<u64>>,
    /// Task keys in the order their bodies ran. `ran` only hands out
    /// indices; publication is the `OnceLock`'s and the barrier's.
    executed: Vec<OnceLock<u64>>,
    ran: AtomicUsize,
}

impl Splice {
    /// The body of task `i`: read its inputs, fill its slots, log it.
    fn run(&self, i: usize) {
        let t = &self.tasks[i];
        let inputs = &self.inputs[t.inputs.clone()];
        let value = |&input: &Input| match input {
            Input::Memo(c) => c,
            Input::Slot(j) => *self.slots[j]
                .get()
                .expect("input available: spliced or produced by a predecessor"),
        };
        for s in t.slots.clone() {
            let out = task_output(self.slot_names[s], t.fptr, inputs.iter().map(value));
            self.slots[s].set(out).expect("each slot is written once");
        }
        if t.slots.is_empty() {
            // A task that writes nothing still needs its inputs present.
            inputs.iter().for_each(|i| {
                value(i);
            });
        }
        let n = self.ran.fetch_add(1, Ordering::Relaxed);
        self.executed[n].set(t.key).expect("each task runs once");
    }
}

/// [`store::task_output`] from the written resource's interned name
/// hash: the same value, bit for bit, without hashing the name again.
fn task_output(name_hash: u64, fptr: u64, inputs: impl IntoIterator<Item = u64>) -> u64 {
    inputs
        .into_iter()
        .fold(store::hash_mix(name_hash, fptr), store::hash_mix)
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
        cone.sort_by_cached_key(|&k| self.topo.ord(k).expect("cone keys are declared tasks"));

        // Phase 1 (caller thread, no locks): validate the cone in
        // dependency order, recompute what changed, refresh memos.
        let mut plans: Vec<Plan<'_>> = Vec::new();
        let mut reads: Vec<(ResourceId, Version)> = Vec::new();
        let (mut inputs, mut read_pairs, mut write_hashes) = (Vec::new(), Vec::new(), Vec::new());
        for &key in &cone {
            let d = &self.resolved[&key];
            let start = reads.len();
            reads.extend(
                d.reads
                    .iter()
                    .copied()
                    .filter(|rv| self.producers.get(rv) != Some(&key)),
            );
            inputs.clear();
            inputs.extend(reads[start..].iter().map(|&(r, v)| self.content_of(r, v)));
            read_pairs.clear();
            read_pairs.extend(
                reads[start..]
                    .iter()
                    .zip(&inputs)
                    .map(|(&(r, _), &c)| (self.name_hashes[r.0 as usize], c)),
            );
            write_hashes.clear();
            write_hashes.extend(
                d.writes
                    .iter()
                    .map(|&(r, _)| self.name_hashes[r.0 as usize]),
            );
            let fp = store::fingerprint(d.fptr, d.priority, &read_pairs, &write_hashes);
            if self.store.record(key).map(|rec| rec.fingerprint) == Some(fp) {
                reads.truncate(start);
                continue; // early cutoff: the memo stands
            }
            let outputs: Vec<(ResourceId, u64)> = d
                .writes
                .iter()
                .zip(&write_hashes)
                .map(|(&(r, _), &h)| (r, task_output(h, d.fptr, inputs.iter().copied())))
                .collect();
            self.store.put(
                key,
                TaskRecord {
                    fingerprint: fp,
                    outputs,
                },
            );
            plans.push(Plan {
                decl: d,
                reads: start..reads.len(),
            });
        }

        // Phase 2: resubmit the invalidated tasks as a partial lowered
        // stream (already in maintained topological order).
        let mut reran_keys: Vec<u64> = plans.iter().map(|p| p.decl.tag).collect();
        reran_keys.sort_unstable();
        let executed = if plans.is_empty() {
            Vec::new()
        } else {
            let mut partial = self.partial_stream(&plans, &reads, lowering, &reran_keys);
            let executed = match *backend {
                Backend::Engine { shards } => run_on_engine(&partial, shards),
                Backend::Runtime { workers, shards } => {
                    if !matches!(&self.runtime, Some((dims, _)) if *dims == (workers, shards)) {
                        // Join the old workers before starting new ones.
                        self.runtime = None;
                        self.runtime = Some(((workers, shards), Runtime::new(workers, shards)));
                    }
                    let tasks = std::mem::take(&mut partial.tasks);
                    self.run_spliced_on_runtime(&plans, &reads, tasks)
                }
            };
            let mut got = executed.clone();
            got.sort_unstable();
            assert_eq!(got, reran_keys, "backend ran exactly the invalidated tasks");
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
            reran_keys,
            executed,
        };
        self.ops_reported = ops_total;
        self.touched.clear();
        report
    }

    /// Build the partial lowered stream for the invalidated tasks: one
    /// submission per plan under the frontend's public address mapping,
    /// plus the true edges *among* reran tasks (for order checking),
    /// found by one range query per reran producer.
    fn partial_stream(
        &self,
        plans: &[Plan<'_>],
        reads: &[(ResourceId, Version)],
        lowering: Lowering,
        reran: &[u64],
    ) -> LoweredProgram {
        let tasks: Vec<Submission> = plans
            .iter()
            .map(|p| {
                let d = p.decl;
                let mut b = TaskBuilder::new(d.fptr).tag(d.tag).priority(d.priority);
                for &(r, v) in &reads[p.reads.clone()] {
                    b = b.reads(lowering.address(r, v), self.program.resource_size(r));
                }
                for &(r, v) in &d.writes {
                    b = b.writes(lowering.address(r, v), self.program.resource_size(r));
                }
                b.build()
            })
            .collect();
        let edges: Vec<(u64, u64)> = reran
            .iter()
            .flat_map(|&f| self.edges.range((f, 0)..=(f, u64::MAX)))
            .copied()
            .filter(|(_, t)| reran.binary_search(t).is_ok())
            .collect();
        LoweredProgram {
            lowering,
            tasks,
            edges,
        }
    }

    /// The live splice run (see the [module docs](self)) on the kept
    /// runtime: give every write a slot, resolve every read to a memo
    /// or a slot, spawn each submission with a body that fills its
    /// slots, then assert the concurrent result equals the memoized
    /// plan. Returns the keys in the order their bodies ran.
    fn run_spliced_on_runtime(
        &self,
        plans: &[Plan<'_>],
        reads: &[(ResourceId, Version)],
        tasks: Vec<Submission>,
    ) -> Vec<u64> {
        let (_, rt) = self.runtime.as_ref().expect("runtime started");
        let writes: usize = plans.iter().map(|p| p.decl.writes.len()).sum();
        let mut slot_of: HashMap<(ResourceId, Version), usize> = HashMap::with_capacity(writes);
        let mut slot_names = Vec::with_capacity(writes);
        let mut splice_tasks = Vec::with_capacity(plans.len());
        for p in plans {
            let first = slot_names.len();
            for &(r, v) in &p.decl.writes {
                slot_of.insert((r, v), slot_names.len());
                slot_names.push(self.name_hashes[r.0 as usize]);
            }
            splice_tasks.push(SpliceTask {
                key: p.decl.tag,
                fptr: p.decl.fptr,
                inputs: p.reads.clone(),
                slots: first..slot_names.len(),
            });
        }
        // Splice: every input *not* produced within this partial stream
        // is the memoized content.
        let inputs = reads
            .iter()
            .map(|&(r, v)| match slot_of.get(&(r, v)) {
                Some(&s) => Input::Slot(s),
                None => Input::Memo(self.content_of(r, v)),
            })
            .collect();
        let splice = Arc::new(Splice {
            tasks: splice_tasks,
            inputs,
            slot_names,
            slots: (0..writes).map(|_| OnceLock::new()).collect(),
            executed: (0..plans.len()).map(|_| OnceLock::new()).collect(),
            ran: AtomicUsize::new(0),
        });
        for (i, sub) in tasks.into_iter().enumerate() {
            let splice = Arc::clone(&splice);
            rt.spawn_lowered(sub, move || splice.run(i));
        }
        rt.barrier();
        for (p, t) in plans.iter().zip(&splice.tasks) {
            let rec = self.store.record(t.key).expect("just memoized");
            for (&(r, v), s) in p.decl.writes.iter().zip(t.slots.clone()) {
                assert_eq!(
                    splice.slots[s].get().copied(),
                    rec.output(r),
                    "live spliced run diverged from the memoized plan at ({r:?}, v{v})"
                );
            }
        }
        splice
            .executed
            .iter()
            .filter_map(|k| k.get().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Access, Edit};
    use nexuspp_core::Priority;

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
    fn interned_task_output_matches_the_store_hash() {
        for (name, fptr, inputs) in [("a", 0x10, vec![]), ("cell7", 0x5030, vec![1, 2, 3])] {
            assert_eq!(
                task_output(
                    store::hash_bytes(name.as_bytes()),
                    fptr,
                    inputs.iter().copied()
                ),
                store::task_output(fptr, name, &inputs)
            );
        }
    }

    #[test]
    fn the_runtime_is_kept_until_its_shape_changes() {
        let small = Backend::Runtime {
            workers: 1,
            shards: 1,
        };
        let mut ip = diamond();
        ip.rerun(Lowering::Renamed, &small);
        for seed in [1, 2] {
            ip.edit(Edit::SetInitial {
                resource: "in".into(),
                seed,
            })
            .unwrap();
            ip.rerun(Lowering::Renamed, &small);
        }
        let submitted = |ip: &IncrementalProgram| ip.runtime.as_ref().map(|(_, rt)| rt.submitted());
        assert_eq!(submitted(&ip), Some(12), "three runs on one runtime");
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 3,
        })
        .unwrap();
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
        assert_eq!(submitted(&ip), Some(12), "an engine run leaves it alone");
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 4,
        })
        .unwrap();
        ip.rerun(
            Lowering::Renamed,
            &Backend::Runtime {
                workers: 1,
                shards: 2,
            },
        );
        assert_eq!(submitted(&ip), Some(4), "a new shape starts a new runtime");
    }
}
