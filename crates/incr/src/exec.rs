//! Re-running an [`IncrementalProgram`] on the Nexus++ backends.
//!
//! [`IncrementalProgram::rerun`] is the tentpole operation: walk the
//! dirty cone in the last structural commit's dependency order (the
//! frontend's order, recomputed at each structural commit), validate
//! each member against its memo (content fingerprints, so
//! renumbered-but-equal bindings cut off early), and resubmit **only
//! the invalidated tasks** as a *partial* lowered stream to the chosen
//! [`Backend`] — the batch engine or the threaded runtime. Cached
//! outputs of clean producers are spliced in as already-available
//! inputs, so a re-run's cost scales with the edit, not the program.
//!
//! The walk addresses tasks by position (see the
//! [program docs](crate::program)): the cone is the dirty marks closed
//! over the consumer lists, collected in one pass over the order; each
//! input is read through its producer's position, bound at the last
//! commit; a re-executed task's memo is rewritten in place; and the
//! re-executed tasks are numbered by *plan index*, their place in the
//! partial stream, which is what the splice and the order checks index.
//!
//! # Why partial streams are safe
//!
//! The engines resolve dependencies by submission-order address
//! matching. A partial stream emitted in the frontend's topological order
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

use crate::program::{IncrementalProgram, Source};
use crate::store;
use nexuspp_core::{Submission, TenantId};
use nexuspp_frontend::exec::run_on_engine;
use nexuspp_frontend::{LoweredProgram, Lowering};
use nexuspp_runtime::Runtime;
use nexuspp_trace::normalize::normalize_params;
use nexuspp_trace::Param;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// `plan_of`'s entry for a position this re-run does not re-execute.
const UNPLANNED: usize = usize::MAX;

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
    /// Tasks spliced from the memo (`reused + reran == total`, always).
    pub reused: usize,
    /// Tasks + edges ordered by the structural commits since the
    /// previous report: each commit orders the whole program through
    /// the frontend's graph step. 0 when only seeds changed.
    pub order_maintenance_ops: u64,
    /// Keys of the re-executed tasks, sorted.
    pub reran_keys: Vec<u64>,
    /// Backend execution order of the re-executed tasks (tags, in the
    /// order they actually ran).
    pub executed: Vec<u64>,
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
    /// Plan indices in the order their bodies ran. `ran` only hands out
    /// places; publication is the `OnceLock`'s and the barrier's.
    executed: Vec<OnceLock<usize>>,
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
        self.executed[n].set(i).expect("each task runs once");
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
    /// else. With an empty memo this degenerates to a full from-scratch
    /// run; with no pending edits it is a no-op that touches no backend
    /// at all.
    ///
    /// The walk proceeds in the last structural commit's topological
    /// order, so every task's inputs are resolved (memoized or just
    /// recomputed) before the task itself is validated. The memo is
    /// mutated here, on the caller's thread, under `&mut self` — the
    /// single-writer rule.
    pub fn rerun(&mut self, lowering: Lowering, backend: &Backend) -> IncrReport {
        let total = self.len();
        let mut marks = std::mem::take(&mut self.touched);
        self.replay.close(&mut marks);
        let cone: Vec<usize> = self
            .replay
            .graph()
            .order
            .iter()
            .copied()
            .filter(|&p| marks[p])
            .collect();
        marks.fill(false);
        self.touched = marks;

        // Phase 1 (caller thread, no locks): validate the cone in
        // dependency order, recompute what changed, rewrite its memo.
        let mut plans: Vec<usize> = Vec::new();
        let (mut inputs, mut read_pairs, mut write_hashes) = (Vec::new(), Vec::new(), Vec::new());
        for &p in &cone {
            let t = self.replay.task(p);
            let reads = self.replay.reads(p);
            inputs.clear();
            inputs.extend(reads.iter().map(|rd| self.content(rd.r, rd.from)));
            read_pairs.clear();
            read_pairs.extend(
                reads
                    .iter()
                    .zip(&inputs)
                    .map(|(rd, &c)| (self.name_hashes[rd.r.0 as usize], c)),
            );
            write_hashes.clear();
            write_hashes.extend(
                t.writes
                    .iter()
                    .map(|&(r, _)| self.name_hashes[r.0 as usize]),
            );
            let fp = store::fingerprint(t.fptr, t.priority, &read_pairs, &write_hashes);
            if self.fingerprints[p] == Some(fp) {
                continue; // early cutoff: the memo stands
            }
            self.fingerprints[p] = Some(fp);
            for (w, &h) in self.replay.writes(p).zip(&write_hashes) {
                self.outputs[w] = task_output(h, t.fptr, inputs.iter().copied());
            }
            plans.push(p);
        }

        // Phase 2: resubmit the invalidated tasks as a partial lowered
        // stream (already in topological order).
        let keys: Vec<u64> = plans.iter().map(|&p| self.replay.task(p).tag).collect();
        let mut reran_keys = keys.clone();
        reran_keys.sort_unstable();
        let executed = if plans.is_empty() {
            Vec::new()
        } else {
            let mut plan_of = vec![UNPLANNED; total];
            for (i, &p) in plans.iter().enumerate() {
                plan_of[p] = i;
            }
            let tasks = self.partial_stream(&plans, lowering);
            let ran = match *backend {
                Backend::Engine { shards } => {
                    let stream = LoweredProgram {
                        lowering,
                        tasks,
                        edges: Vec::new(),
                    };
                    let index = &self.replay.index;
                    run_on_engine(&stream, shards)
                        .iter()
                        .map(|k| index.get(k).map_or(UNPLANNED, |&p| plan_of[p]))
                        .collect()
                }
                Backend::Runtime { workers, shards } => {
                    if !matches!(&self.runtime, Some((dims, _)) if *dims == (workers, shards)) {
                        // Join the old workers before starting new ones.
                        self.runtime = None;
                        self.runtime = Some(((workers, shards), Runtime::new(workers, shards)));
                    }
                    self.run_spliced_on_runtime(&plans, &plan_of, tasks)
                }
            };
            self.check_order(&plans, &plan_of, &ran);
            ran.iter().map(|&i| keys[i]).collect()
        };

        IncrReport {
            total,
            dirtied: cone.len(),
            reran: plans.len(),
            reused: total - plans.len(),
            order_maintenance_ops: std::mem::take(&mut self.ordered),
            reran_keys,
            executed,
        }
    }

    /// The partial lowered stream for the invalidated tasks: one
    /// submission per plan, under the frontend's public address mapping.
    fn partial_stream(&self, plans: &[usize], lowering: Lowering) -> Vec<Submission> {
        let size = |r| self.replay.program.resource_size(r);
        let mut params = Vec::new();
        plans
            .iter()
            .map(|&p| {
                let t = self.replay.task(p);
                params.clear();
                params.extend(
                    self.replay
                        .reads(p)
                        .iter()
                        .map(|rd| Param::input(lowering.address(rd.r, rd.v), size(rd.r))),
                );
                params.extend(
                    t.writes
                        .iter()
                        .map(|&(r, v)| Param::output(lowering.address(r, v), size(r))),
                );
                Submission {
                    fptr: t.fptr,
                    tag: t.tag,
                    priority: t.priority,
                    tenant: TenantId::NONE,
                    params: normalize_params(&params),
                }
            })
            .collect()
    }

    /// The backend ran every plan exactly once (`ran` lists plan
    /// indices, [`UNPLANNED`] for a task outside the plan), in an order
    /// that respects every true edge among them.
    fn check_order(&self, plans: &[usize], plan_of: &[usize], ran: &[usize]) {
        let mut at = vec![UNPLANNED; plans.len()];
        for (step, &i) in ran.iter().enumerate() {
            assert!(
                at.get(i) == Some(&UNPLANNED),
                "backend ran exactly the invalidated tasks"
            );
            at[i] = step;
        }
        assert_eq!(
            ran.len(),
            plans.len(),
            "backend ran exactly the invalidated tasks"
        );
        let graph = self.replay.graph();
        let respected = plans.iter().enumerate().all(|(i, &p)| {
            graph
                .consumers(p)
                .iter()
                .all(|&c| plan_of[c] == UNPLANNED || at[i] < at[plan_of[c]])
        });
        assert!(
            respected,
            "partial resubmission respected every true edge among reran tasks"
        );
    }

    /// The live splice run (see the [module docs](self)) on the kept
    /// runtime: give every write a slot, resolve every read to a memo
    /// or a slot, spawn each submission with a body that fills its
    /// slots, then assert the concurrent result equals the memoized
    /// plan. Returns the plan indices in the order their bodies ran.
    fn run_spliced_on_runtime(
        &self,
        plans: &[usize],
        plan_of: &[usize],
        tasks: Vec<Submission>,
    ) -> Vec<usize> {
        let (_, rt) = self.runtime.as_ref().expect("runtime started");
        let replay = &self.replay;
        let writes: usize = plans.iter().map(|&p| replay.writes(p).len()).sum();
        let reads: usize = plans.iter().map(|&p| replay.reads(p).len()).sum();
        let mut inputs = Vec::with_capacity(reads);
        let mut slot_names = Vec::with_capacity(writes);
        let mut splice_tasks: Vec<SpliceTask> = Vec::with_capacity(plans.len());
        for &p in plans {
            let t = replay.task(p);
            // Splice: an input produced within this partial stream is its
            // producer's slot (a producer is planned before its
            // consumers); every other input is the memoized content.
            let first = inputs.len();
            inputs.extend(replay.reads(p).iter().map(|rd| match rd.from {
                Source::Write { task, write } if plan_of[task] != UNPLANNED => {
                    let producer = &splice_tasks[plan_of[task]];
                    Input::Slot(producer.slots.start + write - replay.writes(task).start)
                }
                from => Input::Memo(self.content(rd.r, from)),
            }));
            let slots = slot_names.len()..slot_names.len() + t.writes.len();
            slot_names.extend(
                t.writes
                    .iter()
                    .map(|&(r, _)| self.name_hashes[r.0 as usize]),
            );
            splice_tasks.push(SpliceTask {
                fptr: t.fptr,
                inputs: first..inputs.len(),
                slots,
            });
        }
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
        for (t, &p) in splice.tasks.iter().zip(plans) {
            let writes = replay.task(p).writes.iter().zip(replay.writes(p));
            for ((&(r, v), w), s) in writes.zip(t.slots.clone()) {
                assert_eq!(
                    splice.slots[s].get().copied(),
                    Some(self.outputs[w]),
                    "live spliced run diverged from the memoized plan at ({r:?}, v{v})"
                );
            }
        }
        splice
            .executed
            .iter()
            .filter_map(|i| i.get().copied())
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
    fn order_ops_count_the_tasks_and_edges_a_commit_ordered() {
        let mut ip = diamond();
        let engine = Backend::Engine { shards: 2 };
        ip.rerun(Lowering::Renamed, &engine);
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 1,
        })
        .unwrap();
        assert_eq!(
            ip.rerun(Lowering::Renamed, &engine).order_maintenance_ops,
            0
        );
        ip.edit(add(
            4,
            0x20,
            vec![Access::Read("out".into()), Access::Write("post".into())],
        ))
        .unwrap();
        let r = ip.rerun(Lowering::Renamed, &engine);
        assert_eq!((ip.len(), ip.edges().len()), (5, 5));
        assert_eq!(r.order_maintenance_ops, 10);
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

    #[test]
    fn memos_follow_their_tasks_when_positions_shift() {
        // 0 writes a; 1 writes b; 2 reads b, writes c; 3 reads a,
        // writes d; 4 reads c, writes e.
        let decls = || {
            vec![
                add(0, 0x10, vec![Access::Write("a".into())]),
                add(1, 0x11, vec![Access::Write("b".into())]),
                add(
                    2,
                    0x12,
                    vec![Access::Read("b".into()), Access::Write("c".into())],
                ),
                add(
                    3,
                    0x13,
                    vec![Access::Read("a".into()), Access::Write("d".into())],
                ),
                add(
                    4,
                    0x14,
                    vec![Access::Read("c".into()), Access::Write("e".into())],
                ),
            ]
        };
        let sorted = |ip: &IncrementalProgram| {
            let mut contents = ip.final_contents();
            contents.sort();
            contents
        };
        // The same declarations, from scratch: the contents to match.
        let scratch = |edits: Vec<Edit>| {
            let mut ip = IncrementalProgram::new();
            ip.edit_batch(edits).unwrap();
            ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
            sorted(&ip)
        };
        let engine = Backend::Engine { shards: 2 };
        let mut ip = IncrementalProgram::new();
        ip.edit_batch(decls()).unwrap();
        ip.rerun(Lowering::Renamed, &engine);

        // Removing the first-declared task shifts every later position;
        // only its reader 3 rebinds (to a's initial contents).
        ip.edit(Edit::RemoveTask { key: 0 }).unwrap();
        let r = ip.rerun(Lowering::Renamed, &engine);
        assert_eq!(r.reran_keys, vec![3]);
        assert_eq!((r.reran, r.reused), (1, 3));
        let mut rest = decls();
        rest.remove(0);
        assert_eq!(sorted(&ip), scratch(rest.clone()));

        // Removing and re-adding 2 in one batch moves it last: 4 now
        // reads c's initial contents, while 2 still reads 1's b and
        // keeps its memo at its new position.
        let readd = rest.remove(1);
        ip.edit_batch([Edit::RemoveTask { key: 2 }, readd.clone()])
            .unwrap();
        assert_eq!(ip.dirty_cone(), vec![2, 4]);
        let r = ip.rerun(Lowering::Renamed, &engine);
        assert_eq!(r.reran_keys, vec![4]);
        assert_eq!((r.reran, r.reused), (1, 3));
        rest.push(readd);
        assert_eq!(sorted(&ip), scratch(rest));
    }
}
