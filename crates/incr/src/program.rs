//! The [`IncrementalProgram`]: an editable, memoized task program.
//!
//! An `IncrementalProgram` is the mutable counterpart of the frontend's
//! append-only [`Program`]: it holds the *current* set of task
//! declarations keyed by a caller-chosen stable task key, accepts
//! [`Edit`]s (change a resource's initial contents, add / remove /
//! retarget a task), and — through the re-run path in
//! [`crate::exec`] — resubmits **only the invalidated cone** to a
//! backend, splicing memoized outputs in for everything still clean.
//!
//! # How edits commit
//!
//! Every structural edit is staged: the new declaration list is
//! **replayed** through a fresh frontend [`Program`] (reusing its
//! binding-resolution logic verbatim — reads bind to
//! latest-at-declaration, writes mint versions), and
//! [`Program::graph`] returns the true-dependency edges (as consumer
//! lists), the topological order the next re-run walks in, and the
//! verdict. The dependency order is the frontend's order, recomputed at
//! each structural commit: a commit replays the whole declaration list
//! anyway, so a second, online order would save nothing. A
//! cycle-creating edit is rejected at declaration time with
//! [`IncrError::Cycle`]. Nothing is assigned until the graph step
//! succeeds, so a rejected edit leaves the declarations, the memo, the
//! edges and the order as they were; only the interner (below) may
//! have grown.
//!
//! # Positions, not keys
//!
//! Everything a re-run reads is indexed by a task's *position*, its
//! index in the replay's declaration list, as a Task Pool entry is
//! addressed by its index rather than searched for: the memo, the dirty
//! marks, the consumer lists, and each read's producer, bound once per
//! replay. Keys are looked up only by edits. Positions move only at a
//! structural commit, which carries each surviving task's memo and
//! mark to its new position by key.
//!
//! # Resource identity
//!
//! Resource names are interned once, in first-mention order, and the
//! interner only ever grows — so a [`ResourceId`] is stable across
//! every edit. Because each replay pre-registers the whole interner,
//! reading a resource that no current task writes is always legal: it
//! binds to version 0, the resource's initial contents (a deliberate
//! divergence from the bare frontend, where a never-mentioned name is
//! an error).

use crate::store;
use nexuspp_core::Priority;
use nexuspp_frontend::{FrontendError, Graph, Program, ResourceId, TaskDecl, Version};
use nexuspp_runtime::Runtime;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;

/// One declared access in an [`Edit`] — the name-based form the
/// frontend's builder accepts, kept symbolic so declarations can be
/// replayed after any edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Read the resource's latest version as of this declaration.
    Read(String),
    /// Read a pinned version (0 = initial contents; pins may name
    /// versions minted by later tasks, which is how edits can create —
    /// and a commit must reject — cycles).
    ReadVersion(String, Version),
    /// Write the resource, minting a fresh version.
    Write(String),
    /// Read the latest version, then mint a fresh one.
    ReadWrite(String),
}

impl Access {
    /// The resource name this access touches.
    pub fn name(&self) -> &str {
        match self {
            Access::Read(n)
            | Access::ReadVersion(n, _)
            | Access::Write(n)
            | Access::ReadWrite(n) => n,
        }
    }
}

/// One edit to an [`IncrementalProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Change a resource's initial contents (version 0). Dirties every
    /// current reader of version 0 of that resource.
    SetInitial {
        /// Resource name (interned on first mention).
        resource: String,
        /// New initial-contents seed.
        seed: u64,
    },
    /// Add a task under a fresh key, appended in declaration order.
    AddTask {
        /// Caller-chosen stable key (also the backend tag). Must be
        /// unused.
        key: u64,
        /// Simulated function pointer.
        fptr: u64,
        /// Scheduling priority.
        priority: Priority,
        /// The task's declared accesses.
        accesses: Vec<Access>,
    },
    /// Remove the task under `key`; its memo is evicted and downstream
    /// readers re-bind.
    RemoveTask {
        /// Key of the task to remove.
        key: u64,
    },
    /// Replace the access list of the task under `key` (retarget which
    /// resources it reads/writes), keeping its key, fptr, and priority.
    Retarget {
        /// Key of the task to retarget.
        key: u64,
        /// The replacement access list.
        accesses: Vec<Access>,
    },
}

/// Errors surfaced when an [`Edit`] is applied. A failed edit commits
/// **nothing**: declarations, memo, edges and order are exactly as
/// before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrError {
    /// `AddTask` reused a key that is already declared.
    DuplicateKey(u64),
    /// `RemoveTask` / `Retarget` named a key that is not declared.
    UnknownKey(u64),
    /// A pinned read names a version no current task mints.
    UnknownProducer {
        /// The resource read.
        resource: String,
        /// The version nobody writes.
        version: Version,
        /// Key of the reading task.
        reader: u64,
    },
    /// The edit would close a dependency cycle; rejected at declaration
    /// time by the frontend's graph step.
    Cycle {
        /// Keys Kahn's algorithm left unordered — those on a cycle and
        /// those downstream of one — in declaration order.
        tags: Vec<u64>,
    },
}

impl fmt::Display for IncrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrError::DuplicateKey(k) => write!(f, "task key {k} is already declared"),
            IncrError::UnknownKey(k) => write!(f, "no task is declared under key {k}"),
            IncrError::UnknownProducer {
                resource,
                version,
                reader,
            } => write!(
                f,
                "task {reader} reads {resource:?} version {version}, which no task produces"
            ),
            IncrError::Cycle { tags } => {
                write!(
                    f,
                    "edit would close a dependency cycle through tasks {tags:?}"
                )
            }
        }
    }
}

impl std::error::Error for IncrError {}

/// One symbolic task declaration (pre-resolution), keyed by `key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DeclSpec {
    pub(crate) key: u64,
    pub(crate) fptr: u64,
    pub(crate) priority: Priority,
    pub(crate) accesses: Vec<Access>,
}

/// Where a read's content comes from.
#[derive(Clone, Copy)]
pub(crate) enum Source {
    /// Version 0: the resource's initial contents.
    Initial,
    /// A task's mint: the producer's position and the flat index of the
    /// write (see [`Replay::writes`]).
    Write { task: usize, write: usize },
}

/// One read of a task, bound once per replay: the `(resource, version)`
/// it names and where that content comes from.
#[derive(Clone, Copy)]
pub(crate) struct Read {
    pub(crate) r: ResourceId,
    pub(crate) v: Version,
    pub(crate) from: Source,
}

/// Everything one replay derives from the declaration list, indexed by
/// task *position*: the declaration index, which addresses the
/// program's declarations and its graph directly.
pub(crate) struct Replay {
    /// The replayed frontend program; its tasks are the resolved
    /// declarations, and its graph (checked acyclic when the replay was
    /// made) holds the true edges and the order a re-run walks in.
    pub(crate) program: Program,
    /// Task key → position, for edits and for mapping the tags an
    /// engine run retires; a re-run's walk never reads it.
    pub(crate) index: HashMap<u64, usize>,
    /// Every task's reads with their producers resolved, reads of the
    /// task's own mints left out; task `p`'s are
    /// `reads[read_at[p]..read_at[p + 1]]`.
    reads: Vec<Read>,
    read_at: Vec<usize>,
    /// Task `p`'s writes are the flat write indices
    /// `write_at[p]..write_at[p + 1]`, in the order of its `writes`.
    write_at: Vec<usize>,
    /// Per resource, where its latest version comes from.
    latest: Vec<Source>,
}

impl Replay {
    /// Replay a declaration list through a fresh frontend [`Program`]
    /// (pre-registering the whole interner so ids stay stable and
    /// never-written reads legally bind to version 0), take edges,
    /// order and verdict from [`Program::graph`], and bind every read
    /// to the producer the program recorded for it.
    pub(crate) fn new(interner: &[String], decls: &[DeclSpec]) -> Result<Replay, IncrError> {
        let mut program = Program::new();
        for name in interner {
            program.resource(name);
        }
        for d in decls {
            let mut b = program.task(d.fptr).tag(d.key).priority(d.priority);
            for a in &d.accesses {
                b = match a {
                    Access::Read(n) => b.reads(n),
                    Access::ReadVersion(n, v) => b.reads_version(n, *v),
                    Access::Write(n) => b.writes(n),
                    Access::ReadWrite(n) => b.read_writes(n),
                };
            }
            b.submit().expect("every name pre-interned");
        }
        program.graph().map_err(|e| match e {
            FrontendError::UnknownProducer {
                resource,
                version,
                reader,
            } => IncrError::UnknownProducer {
                resource,
                version,
                reader,
            },
            FrontendError::Cycle { tags } => IncrError::Cycle { tags },
            FrontendError::UnknownResource { .. } => unreachable!("names resolve at submit"),
        })?;
        // Number the writes in declaration order; the last write of a
        // resource is where its latest version comes from.
        let mut write_at = Vec::with_capacity(decls.len() + 1);
        let mut latest = vec![Source::Initial; interner.len()];
        let mut write = 0;
        for (task, t) in program.tasks().enumerate() {
            write_at.push(write);
            for &(r, _) in t.writes {
                latest[r.0 as usize] = Source::Write { task, write };
                write += 1;
            }
        }
        write_at.push(write);
        let mut reads = Vec::new();
        let mut read_at = Vec::with_capacity(decls.len() + 1);
        for (p, t) in program.tasks().enumerate() {
            read_at.push(reads.len());
            for (&(r, v), &producer) in t.reads.iter().zip(t.producers) {
                let from = match producer {
                    None => Source::Initial,
                    // A read of the task's own mint is no input: its
                    // content is the task's own output (and no edge in
                    // the graph).
                    Some(q) if q as usize == p => continue,
                    Some(q) => {
                        let task = q as usize;
                        let nth = program.decl(task).writes.iter().position(|w| w.0 == r);
                        let nth = nth.expect("a producer writes what it mints");
                        Source::Write {
                            task,
                            write: write_at[task] + nth,
                        }
                    }
                };
                reads.push(Read { r, v, from });
            }
        }
        read_at.push(reads.len());
        let index = program
            .tasks()
            .enumerate()
            .map(|(p, t)| (t.tag, p))
            .collect();
        Ok(Replay {
            program,
            index,
            reads,
            read_at,
            write_at,
            latest,
        })
    }

    /// Number of tasks.
    pub(crate) fn len(&self) -> usize {
        self.write_at.len() - 1
    }

    /// The replayed program's graph.
    pub(crate) fn graph(&self) -> &Graph {
        self.program
            .graph()
            .expect("checked when the replay was made")
    }

    /// The resolved declaration at position `p`.
    pub(crate) fn task(&self, p: usize) -> TaskDecl<'_> {
        self.program.decl(p)
    }

    /// Task `p`'s bound reads.
    pub(crate) fn reads(&self, p: usize) -> &[Read] {
        &self.reads[self.read_at[p]..self.read_at[p + 1]]
    }

    /// Task `p`'s flat write indices.
    pub(crate) fn writes(&self, p: usize) -> Range<usize> {
        self.write_at[p]..self.write_at[p + 1]
    }

    /// Extend `marks` (one per position) to its forward closure over the
    /// consumer lists.
    pub(crate) fn close(&self, marks: &mut [bool]) {
        let graph = self.graph();
        let mut stack: Vec<usize> = (0..marks.len()).filter(|&p| marks[p]).collect();
        while let Some(p) = stack.pop() {
            for &c in graph.consumers(p) {
                if !marks[c] {
                    marks[c] = true;
                    stack.push(c);
                }
            }
        }
    }
}

/// An editable, memoized program of resource-declaring tasks. See the
/// [module docs](self) for the commit discipline and
/// [`crate::exec`] for re-running it on a backend.
///
/// ```
/// use nexuspp_incr::{Access, Edit, IncrementalProgram};
///
/// let mut ip = IncrementalProgram::new();
/// ip.edit(Edit::AddTask {
///     key: 0,
///     fptr: 0x10,
///     priority: Default::default(),
///     accesses: vec![
///         Access::Read("in".into()),
///         Access::Write("out".into()),
///     ],
/// })
/// .unwrap();
/// assert_eq!(ip.len(), 1);
/// // Editing "in"'s initial contents dirties the reader.
/// ip.edit(Edit::SetInitial { resource: "in".into(), seed: 7 }).unwrap();
/// assert_eq!(ip.dirty_cone(), vec![0]);
/// ```
pub struct IncrementalProgram {
    /// Interned resource names, first-mention order; grows only.
    pub(crate) interner: Vec<String>,
    pub(crate) by_name: HashMap<String, ResourceId>,
    /// Per-resource name hash (parallel to `interner`).
    pub(crate) name_hashes: Vec<u64>,
    /// Per-resource initial-contents seed (parallel to `interner`).
    pub(crate) seeds: Vec<u64>,
    /// Current declarations, in declaration order.
    pub(crate) decls: Vec<DeclSpec>,
    /// The current replay of `decls`. The vectors below are indexed by
    /// its positions.
    pub(crate) replay: Replay,
    /// The memo's fingerprints, one per position: the fingerprint the
    /// task last ran or validated under, `None` if it has no memo.
    pub(crate) fingerprints: Vec<Option<u64>>,
    /// The memo's output contents, one per flat write index
    /// ([`Replay::writes`]); meaningful where the writer has a
    /// fingerprint.
    pub(crate) outputs: Vec<u64>,
    /// Per position: dirtied by an edit since the last re-run?
    pub(crate) touched: Vec<bool>,
    /// Tasks + edges ordered by structural commits since the last
    /// report.
    pub(crate) ordered: u64,
    /// The runtime the last `Backend::Runtime` re-run used, with its
    /// `(workers, shards)`; its workers are joined when it is replaced
    /// or the program is dropped.
    pub(crate) runtime: Option<((usize, usize), Runtime)>,
}

impl Default for IncrementalProgram {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalProgram {
    /// An empty program with an empty memo (so the first re-run is the
    /// degenerate from-scratch case).
    pub fn new() -> IncrementalProgram {
        IncrementalProgram {
            interner: Vec::new(),
            by_name: HashMap::new(),
            name_hashes: Vec::new(),
            seeds: Vec::new(),
            decls: Vec::new(),
            replay: Replay::new(&[], &[]).expect("the empty program has no cycle"),
            fingerprints: Vec::new(),
            outputs: Vec::new(),
            touched: Vec::new(),
            ordered: 0,
            runtime: None,
        }
    }

    /// Number of declared tasks.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// No tasks declared?
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// The declared task keys, sorted.
    pub fn keys(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.decls.iter().map(|d| d.key).collect();
        v.sort_unstable();
        v
    }

    /// The current true-dependency edges, as sorted (producer key,
    /// consumer key) pairs.
    pub fn edges(&self) -> Vec<(u64, u64)> {
        let key = |p: usize| self.replay.task(p).tag;
        let graph = self.replay.graph();
        let mut v: Vec<(u64, u64)> = (0..self.len())
            .flat_map(|p| graph.consumers(p).iter().map(move |&c| (key(p), key(c))))
            .collect();
        v.sort_unstable();
        v
    }

    /// Keys currently dirtied by edits plus their forward closure over
    /// the true-dependency edges — exactly the set the next
    /// [`rerun`](Self::rerun) will validate, in sorted key order.
    pub fn dirty_cone(&self) -> Vec<u64> {
        let mut marks = self.touched.clone();
        self.replay.close(&mut marks);
        let mut cone: Vec<u64> = (0..marks.len())
            .filter(|&p| marks[p])
            .map(|p| self.replay.task(p).tag)
            .collect();
        cone.sort_unstable();
        cone
    }

    /// Drop every memo and dirty every task: the next re-run is a full
    /// from-scratch execution (the empty-memo degenerate case).
    pub fn invalidate_all(&mut self) {
        self.fingerprints.fill(None);
        self.touched.fill(true);
    }

    /// Intern `name`, returning its stable [`ResourceId`].
    pub(crate) fn intern(&mut self, name: &str) -> ResourceId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ResourceId(self.interner.len() as u32);
        self.interner.push(name.to_string());
        self.name_hashes.push(store::hash_bytes(name.as_bytes()));
        self.seeds.push(0);
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// The content a read of `r` from `from` sees as memoized: initial
    /// contents (the interned name hash mixed with the seed, which is
    /// [`store::initial_contents`] without hashing the name again) or
    /// the producer's memoized output. A re-run resolves contents only
    /// for producers that are clean or already re-validated: it walks
    /// in dependency order.
    pub(crate) fn content(&self, r: ResourceId, from: Source) -> u64 {
        match from {
            Source::Initial => {
                store::hash_mix(self.name_hashes[r.0 as usize], self.seeds[r.0 as usize])
            }
            Source::Write { write, .. } => self.outputs[write],
        }
    }

    /// The current content of resource `name` (its latest version), as
    /// of the last re-run. `None` if the name was never mentioned, or if
    /// no re-run has computed its latest version yet: its producer was
    /// declared (or lost its memo to
    /// [`invalidate_all`](Self::invalidate_all)) after the last re-run.
    pub fn contents(&self, name: &str) -> Option<u64> {
        let &r = self.by_name.get(name)?;
        // A name interned after the last replay has only version 0.
        let from = self
            .replay
            .latest
            .get(r.0 as usize)
            .copied()
            .unwrap_or(Source::Initial);
        if let Source::Write { task, .. } = from {
            self.fingerprints[task]?;
        }
        Some(self.content(r, from))
    }

    /// Final contents of every interned resource, in [`ResourceId`]
    /// order, as of the last re-run — the observable the edit-sequence
    /// differential compares against from-scratch execution and the
    /// oracle.
    ///
    /// # Panics
    ///
    /// Panics if a re-run is pending for some resource's latest version
    /// (see [`contents`](Self::contents)): call
    /// [`rerun`](Self::rerun) after declaring its producer.
    pub fn final_contents(&self) -> Vec<(String, u64)> {
        self.interner
            .iter()
            .map(|n| {
                let c = self.contents(n);
                (
                    n.clone(),
                    c.expect("a re-run is pending for this latest version"),
                )
            })
            .collect()
    }

    /// Apply one [`Edit`]. On error, **nothing** changed — see the
    /// [module docs](self) for the staged-commit discipline.
    pub fn edit(&mut self, edit: Edit) -> Result<(), IncrError> {
        self.edit_batch([edit])
    }

    /// Apply several [`Edit`]s as one all-or-nothing transaction with a
    /// **single** replay and one graph step — the bulk path
    /// for ingesting whole programs (building an n-task program through
    /// one-at-a-time [`edit`](Self::edit) calls replays n times, which
    /// is quadratic). On any error the whole batch is rolled back.
    ///
    /// Later edits in the batch see earlier ones: an `AddTask` may
    /// reuse a key a preceding `RemoveTask` freed.
    pub fn edit_batch(&mut self, edits: impl IntoIterator<Item = Edit>) -> Result<(), IncrError> {
        let edits: Vec<Edit> = edits.into_iter().collect();
        if edits.iter().all(|e| matches!(e, Edit::SetInitial { .. })) {
            // Seed-only batch: no replay and no copy of the declarations;
            // the current resolution stays valid.
            self.set_initial(edits.into_iter().filter_map(|e| match e {
                Edit::SetInitial { resource, seed } => Some((resource, seed)),
                _ => None,
            }));
            return Ok(());
        }
        let mut scratch = self.decls.clone();
        // The scratch list's keys, so each edit's key check is one probe.
        let mut keys: HashSet<u64> = scratch.iter().map(|d| d.key).collect();
        let mut edited_keys: Vec<u64> = Vec::new();
        let mut seed_updates: Vec<(String, u64)> = Vec::new();
        for edit in edits {
            match edit {
                Edit::SetInitial { resource, seed } => {
                    seed_updates.push((resource, seed));
                }
                Edit::AddTask {
                    key,
                    fptr,
                    priority,
                    accesses,
                } => {
                    if !keys.insert(key) {
                        return Err(IncrError::DuplicateKey(key));
                    }
                    scratch.push(DeclSpec {
                        key,
                        fptr,
                        priority,
                        accesses,
                    });
                    edited_keys.push(key);
                }
                Edit::RemoveTask { key } => {
                    if !keys.remove(&key) {
                        return Err(IncrError::UnknownKey(key));
                    }
                    scratch.retain(|d| d.key != key);
                }
                Edit::Retarget { key, accesses } => {
                    if !keys.contains(&key) {
                        return Err(IncrError::UnknownKey(key));
                    }
                    let d = scratch.iter_mut().find(|d| d.key == key);
                    d.expect("every key in the set is in the list").accesses = accesses;
                    edited_keys.push(key);
                }
            }
        }
        self.commit_structural(scratch, edited_keys, seed_updates)
    }

    /// Stage a structural change: replay the new declarations and take
    /// edges, order and verdict from the frontend's graph step, then
    /// commit declarations + replay + memo + seeds + dirty marks.
    /// Nothing is assigned before the replay succeeds.
    fn commit_structural(
        &mut self,
        scratch: Vec<DeclSpec>,
        edited_keys: Vec<u64>,
        seed_updates: Vec<(String, u64)>,
    ) -> Result<(), IncrError> {
        // Intern every name the new declaration list mentions. The
        // interner only grows, so this is safe even if the edit is
        // later rejected — ids already handed out never move.
        for d in &scratch {
            for a in &d.accesses {
                self.intern(a.name());
            }
        }
        let replay = Replay::new(&self.interner, &scratch)?;

        // Committed. Positions move: carry each surviving task's memo
        // and mark to its new position by key. Dirty the edited tasks,
        // every task whose resolved binding changed, and nothing else;
        // removed tasks' memos go with the old vectors.
        let n = replay.len();
        let mut fingerprints = vec![None; n];
        let mut outputs = vec![0; replay.write_at[n]];
        let mut touched = vec![false; n];
        for (p, t) in replay.program.tasks().enumerate() {
            let Some(&q) = self.replay.index.get(&t.tag) else {
                touched[p] = true;
                continue;
            };
            let was = self.replay.task(q);
            touched[p] = self.touched[q] || decl_changed(was, t);
            // A memo's outputs follow its task's writes, so it moves only
            // while the task writes the same resources (a changed write
            // list changes the fingerprint anyway).
            if was
                .writes
                .iter()
                .map(|w| w.0)
                .eq(t.writes.iter().map(|w| w.0))
            {
                fingerprints[p] = self.fingerprints[q];
                outputs[replay.writes(p)].copy_from_slice(&self.outputs[self.replay.writes(q)]);
            }
        }
        for k in edited_keys {
            if let Some(&p) = replay.index.get(&k) {
                touched[p] = true;
            }
        }
        let graph = replay.graph();
        let edges: usize = (0..n).map(|p| graph.consumers(p).len()).sum();
        self.ordered += (n + edges) as u64;
        self.decls = scratch;
        self.replay = replay;
        self.fingerprints = fingerprints;
        self.outputs = outputs;
        self.touched = touched;
        // Seeds last, so they dirty the v0-readers *as rebound by this
        // replay*.
        self.set_initial(seed_updates);
        Ok(())
    }

    /// Set initial-contents seeds, then dirty every current reader of an
    /// edited resource's version 0 in one pass over the declarations.
    fn set_initial(&mut self, seeds: impl IntoIterator<Item = (String, u64)>) {
        let edited: Vec<ResourceId> = seeds
            .into_iter()
            .map(|(name, seed)| {
                let r = self.intern(&name);
                self.seeds[r.0 as usize] = seed;
                r
            })
            .collect();
        if edited.is_empty() {
            return;
        }
        for (p, t) in self.replay.program.tasks().enumerate() {
            if t.reads.iter().any(|&(r, v)| v == 0 && edited.contains(&r)) {
                self.touched[p] = true;
            }
        }
    }
}

/// Did a task's resolved binding change between two replays? Version
/// numbers participate deliberately: a renumbered binding lands the
/// task in the structural cone, and the content-based fingerprint then
/// decides whether anything *semantically* changed (early cutoff).
fn decl_changed(old: TaskDecl, new: TaskDecl) -> bool {
    old.fptr != new.fptr
        || old.priority != new.priority
        || old.reads != new.reads
        || old.writes != new.writes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Backend;
    use nexuspp_frontend::Lowering;

    fn add(key: u64, fptr: u64, accesses: Vec<Access>) -> Edit {
        Edit::AddTask {
            key,
            fptr,
            priority: Priority::Normal,
            accesses,
        }
    }

    #[test]
    fn adds_build_edges_and_duplicates_are_rejected() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(1, 0x10, vec![Access::Write("a".into())]))
            .unwrap();
        ip.edit(add(
            2,
            0x11,
            vec![Access::Read("a".into()), Access::Write("b".into())],
        ))
        .unwrap();
        assert_eq!(ip.edges(), vec![(1, 2)]);
        let rank = |k| {
            ip.replay
                .graph()
                .order
                .iter()
                .position(|&p| ip.replay.task(p).tag == k)
        };
        assert!(rank(1).unwrap() < rank(2).unwrap());
        assert_eq!(
            ip.edit(add(1, 0x12, vec![])).unwrap_err(),
            IncrError::DuplicateKey(1)
        );
        assert_eq!(ip.len(), 2);
    }

    #[test]
    fn cycle_creating_edit_rolls_back_completely() {
        // in -> t1 -> a -> t2 -> b, run once, then "in" edited: a
        // non-empty memo and a pending cone.
        let build = || {
            let mut ip = IncrementalProgram::new();
            ip.edit(add(
                1,
                0x10,
                vec![Access::Read("in".into()), Access::Write("a".into())],
            ))
            .unwrap();
            ip.edit(add(
                2,
                0x11,
                vec![Access::Read("a".into()), Access::Write("b".into())],
            ))
            .unwrap();
            ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 2 });
            ip.edit(Edit::SetInitial {
                resource: "in".into(),
                seed: 3,
            })
            .unwrap();
            ip
        };
        let (mut ip, mut twin) = (build(), build());
        // t1 would read the b v1 that t2 mints from t1's a v1: a
        // two-task cycle through a version pin.
        let err = ip
            .edit(Edit::Retarget {
                key: 1,
                accesses: vec![
                    Access::ReadVersion("b".into(), 1),
                    Access::Write("a".into()),
                ],
            })
            .unwrap_err();
        assert_eq!(err, IncrError::Cycle { tags: vec![1, 2] });
        assert_eq!(ip.keys(), twin.keys());
        assert_eq!(ip.edges(), twin.edges());
        assert_eq!(ip.dirty_cone(), vec![1, 2]);
        assert_eq!(ip.dirty_cone(), twin.dirty_cone());
        assert_eq!(ip.fingerprints, twin.fingerprints);
        assert_eq!(ip.outputs, twin.outputs);
        let backend = Backend::Engine { shards: 2 };
        assert_eq!(
            ip.rerun(Lowering::Renamed, &backend),
            twin.rerun(Lowering::Renamed, &backend)
        );
    }

    #[test]
    fn set_initial_dirties_exactly_the_v0_readers() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(
            1,
            0x10,
            vec![Access::Read("in".into()), Access::Write("mid".into())],
        ))
        .unwrap();
        ip.edit(add(
            2,
            0x11,
            vec![Access::Read("mid".into()), Access::Write("out".into())],
        ))
        .unwrap();
        ip.edit(add(3, 0x12, vec![Access::Write("other".into())]))
            .unwrap();
        ip.touched.fill(false); // pretend a re-run happened
        ip.edit(Edit::SetInitial {
            resource: "in".into(),
            seed: 99,
        })
        .unwrap();
        // Task 1 reads in@v0; the cone pulls in its consumer 2 but not
        // the unrelated 3.
        assert_eq!(ip.dirty_cone(), vec![1, 2]);
    }

    #[test]
    fn removal_rebinds_downstream_readers() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(1, 0x10, vec![Access::Write("x".into())]))
            .unwrap();
        ip.edit(add(2, 0x11, vec![Access::Write("x".into())]))
            .unwrap();
        ip.edit(add(3, 0x12, vec![Access::Read("x".into())]))
            .unwrap();
        assert_eq!(ip.edges(), vec![(2, 3)]);
        ip.touched.fill(false);
        ip.edit(Edit::RemoveTask { key: 2 }).unwrap();
        // Reader 3 now consumes task 1's mint.
        assert_eq!(ip.edges(), vec![(1, 3)]);
        assert!(ip.dirty_cone().contains(&3));
        assert_eq!(
            ip.edit(Edit::RemoveTask { key: 2 }).unwrap_err(),
            IncrError::UnknownKey(2)
        );
    }

    #[test]
    fn a_batch_may_remove_a_key_and_add_it_again() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(1, 0x10, vec![Access::Write("x".into())]))
            .unwrap();
        ip.edit(add(2, 0x11, vec![Access::Read("x".into())]))
            .unwrap();
        // The re-added task 1 reads what it used to write; the later
        // retarget of 1 sees the re-added declaration, not the removed one.
        ip.edit_batch([
            Edit::RemoveTask { key: 1 },
            add(1, 0x12, vec![Access::Read("x".into())]),
            Edit::Retarget {
                key: 1,
                accesses: vec![Access::Write("x".into())],
            },
        ])
        .unwrap();
        let order: Vec<(u64, u64)> = ip.decls.iter().map(|d| (d.key, d.fptr)).collect();
        assert_eq!(order, vec![(2, 0x11), (1, 0x12)]);
        // Task 2 now comes first, so it reads x's initial contents and
        // task 1 writes x after it: no true edge is left.
        assert!(ip.edges().is_empty());
    }

    #[test]
    fn a_batch_that_adds_a_key_twice_is_rejected_whole() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(1, 0x10, vec![Access::Write("x".into())]))
            .unwrap();
        let (keys, edges) = (ip.keys(), ip.edges());
        let err = ip
            .edit_batch([
                add(5, 0x11, vec![Access::Read("x".into())]),
                add(5, 0x12, vec![Access::Write("y".into())]),
            ])
            .unwrap_err();
        assert_eq!(err, IncrError::DuplicateKey(5));
        assert_eq!((ip.keys(), ip.edges()), (keys, edges));
        assert_eq!(ip.len(), 1);
    }

    #[test]
    fn never_written_reads_bind_to_initial_contents() {
        let mut ip = IncrementalProgram::new();
        ip.edit(Edit::SetInitial {
            resource: "cfg".into(),
            seed: 5,
        })
        .unwrap();
        ip.edit(add(
            1,
            0x10,
            vec![Access::Read("cfg".into()), Access::Write("o".into())],
        ))
        .unwrap();
        let d = ip.replay.task(ip.replay.index[&1]);
        assert_eq!(d.reads, vec![(ResourceId(0), 0)]);
    }

    #[test]
    fn contents_before_a_rerun_is_none_for_unrun_producers() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(1, 0x10, vec![Access::Write("x".into())]))
            .unwrap();
        ip.edit(Edit::SetInitial {
            resource: "cfg".into(),
            seed: 5,
        })
        .unwrap();
        assert_eq!(ip.contents("x"), None, "no re-run has computed x v1");
        assert_eq!(ip.contents("cfg"), Some(store::initial_contents("cfg", 5)));
        assert_eq!(ip.contents("never"), None);
        ip.rerun(Lowering::Renamed, &Backend::Engine { shards: 1 });
        assert_eq!(ip.contents("x"), Some(store::task_output(0x10, "x", &[])));
        ip.invalidate_all();
        assert_eq!(ip.contents("x"), None, "the memo was dropped");
    }

    #[test]
    #[should_panic(expected = "a re-run is pending")]
    fn final_contents_names_the_pending_rerun() {
        let mut ip = IncrementalProgram::new();
        ip.edit(add(1, 0x10, vec![Access::Write("x".into())]))
            .unwrap();
        ip.final_contents();
    }
}
