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
//! [`Program::graph`] returns the true-dependency edges, the
//! topological order the next re-run walks in, and the verdict. The
//! dependency order is the frontend's order, recomputed at each
//! structural commit: a commit replays the whole declaration list
//! anyway, so a second, online order would save nothing. A
//! cycle-creating edit is rejected at declaration time with
//! [`IncrError::Cycle`]. Nothing is assigned until the graph step
//! succeeds, so a rejected edit leaves the declarations, the memo
//! store, the edges and the order as they were; only the interner
//! (below) may have grown.
//!
//! # Resource identity
//!
//! Resource names are interned once, in first-mention order, and the
//! interner only ever grows — so a [`ResourceId`] is stable across
//! every edit, and the memo store can key cached outputs by it.
//! Because each replay pre-registers the whole interner, reading a
//! resource that no current task writes is always legal: it binds to
//! version 0, the resource's initial contents (a deliberate divergence
//! from the bare frontend, where a never-mentioned name is an error).

use crate::store::{self, Store};
use nexuspp_core::Priority;
use nexuspp_frontend::{FrontendError, Program, ResourceId, TaskDecl, Version};
use nexuspp_runtime::Runtime;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

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
/// **nothing**: declarations, memo store, edges and order are exactly
/// as before.
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

/// Everything one replay derives from the declaration list.
pub(crate) struct Replay {
    pub(crate) program: Program,
    pub(crate) resolved: HashMap<u64, TaskDecl>,
    pub(crate) producers: HashMap<(ResourceId, Version), u64>,
    pub(crate) edges: BTreeSet<(u64, u64)>,
    pub(crate) rank: HashMap<u64, usize>,
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
    /// The current replay of `decls` through the frontend.
    pub(crate) program: Program,
    /// key → resolved declaration (from the current replay).
    pub(crate) resolved: HashMap<u64, TaskDecl>,
    /// (resource, version) → minting task key (current replay).
    pub(crate) producers: HashMap<(ResourceId, Version), u64>,
    /// Current true-dependency edges, by key.
    pub(crate) edges: BTreeSet<(u64, u64)>,
    /// key → position in the current replay's topological order.
    pub(crate) rank: HashMap<u64, usize>,
    /// The memo store (single writer: this struct, on the caller's
    /// thread).
    pub(crate) store: Store,
    /// Keys dirtied by edits since the last re-run.
    pub(crate) touched: BTreeSet<u64>,
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
    /// An empty program with an empty memo store (so the first re-run
    /// is the degenerate from-scratch case).
    pub fn new() -> IncrementalProgram {
        IncrementalProgram {
            interner: Vec::new(),
            by_name: HashMap::new(),
            name_hashes: Vec::new(),
            seeds: Vec::new(),
            decls: Vec::new(),
            program: Program::new(),
            resolved: HashMap::new(),
            producers: HashMap::new(),
            edges: BTreeSet::new(),
            rank: HashMap::new(),
            store: Store::new(),
            touched: BTreeSet::new(),
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
        self.edges.iter().copied().collect()
    }

    /// The memo store (read-only; mutation goes through re-runs and
    /// edits).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Keys currently dirtied by edits plus their forward closure over
    /// the true-dependency edges — exactly the set the next
    /// [`rerun`](Self::rerun) will validate, in sorted key order.
    pub fn dirty_cone(&self) -> Vec<u64> {
        let mut cone: BTreeSet<u64> = self
            .touched
            .iter()
            .copied()
            .filter(|k| self.resolved.contains_key(k))
            .collect();
        let mut stack: Vec<u64> = cone.iter().copied().collect();
        // Forward closure; adjacency read straight off the sorted edge
        // set via range queries.
        while let Some(k) = stack.pop() {
            for &(_, to) in self.edges.range((k, 0)..=(k, u64::MAX)) {
                if cone.insert(to) {
                    stack.push(to);
                }
            }
        }
        cone.into_iter().collect()
    }

    /// Drop every memo and dirty every task: the next re-run is a full
    /// from-scratch execution (the empty-store degenerate case).
    pub fn invalidate_all(&mut self) {
        self.store.clear();
        self.touched.extend(self.resolved.keys().copied());
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

    /// The interned name of `r`.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.interner[r.0 as usize]
    }

    /// The simulated content of `(r, v)` as memoized: initial contents
    /// for version 0, the producer's cached output otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the producer of a non-zero version has no memo yet —
    /// callers resolve contents only for versions whose producers are
    /// clean or already re-validated (the re-run walks in dependency
    /// order, which guarantees it).
    pub(crate) fn content_of(&self, r: ResourceId, v: Version) -> u64 {
        if v == 0 {
            return store::initial_contents(&self.interner[r.0 as usize], self.seeds[r.0 as usize]);
        }
        let p = self.producers[&(r, v)];
        self.store
            .record(p)
            .expect("producer memoized before its consumers resolve")
            .output(r)
            .expect("producer record covers each written resource")
    }

    /// The current content of resource `name` (its latest version), as
    /// of the last re-run. `None` if the name was never mentioned.
    pub fn contents(&self, name: &str) -> Option<u64> {
        let &r = self.by_name.get(name)?;
        let v = self.program.latest_version(name).unwrap_or(0);
        Some(self.content_of(r, v))
    }

    /// Final contents of every interned resource, in [`ResourceId`]
    /// order, as of the last re-run — the observable the edit-sequence
    /// differential compares against from-scratch execution and the
    /// oracle.
    pub fn final_contents(&self) -> Vec<(String, u64)> {
        self.interner
            .iter()
            .map(|n| (n.clone(), self.contents(n).expect("interned")))
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
    /// commit declarations + replay + seeds + dirty marks. Nothing is
    /// assigned before the replay succeeds.
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
        let replay = Self::replay(&self.interner, &scratch)?;

        // Committed. Dirty the edited tasks, every task whose resolved
        // binding changed, and nothing else; evict removed memos.
        self.touched.extend(
            edited_keys
                .into_iter()
                .filter(|k| replay.resolved.contains_key(k)),
        );
        for d in &scratch {
            let new = &replay.resolved[&d.key];
            match self.resolved.get(&d.key) {
                Some(old) if !decl_changed(old, new) => {}
                _ => {
                    self.touched.insert(d.key);
                }
            }
        }
        for k in self.resolved.keys() {
            if !replay.resolved.contains_key(k) {
                self.store.evict(*k);
                self.touched.remove(k);
            }
        }
        self.ordered += (scratch.len() + replay.edges.len()) as u64;
        self.decls = scratch;
        self.program = replay.program;
        self.resolved = replay.resolved;
        self.producers = replay.producers;
        self.edges = replay.edges;
        self.rank = replay.rank;
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
        self.touched.extend(
            self.resolved
                .values()
                .filter(|d| d.reads.iter().any(|&(r, v)| v == 0 && edited.contains(&r)))
                .map(|d| d.tag),
        );
    }

    /// Replay a declaration list through a fresh frontend [`Program`]
    /// (pre-registering the whole interner so ids stay stable and
    /// never-written reads legally bind to version 0), take edges,
    /// order and verdict from [`Program::graph`], and resolve
    /// producers.
    pub(crate) fn replay(interner: &[String], decls: &[DeclSpec]) -> Result<Replay, IncrError> {
        let mut p = Program::new();
        for name in interner {
            p.resource(name);
        }
        for d in decls {
            let mut b = p.task(d.fptr).tag(d.key).priority(d.priority);
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
        let (order, consumers) = p.graph().map_err(|e| match e {
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
        let tasks = p.tasks();
        let mut resolved = HashMap::with_capacity(decls.len());
        let mut producers = HashMap::new();
        for t in tasks {
            for &(r, v) in &t.writes {
                producers.insert((r, v), t.tag);
            }
            resolved.insert(t.tag, t.clone());
        }
        let edges = consumers
            .iter()
            .enumerate()
            .flat_map(|(p, cs)| cs.iter().map(move |&c| (tasks[p].tag, tasks[c].tag)))
            .collect();
        let rank = order
            .iter()
            .enumerate()
            .map(|(pos, &i)| (tasks[i].tag, pos))
            .collect();
        Ok(Replay {
            program: p,
            resolved,
            producers,
            edges,
            rank,
        })
    }
}

/// Did a task's resolved binding change between two replays? Version
/// numbers participate deliberately: a renumbered binding lands the
/// task in the structural cone, and the content-based fingerprint then
/// decides whether anything *semantically* changed (early cutoff).
fn decl_changed(old: &TaskDecl, new: &TaskDecl) -> bool {
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
        assert!(ip.rank[&1] < ip.rank[&2]);
        assert_eq!(
            ip.edit(add(1, 0x12, vec![])).unwrap_err(),
            IncrError::DuplicateKey(1)
        );
        assert_eq!(ip.len(), 2);
    }

    #[test]
    fn cycle_creating_edit_rolls_back_completely() {
        // in -> t1 -> a -> t2 -> b, run once, then "in" edited: a
        // non-empty store and a pending cone.
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
        assert_eq!(ip.store().len(), twin.store().len());
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
        ip.touched.clear(); // pretend a re-run happened
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
        ip.touched.clear();
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
        let d = &ip.resolved[&1];
        assert_eq!(d.reads, vec![(ResourceId(0), 0)]);
    }
}
