//! Declarative task programs over named, versioned resources.
//!
//! A [`Program`] is built the way a StarSs master thread issues work:
//! one task at a time, in program order, each declaring *what it
//! touches* by name — `reads("grid")`, `writes("grid")` — instead of by
//! raw address. Every write to a resource mints a fresh **logical
//! version** of it (SSA-style), so the program records exactly which
//! producer each read consumes. That version history is what the
//! lowering (see [`crate::lower`]) exploits: distinct versions can be
//! *renamed* onto distinct physical addresses, dissolving the WAR/WAW
//! false dependencies that a raw single-address encoding would force
//! the Dependence Table to serialize.
//!
//! # Storage
//!
//! A builder call looks its name up once, when it is made; only a name
//! not registered yet keeps its text until [`submit`]. The access list
//! being built is a buffer the program keeps between declarations, and
//! every declared task's reads and writes live in one flat vector, with
//! a range per task. Each read's producer is recorded as it is declared
//! (a pin to a version not minted yet is resolved when its minter is
//! declared), so the graph ([`Program::graph`]) only transposes them.
//! Declaring a task therefore allocates nothing of its own once those
//! vectors have grown.
//!
//! [`submit`]: TaskDeclBuilder::submit

use crate::lower::Graph;
use nexuspp_core::Priority;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Identifies a resource registered in one [`Program`] (an index into
/// the program's resource table — not meaningful across programs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

/// A logical version of a resource. Version 0 is the resource's initial
/// contents — always readable, produced by no task. Each task write
/// mints the next version.
pub type Version = u32;

/// Payload size in bytes of a registered resource: the size carried on
/// every lowered parameter naming it.
const RESOURCE_SIZE: u32 = 64;

/// Errors surfaced by the frontend, either when a declaration is
/// submitted ([`UnknownResource`](FrontendError::UnknownResource)) or
/// when the program is lowered (the rest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendError {
    /// A task read a resource name never registered or written.
    UnknownResource {
        /// The undeclared name.
        name: String,
    },
    /// A pinned read references a version no task produces.
    UnknownProducer {
        /// The resource read.
        resource: String,
        /// The version nobody writes.
        version: Version,
        /// Tag of the reading task.
        reader: u64,
    },
    /// Version pins form a dependency cycle; no valid schedule exists.
    Cycle {
        /// Tags of the tasks Kahn's algorithm left unordered — those on
        /// a cycle and those downstream of one — in declaration order.
        tags: Vec<u64>,
    },
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::UnknownResource { name } => {
                write!(f, "unknown resource {name:?}: declare it or write it first")
            }
            FrontendError::UnknownProducer {
                resource,
                version,
                reader,
            } => write!(
                f,
                "task {reader} reads {resource:?} version {version}, which no task produces"
            ),
            FrontendError::Cycle { tags } => {
                write!(
                    f,
                    "version pins form a dependency cycle through tasks {tags:?}"
                )
            }
        }
    }
}

impl std::error::Error for FrontendError {}

/// The name map's hasher: one folded multiply (the mixing step of
/// wyhash and foldhash) per 8-byte word of the name, so resolving a
/// name costs a few multiplies rather than a SipHash pass. Names are
/// trusted program text, so the map is not HashDoS-resistant.
#[derive(Debug, Clone, Copy, Default)]
struct NameHasher(u64);

impl NameHasher {
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.mix(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A name as a builder call found it.
#[derive(Debug, Clone)]
enum Name {
    /// Registered before the call, so resolved there: registration is
    /// permanent and only the builder's program registers.
    Known(ResourceId),
    /// Not registered at the call: looked up again at submit, where an
    /// earlier access of the same declaration may have registered it.
    Unknown(String),
}

/// What a declared access does with its resource.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Read,
    ReadVersion(Version),
    Write,
    ReadWrite,
}

/// One access of the declaration being built.
#[derive(Debug, Clone)]
struct DeclAccess {
    kind: Kind,
    name: Name,
}

/// One declared task: its scalar fields and where its accesses sit in
/// the program's flat vectors (`at..split` its reads, `split..end` its
/// writes).
#[derive(Debug, Clone)]
struct Row {
    tag: u64,
    fptr: u64,
    priority: Priority,
    at: u32,
    split: u32,
    end: u32,
}

/// A task declaration after name/version resolution: the edges of the
/// task graph in logical (resource, version) space, borrowed from its
/// [`Program`].
#[derive(Debug, Clone, Copy)]
pub struct TaskDecl<'p> {
    /// Caller tag carried through to the lowered submission (defaults to
    /// the declaration index).
    pub tag: u64,
    /// Simulated function pointer.
    pub fptr: u64,
    /// Scheduling priority (the StarSs `highpriority` clause).
    pub priority: Priority,
    /// Versions this task consumes, in declaration order (deduplicated).
    pub reads: &'p [(ResourceId, Version)],
    /// Versions this task produces — one freshly minted version per
    /// written resource.
    pub writes: &'p [(ResourceId, Version)],
    /// Per read, the declaration index of the task that mints it:
    /// `None` for version 0 (initial contents), this task's own index
    /// for a read of its own mint. Complete once [`Program::graph`]
    /// succeeds; until a pinned version is minted its entry is `None`.
    pub producers: &'p [Option<u32>],
}

#[derive(Debug, Clone)]
struct ResourceInfo {
    name: String,
    /// Entry `v - 1` is the declaration index of the task that minted
    /// version `v`, so the latest version is the length.
    minted: Vec<u32>,
    /// Flat indices of pinned reads of versions not minted yet.
    waiting: Vec<u32>,
}

/// An append-only program of resource-declaring tasks.
///
/// ```
/// use nexuspp_frontend::{Lowering, Program};
///
/// let mut p = Program::new();
/// p.resource("grid");
/// p.task(0x10).writes("grid").submit().unwrap(); // mints grid v1
/// p.task(0x11).reads("grid").writes("out").submit().unwrap();
/// let lowered = p.lower(Lowering::Renamed).unwrap();
/// assert_eq!(lowered.tasks.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Program {
    resources: Vec<ResourceInfo>,
    by_name: HashMap<String, ResourceId, BuildHasherDefault<NameHasher>>,
    rows: Vec<Row>,
    /// Every task's reads, then its writes, task after task.
    accesses: Vec<(ResourceId, Version)>,
    /// Parallel to `accesses`: the declaration index of the task that
    /// mints that version (`None` for version 0, and for a pin whose
    /// version is not minted yet).
    producers: Vec<Option<u32>>,
    /// A pin resolved to a task declared after its reader, so some edge
    /// points backward and declaration order may not be topological.
    backward: bool,
    /// The access list of the declaration being built, kept between
    /// declarations so that building one allocates nothing.
    building: Vec<DeclAccess>,
    /// The dependency graph, built on first use and dropped by the next
    /// declaration.
    pub(crate) graph: OnceLock<Result<Graph, FrontendError>>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Register a resource (64-byte payload) whose version 0 is its
    /// initial contents. Registering an existing name returns its id.
    pub fn resource(&mut self, name: &str) -> ResourceId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(ResourceInfo {
            name: name.to_string(),
            minted: Vec::new(),
            waiting: Vec::new(),
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Begin declaring a task that simulates function `fptr`.
    pub fn task(&mut self, fptr: u64) -> TaskDeclBuilder<'_> {
        self.building.clear();
        TaskDeclBuilder {
            prog: self,
            fptr,
            tag: None,
            priority: Priority::Normal,
        }
    }

    /// The resolved task declarations, in declaration order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskDecl<'_>> + '_ {
        (0..self.rows.len()).map(|t| self.decl(t))
    }

    /// The resolved declaration of task `t` (a declaration index).
    pub fn decl(&self, t: usize) -> TaskDecl<'_> {
        let row = &self.rows[t];
        let (at, split, end) = (row.at as usize, row.split as usize, row.end as usize);
        TaskDecl {
            tag: row.tag,
            fptr: row.fptr,
            priority: row.priority,
            reads: &self.accesses[at..split],
            writes: &self.accesses[split..end],
            producers: &self.producers[at..split],
        }
    }

    /// A registered resource's name.
    pub(crate) fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.0 as usize].name
    }

    /// A registered resource's payload size in bytes.
    pub fn resource_size(&self, _id: ResourceId) -> u32 {
        RESOURCE_SIZE
    }

    /// The latest minted version of a resource, if registered
    /// (0 until first written).
    pub fn latest_version(&self, name: &str) -> Option<Version> {
        self.by_name.get(name).map(|&id| self.latest(id))
    }

    fn latest(&self, id: ResourceId) -> Version {
        self.resources[id.0 as usize].minted.len() as Version
    }

    /// Task `t`'s edges in, as producer declaration indices: every other
    /// task whose mint it reads, once each, in the order of its reads.
    pub(crate) fn producers_of(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        let producers = self.decl(t).producers;
        producers.iter().enumerate().filter_map(move |(j, &p)| {
            let p = p?;
            (p as usize != t && !producers[..j].contains(&Some(p))).then_some(p as usize)
        })
    }

    /// Does every edge point from an earlier declaration to a later one?
    pub(crate) fn edges_point_forward(&self) -> bool {
        !self.backward
    }

    /// The first read, in declaration order, of a pinned version no task
    /// mints.
    pub(crate) fn unminted_pin(&self) -> Option<FrontendError> {
        let k = *self.resources.iter().flat_map(|r| &r.waiting).min()? as usize;
        let t = self.rows.partition_point(|row| row.end as usize <= k);
        let (r, version) = self.accesses[k];
        Some(FrontendError::UnknownProducer {
            resource: self.resource_name(r).to_string(),
            version,
            reader: self.rows[t].tag,
        })
    }

    /// A name's id if it is registered now.
    fn lookup(&self, name: &Name) -> Option<ResourceId> {
        match name {
            Name::Known(r) => Some(*r),
            Name::Unknown(n) => self.by_name.get(n.as_str()).copied(),
        }
    }

    /// A name's id, registering it if needed; the access then remembers
    /// the id.
    fn register(&mut self, name: &mut Name) -> ResourceId {
        match name {
            Name::Known(r) => *r,
            Name::Unknown(n) => {
                let r = self.resource(n);
                *name = Name::Known(r);
                r
            }
        }
    }

    /// Resolve a built declaration against the program state and append
    /// it (see [`TaskDeclBuilder::submit`]).
    fn declare(
        &mut self,
        fptr: u64,
        tag: Option<u64>,
        priority: Priority,
        accesses: &mut [DeclAccess],
    ) -> Result<u64, FrontendError> {
        let tag = tag.unwrap_or(self.rows.len() as u64);
        let t = u32::try_from(self.rows.len()).expect("fewer than 2^32 tasks");
        let at = self.accesses.len();
        // Pass 1: resolve every read against pre-task latest versions
        // (a read_writes consumes the version preceding its own mint).
        for a in accesses.iter_mut() {
            let r = match a.kind {
                Kind::Write => continue,
                Kind::ReadWrite => self.register(&mut a.name),
                Kind::Read | Kind::ReadVersion(_) => match self.lookup(&a.name) {
                    Some(r) => r,
                    None => {
                        self.accesses.truncate(at);
                        let Name::Unknown(name) = &mut a.name else {
                            unreachable!("a known name always resolves")
                        };
                        let name = std::mem::take(name);
                        return Err(FrontendError::UnknownResource { name });
                    }
                },
            };
            let v = match a.kind {
                Kind::ReadVersion(v) => v,
                _ => self.latest(r),
            };
            if !self.accesses[at..].contains(&(r, v)) {
                self.accesses.push((r, v));
            }
        }
        let split = self.accesses.len();
        for k in at..split {
            let (r, v) = self.accesses[k];
            let res = &mut self.resources[r.0 as usize];
            let producer = match v as usize {
                0 => None,
                v if v <= res.minted.len() => Some(res.minted[v - 1]),
                _ => {
                    res.waiting.push(k as u32);
                    None
                }
            };
            self.producers.push(producer);
        }
        // Pass 2: mint one fresh version per written resource.
        for a in accesses.iter_mut() {
            if let Kind::Write | Kind::ReadWrite = a.kind {
                let r = self.register(&mut a.name);
                if !self.accesses[split..].iter().any(|&(w, _)| w == r) {
                    let v = self.mint(r, t, at);
                    self.accesses.push((r, v));
                    self.producers.push(Some(t));
                }
            }
        }
        let end = u32::try_from(self.accesses.len()).expect("fewer than 2^32 accesses");
        self.rows.push(Row {
            tag,
            fptr,
            priority,
            at: at as u32,
            split: split as u32,
            end,
        });
        self.graph = OnceLock::new();
        Ok(tag)
    }

    /// Task `t` (whose accesses start at flat index `at`) mints the next
    /// version of `r`; a pin waiting for that version now has its
    /// producer.
    fn mint(&mut self, r: ResourceId, t: u32, at: usize) -> Version {
        let res = &mut self.resources[r.0 as usize];
        res.minted.push(t);
        let v = res.minted.len() as Version;
        if !res.waiting.is_empty() {
            let (accesses, producers) = (&self.accesses, &mut self.producers);
            let mut backward = false;
            res.waiting.retain(|&k| {
                let k = k as usize;
                let hit = accesses[k].1 == v;
                if hit {
                    producers[k] = Some(t);
                    backward |= k < at;
                }
                !hit
            });
            self.backward |= backward;
        }
        v
    }
}

/// Builder for one task declaration; created by [`Program::task`].
///
/// Each access looks its name up when it is added. The declaration
/// resolves when [`submit`](Self::submit) is called: reads bind to the
/// resource's **latest version at that point in program order**, then
/// the task's writes mint fresh versions. Writing a name that was never
/// registered registers it on the spot.
#[derive(Debug)]
pub struct TaskDeclBuilder<'p> {
    prog: &'p mut Program,
    fptr: u64,
    tag: Option<u64>,
    priority: Priority,
}

impl TaskDeclBuilder<'_> {
    /// Set the caller tag (defaults to the declaration index).
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Set the task's scheduling priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    fn access(self, kind: Kind, name: &str) -> Self {
        let name = match self.prog.by_name.get(name) {
            Some(&r) => Name::Known(r),
            None => Name::Unknown(name.to_string()),
        };
        self.prog.building.push(DeclAccess { kind, name });
        self
    }

    /// Read the resource's latest version (as of this declaration).
    pub fn reads(self, name: &str) -> Self {
        self.access(Kind::Read, name)
    }

    /// Read a *pinned* version of the resource. The pin may name a
    /// version minted by a task declared **later** — the lowering
    /// reorders into dependency order — but a version nobody ever mints
    /// is an [`UnknownProducer`](FrontendError::UnknownProducer) error,
    /// and pins that loop are a [`Cycle`](FrontendError::Cycle).
    pub fn reads_version(self, name: &str, version: Version) -> Self {
        self.access(Kind::ReadVersion(version), name)
    }

    /// Write the resource, minting a fresh version. Auto-registers the
    /// name if this is its first mention.
    pub fn writes(self, name: &str) -> Self {
        self.access(Kind::Write, name)
    }

    /// Read the latest version, then mint a fresh one (the StarSs
    /// `inout` clause in versioned form).
    pub fn read_writes(self, name: &str) -> Self {
        self.access(Kind::ReadWrite, name)
    }

    /// Resolve the declaration against the program state and append it,
    /// returning the task's tag. Reading a name that is not registered
    /// when its read resolves (an earlier `read_writes` of the same
    /// declaration registers it; a `writes` does so only after every
    /// read) fails with [`FrontendError::UnknownResource`] and appends
    /// nothing.
    pub fn submit(self) -> Result<u64, FrontendError> {
        let TaskDeclBuilder {
            prog,
            fptr,
            tag,
            priority,
        } = self;
        let mut building = std::mem::take(&mut prog.building);
        let declared = prog.declare(fptr, tag, priority, &mut building);
        building.clear();
        prog.building = building;
        declared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_mint_monotone_versions() {
        let mut p = Program::new();
        for _ in 0..3 {
            p.task(1).writes("grid").submit().unwrap();
        }
        assert_eq!(p.latest_version("grid"), Some(3));
        assert_eq!(p.decl(0).writes, vec![(ResourceId(0), 1)]);
        assert_eq!(p.decl(2).writes, vec![(ResourceId(0), 3)]);
        assert!(p.tasks().all(|t| t.reads.is_empty()));
    }

    #[test]
    fn reads_bind_to_the_latest_version_at_declaration() {
        let mut p = Program::new();
        p.resource("a");
        p.task(1).reads("a").submit().unwrap(); // v0: initial contents
        p.task(1).writes("a").submit().unwrap(); // mints v1
        p.task(1).reads("a").submit().unwrap(); // v1
        assert_eq!(p.decl(0).reads, vec![(ResourceId(0), 0)]);
        assert_eq!(p.decl(0).producers, vec![None]);
        assert_eq!(p.decl(2).reads, vec![(ResourceId(0), 1)]);
        assert_eq!(p.decl(2).producers, vec![Some(1)]);
    }

    #[test]
    fn read_writes_consumes_the_pre_mint_version() {
        let mut p = Program::new();
        p.task(1).writes("x").submit().unwrap(); // v1
        p.task(1).read_writes("x").submit().unwrap(); // reads v1, mints v2
        let t = p.decl(1);
        assert_eq!(t.reads, vec![(ResourceId(0), 1)]);
        assert_eq!(t.writes, vec![(ResourceId(0), 2)]);
    }

    #[test]
    fn unknown_read_is_an_error_but_writes_auto_register() {
        let mut p = Program::new();
        let err = p.task(1).reads("nope").submit().unwrap_err();
        assert_eq!(
            err,
            FrontendError::UnknownResource {
                name: "nope".into()
            }
        );
        assert!(err.to_string().contains("nope"));
        p.task(1).writes("fresh").submit().unwrap();
        assert_eq!(p.latest_version("fresh"), Some(1));
        // The failed declaration appended nothing.
        assert_eq!(p.tasks().len(), 1);
    }

    #[test]
    fn registration_order_follows_the_two_passes() {
        // A read_writes registers while reads resolve, before any
        // writes does, so it resolves a later read of the same name;
        // a writes does not.
        let mut p = Program::new();
        p.task(1)
            .writes("w")
            .read_writes("rw")
            .reads("rw")
            .submit()
            .unwrap();
        assert_eq!(p.decl(0).reads, vec![(ResourceId(0), 0)]);
        assert_eq!(
            p.decl(0).writes,
            vec![(ResourceId(1), 1), (ResourceId(0), 1)]
        );
        let err = p.task(1).writes("late").reads("late").submit();
        assert_eq!(
            err.unwrap_err(),
            FrontendError::UnknownResource {
                name: "late".into()
            }
        );
        // A failed declaration keeps the registrations its reads made.
        p.task(1)
            .read_writes("kept")
            .reads("gone")
            .submit()
            .unwrap_err();
        assert_eq!(p.latest_version("kept"), Some(0));
        assert_eq!(p.latest_version("late"), None);
    }

    #[test]
    fn a_pin_resolves_when_its_version_is_minted() {
        let mut p = Program::new();
        p.resource("x");
        p.task(1).reads_version("x", 2).submit().unwrap();
        assert_eq!(p.decl(0).producers, vec![None]);
        assert!(p.unminted_pin().is_some());
        p.task(1).writes("x").submit().unwrap();
        p.task(1).writes("x").submit().unwrap();
        assert_eq!(p.decl(0).producers, vec![Some(2)]);
        assert!(p.unminted_pin().is_none());
        assert!(!p.edges_point_forward());
    }

    #[test]
    fn duplicate_accesses_dedupe_and_mint_once() {
        let mut p = Program::new();
        p.resource("a");
        p.task(1)
            .reads("a")
            .reads("a")
            .writes("a")
            .writes("a")
            .submit()
            .unwrap();
        let t = p.decl(0);
        assert_eq!(t.reads, vec![(ResourceId(0), 0)]);
        assert_eq!(t.writes, vec![(ResourceId(0), 1)]);
        assert_eq!(p.latest_version("a"), Some(1));
    }

    #[test]
    fn the_name_hasher_spreads_names_that_differ_in_one_byte() {
        let hash = |name: &str| {
            let mut h = NameHasher::default();
            std::hash::Hash::hash(name, &mut h);
            h.finish()
        };
        let names: Vec<String> = (0..4096).map(|i| format!("t0.s1f.cell{i}")).collect();
        let mut low: Vec<u64> = names.iter().map(|n| hash(n) & 0xFFF).collect();
        low.sort_unstable();
        low.dedup();
        // 4096 names into 4096 buckets: a uniform hash fills about 63 %.
        assert!(low.len() > 2400, "{} distinct low-bit buckets", low.len());
    }
}
