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

use nexuspp_core::Priority;
use std::collections::HashMap;
use std::fmt;

/// Identifies a resource registered in one [`Program`] (an index into
/// the program's resource table — not meaningful across programs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

/// A logical version of a resource. Version 0 is the resource's initial
/// contents — always readable, produced by no task. Each task write
/// mints the next version.
pub type Version = u32;

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
        /// Tags of the tasks on the cycle (in declaration order).
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

/// One access as declared, before names resolve to ids.
#[derive(Debug, Clone)]
enum DeclAccess {
    Read(String),
    ReadVersion(String, Version),
    Write(String),
    ReadWrite(String),
}

/// A task declaration after name/version resolution: the edges of the
/// task graph in logical (resource, version) space.
#[derive(Debug, Clone)]
pub struct TaskDecl {
    /// Caller tag carried through to the lowered submission (defaults to
    /// the declaration index).
    pub tag: u64,
    /// Simulated function pointer.
    pub fptr: u64,
    /// Scheduling priority (the StarSs `highpriority` clause).
    pub priority: Priority,
    /// Versions this task consumes, in declaration order (deduplicated).
    pub reads: Vec<(ResourceId, Version)>,
    /// Versions this task produces — one freshly minted version per
    /// written resource.
    pub writes: Vec<(ResourceId, Version)>,
}

#[derive(Debug, Clone)]
struct ResourceInfo {
    name: String,
    size: u32,
    latest: Version,
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
    by_name: HashMap<String, ResourceId>,
    tasks: Vec<TaskDecl>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Register a resource (64-byte payload) whose version 0 is its
    /// initial contents. Registering an existing name returns its id.
    pub fn resource(&mut self, name: &str) -> ResourceId {
        self.resource_sized(name, 64)
    }

    /// Register a resource with an explicit payload size in bytes (the
    /// size carried on every lowered parameter naming it).
    pub(crate) fn resource_sized(&mut self, name: &str, size: u32) -> ResourceId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(ResourceInfo {
            name: name.to_string(),
            size,
            latest: 0,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Begin declaring a task that simulates function `fptr`.
    pub fn task(&mut self, fptr: u64) -> TaskDeclBuilder<'_> {
        TaskDeclBuilder {
            prog: self,
            fptr,
            tag: None,
            priority: Priority::Normal,
            accesses: Vec::new(),
        }
    }

    /// The resolved task declarations, in declaration order.
    pub fn tasks(&self) -> &[TaskDecl] {
        &self.tasks
    }

    /// Number of registered resources.
    pub(crate) fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// A registered resource's name.
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.0 as usize].name
    }

    /// A registered resource's payload size in bytes.
    pub fn resource_size(&self, id: ResourceId) -> u32 {
        self.resources[id.0 as usize].size
    }

    /// The latest minted version of a resource, if registered
    /// (0 until first written).
    pub fn latest_version(&self, name: &str) -> Option<Version> {
        self.by_name
            .get(name)
            .map(|id| self.resources[id.0 as usize].latest)
    }

    fn lookup(&self, name: &str) -> Result<ResourceId, FrontendError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| FrontendError::UnknownResource {
                name: name.to_string(),
            })
    }
}

/// Builder for one task declaration; created by [`Program::task`].
///
/// Accesses resolve when [`submit`](Self::submit) is called: reads bind
/// to the resource's **latest version at that point in program order**,
/// then the task's writes mint fresh versions. Writing a name that was
/// never registered registers it on the spot.
#[derive(Debug)]
pub struct TaskDeclBuilder<'p> {
    prog: &'p mut Program,
    fptr: u64,
    tag: Option<u64>,
    priority: Priority,
    accesses: Vec<DeclAccess>,
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

    /// Mark the task high priority.
    pub fn high_priority(self) -> Self {
        self.priority(Priority::High)
    }

    /// Read the resource's latest version (as of this declaration).
    pub fn reads(mut self, name: &str) -> Self {
        self.accesses.push(DeclAccess::Read(name.to_string()));
        self
    }

    /// Read a *pinned* version of the resource. The pin may name a
    /// version minted by a task declared **later** — the lowering
    /// reorders into dependency order — but a version nobody ever mints
    /// is an [`UnknownProducer`](FrontendError::UnknownProducer) error,
    /// and pins that loop are a [`Cycle`](FrontendError::Cycle).
    pub fn reads_version(mut self, name: &str, version: Version) -> Self {
        self.accesses
            .push(DeclAccess::ReadVersion(name.to_string(), version));
        self
    }

    /// Write the resource, minting a fresh version. Auto-registers the
    /// name if this is its first mention.
    pub fn writes(mut self, name: &str) -> Self {
        self.accesses.push(DeclAccess::Write(name.to_string()));
        self
    }

    /// Read the latest version, then mint a fresh one (the StarSs
    /// `inout` clause in versioned form).
    pub fn read_writes(mut self, name: &str) -> Self {
        self.accesses.push(DeclAccess::ReadWrite(name.to_string()));
        self
    }

    /// Resolve the declaration against the program state and append it,
    /// returning the task's tag. Reading a name that was never
    /// registered (and is not written here or earlier) fails with
    /// [`FrontendError::UnknownResource`].
    pub fn submit(self) -> Result<u64, FrontendError> {
        let TaskDeclBuilder {
            prog,
            fptr,
            tag,
            priority,
            accesses,
        } = self;
        let tag = tag.unwrap_or(prog.tasks.len() as u64);
        let mut reads: Vec<(ResourceId, Version)> = Vec::new();
        let mut writes: Vec<(ResourceId, Version)> = Vec::new();
        // Pass 1: resolve every read against pre-task latest versions
        // (a read_writes consumes the version preceding its own mint).
        for a in &accesses {
            let rv = match a {
                DeclAccess::Read(n) => {
                    let r = prog.lookup(n)?;
                    Some((r, prog.resources[r.0 as usize].latest))
                }
                DeclAccess::ReadVersion(n, v) => Some((prog.lookup(n)?, *v)),
                DeclAccess::ReadWrite(n) => {
                    let r = prog.resource(n);
                    Some((r, prog.resources[r.0 as usize].latest))
                }
                DeclAccess::Write(_) => None,
            };
            if let Some(rv) = rv {
                if !reads.contains(&rv) {
                    reads.push(rv);
                }
            }
        }
        // Pass 2: mint one fresh version per written resource.
        for a in &accesses {
            if let DeclAccess::Write(n) | DeclAccess::ReadWrite(n) = a {
                let r = prog.resource(n);
                if !writes.iter().any(|(w, _)| *w == r) {
                    let info = &mut prog.resources[r.0 as usize];
                    info.latest += 1;
                    writes.push((r, info.latest));
                }
            }
        }
        prog.tasks.push(TaskDecl {
            tag,
            fptr,
            priority,
            reads,
            writes,
        });
        Ok(tag)
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
        let decls = p.tasks();
        assert_eq!(decls[0].writes, vec![(ResourceId(0), 1)]);
        assert_eq!(decls[2].writes, vec![(ResourceId(0), 3)]);
        assert!(decls.iter().all(|t| t.reads.is_empty()));
    }

    #[test]
    fn reads_bind_to_the_latest_version_at_declaration() {
        let mut p = Program::new();
        p.resource("a");
        p.task(1).reads("a").submit().unwrap(); // v0: initial contents
        p.task(1).writes("a").submit().unwrap(); // mints v1
        p.task(1).reads("a").submit().unwrap(); // v1
        assert_eq!(p.tasks()[0].reads, vec![(ResourceId(0), 0)]);
        assert_eq!(p.tasks()[2].reads, vec![(ResourceId(0), 1)]);
    }

    #[test]
    fn read_writes_consumes_the_pre_mint_version() {
        let mut p = Program::new();
        p.task(1).writes("x").submit().unwrap(); // v1
        p.task(1).read_writes("x").submit().unwrap(); // reads v1, mints v2
        let t = &p.tasks()[1];
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
        let t = &p.tasks()[0];
        assert_eq!(t.reads, vec![(ResourceId(0), 0)]);
        assert_eq!(t.writes, vec![(ResourceId(0), 1)]);
        assert_eq!(p.latest_version("a"), Some(1));
    }
}
