//! # nexuspp-incr — the incremental re-execution layer
//!
//! Every layer below this crate answers "run this program"; this crate
//! answers **"run this program *again*, after an edit"** — without
//! paying for the parts that didn't change. It is a PIE-style
//! memoized-build layer grafted onto the resource-versioning frontend:
//!
//! * [`Store`] — the memo: per-task fingerprints and cached output
//!   contents, keyed by stable task keys and [`ResourceId`]s so
//!   structural edits (which renumber versions) never invalidate by
//!   accident. The hash primitives ([`store::initial_contents`],
//!   [`store::task_output`], [`store::fingerprint`]) are public — they
//!   are the contract the differential-test oracle shares.
//! * [`DynamicTopo`] — a Pearce–Kelly **dynamic topological order** over
//!   the task graph: edits insert and delete nodes/edges online, paying
//!   only for the affected region, with cycle-creating insertions
//!   detected and rejected *at declaration time* before any state
//!   mutates. The full order is never recomputed.
//! * [`IncrementalProgram`] — the editable program: apply [`Edit`]s
//!   (initial-contents changes, task add/remove/retarget; all-or-nothing
//!   commit), then [`rerun`](IncrementalProgram::rerun) resubmits only
//!   the invalidated cone to a [`Backend`] (the batch engine, or the
//!   threaded runtime — where re-run bodies compute contents live
//!   against spliced memoized inputs). Each run reports an
//!   [`IncrReport`] and can feed live counters into a
//!   [`MetricsRegistry`](nexuspp_obs::MetricsRegistry).
//!
//! A from-scratch execution is just the degenerate case: an empty store
//! dirties everything, so the very first `rerun` runs the whole
//! program.
//!
//! ```
//! use nexuspp_incr::{Access, Backend, Edit, IncrementalProgram};
//! use nexuspp_frontend::Lowering;
//!
//! let mut ip = IncrementalProgram::new();
//! // in -> blur -> sharpen -> out, as edits against the empty program.
//! ip.edit(Edit::AddTask {
//!     key: 1,
//!     fptr: 0x10,
//!     priority: Default::default(),
//!     accesses: vec![Access::Read("in".into()), Access::Write("mid".into())],
//! })
//! .unwrap();
//! ip.edit(Edit::AddTask {
//!     key: 2,
//!     fptr: 0x11,
//!     priority: Default::default(),
//!     accesses: vec![Access::Read("mid".into()), Access::Write("out".into())],
//! })
//! .unwrap();
//!
//! let backend = Backend::Engine { shards: 2 };
//! let first = ip.rerun(Lowering::Renamed, &backend);
//! assert_eq!(first.reran, 2); // empty store: from scratch
//!
//! // Change the input; both tasks are downstream, so both re-run...
//! ip.edit(Edit::SetInitial { resource: "in".into(), seed: 7 }).unwrap();
//! let second = ip.rerun(Lowering::Renamed, &backend);
//! assert_eq!(second.reran, 2);
//!
//! // ...but an untouched re-run reuses everything and skips the
//! // backend entirely.
//! let third = ip.rerun(Lowering::Renamed, &backend);
//! assert_eq!((third.reran, third.reused), (0, 2));
//! ```

#![deny(missing_docs)]

pub mod exec;
pub mod order;
pub mod program;
pub mod store;

pub use exec::{Backend, IncrReport};
pub use order::{DynamicTopo, OrderError};
pub use program::{Access, Edit, IncrError, IncrementalProgram, METRIC_NAMES};
pub use store::{Store, TaskRecord};

// Re-exported so doctests and downstream callers can name the id type
// without an explicit frontend dependency.
pub use nexuspp_frontend::ResourceId;
