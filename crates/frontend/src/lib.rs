//! # nexuspp-frontend — the resource-versioning submission frontend
//!
//! The layers below this crate all speak **addresses**: a task is a
//! function pointer plus a list of `(addr, size, in/out)` parameters,
//! and the Dependence Table infers hazards by address matching. That is
//! faithful to the paper's hardware interface, but it pushes two jobs
//! onto every program author: inventing non-colliding addresses, and —
//! worse — knowing that *reusing* an address re-introduces WAR/WAW
//! false dependencies the hardware will dutifully serialize.
//!
//! This crate moves both jobs into a frontend:
//!
//! * [`Program`] — tasks declare named resources
//!   ([`reads`](program::TaskDeclBuilder::reads),
//!   [`writes`](program::TaskDeclBuilder::writes),
//!   [`read_writes`](program::TaskDeclBuilder::read_writes)); every
//!   write mints a fresh **logical version**, so the program records
//!   exactly which producer each read consumes. Errors are caught
//!   declaratively: reading an undeclared name fails at
//!   [`submit`](program::TaskDeclBuilder::submit); version pins that
//!   name a producerless version or form a cycle fail at
//!   [`graph`](Program::graph).
//! * [`graph`](Program::graph) — the one place dependency order is
//!   computed: it turns the producer each read recorded at declaration
//!   into flat consumer lists, orders tasks topologically (stable in
//!   declaration order) and rejects a cycle, once per program. The
//!   incremental layer (`nexuspp_incr`) takes its edges, order and
//!   cycle verdict from it at every structural commit.
//! * [`lower`](Program::lower) — takes that graph and assigns physical
//!   addresses under a chosen [`Lowering`]:
//!   **`Renamed`** gives each version its own address (false
//!   dependencies vanish, like register renaming); **`Raw`** collapses
//!   each resource to one address (the hand-addressed encoding the
//!   version chains would otherwise serialize through).
//! * [`exec`] — drains a [`LoweredProgram`] through the batch
//!   [`ShardedEngine`](nexuspp_shard::ShardedEngine) the way the master
//!   core feeds the hardware: at most a Task Pool of tasks (Table IV's
//!   1024) in flight, retiring ready tasks whenever the window is full,
//!   with no heap allocation per task. It returns the executed order for
//!   differential checking. The crate depends only on core, shard and
//!   trace: the threaded runtime is driven from above
//!   (`nexuspp_incr`'s `Backend::Runtime`) and from this crate's tests.
//!
//! ```
//! use nexuspp_frontend::{Lowering, Program};
//! use nexuspp_frontend::exec::run_on_engine;
//!
//! let mut p = Program::new();
//! p.resource("grid");
//! // A three-deep version chain over one named resource...
//! for _ in 0..3 {
//!     p.task(0x10).read_writes("grid").submit().unwrap();
//! }
//! // ...plus an independent reader of the *initial* contents.
//! p.task(0x11).reads_version("grid", 0).submit().unwrap();
//!
//! let lowered = p.lower(Lowering::Renamed).unwrap();
//! let order = run_on_engine(&lowered, 4);
//! assert_eq!(order.len(), 4);
//! assert!(lowered.order_respects_edges(&order));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod exec;
pub mod lower;
pub mod program;

pub use lower::{Graph, LoweredProgram, Lowering};
pub use program::{FrontendError, Program, ResourceId, TaskDecl, Version};
