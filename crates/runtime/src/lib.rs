//! # nexuspp-runtime — a real StarSs-like task dataflow runtime
//!
//! The paper's premise is that StarSs lets a programmer annotate plain
//! function calls with `input`/`output`/`inout` clauses and have the
//! runtime discover the task graph. There is no StarSs toolchain for Rust,
//! so this crate provides the equivalent embedded API — and executes real
//! closures on a thread pool, resolving dependencies with the *same*
//! [`nexuspp_core::DependencyEngine`] the hardware model uses (in its
//! growable software configuration). Semantics are therefore tested once
//! (against the oracle resolver) and shared between the simulator and this
//! runtime.
//!
//! The whole user surface is a task declaration ([`Runtime::task`] →
//! [`TaskBuilder`]), a parameter direction (`input` / `output` / `inout`
//! over a [`Region`]) and init/finish ([`Runtime::new`],
//! [`Runtime::barrier`]):
//!
//! ```
//! use nexuspp_runtime::Runtime;
//!
//! let rt = Runtime::new(4, 1); // 4 workers, 1 resolver shard
//! let a = rt.region(vec![1u64; 8]);
//! let b = rt.region(vec![0u64; 8]);
//! {
//!     let (a, b) = (a.clone(), b.clone());
//!     rt.task()
//!         .input(&a)
//!         .output(&b)
//!         .spawn(move |t| {
//!             let av = t.read(&a);
//!             let mut bv = t.write(&b);
//!             for (x, y) in av.iter().zip(bv.iter_mut()) {
//!                 *y = x * 2;
//!             }
//!         });
//! }
//! rt.barrier(); // like `#pragma css barrier`
//! assert_eq!(rt.with_data(&b, |v| v.to_vec()), vec![2u64; 8]);
//! ```

//!
//! There is one runtime. Dependency resolution is partitioned across
//! `shards` engines behind per-shard locks, so task completions touching
//! disjoint addresses retire in parallel; `Runtime::new(n, 1)` — one
//! engine, one lock, the centralized Task Maestro — is the degenerate
//! case of the same code. [`ShardedRuntime`] is an alias for [`Runtime`],
//! kept because the `e2e` benchmark names it.
//!
//! Ready tasks reach the workers through the `nexuspp-sched`
//! work-stealing scheduler, and wakes leave the shards in the finisher's
//! own report, outside the shard lock. [`Runtime::with_capacity`] adds the one setting beyond
//! `(workers, shards)`: a per-shard residency bound ([`ShardCapacity`])
//! under which `spawn` blocks while a shard is full.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod region;
mod runtime;
mod sharded;
pub mod stress;

pub use nexuspp_core::ShardCapacity;
pub use nexuspp_sched::SchedCounts;
pub use nexuspp_shard::{CapacityCounts, WakeCounts};
pub use region::{Region, RegionId};
pub use runtime::{ShutdownReport, TaskCtx};
pub use sharded::{PendingSpawn, Runtime, ShardedRuntime, TaskBuilder};
