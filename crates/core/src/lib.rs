//! # nexuspp-core — the Nexus++ task manager
//!
//! The paper's primary contribution, as a pure (timing-free) library:
//!
//! * [`pool`] — the **Task Pool**: the fixed-size table of Task Descriptors,
//!   indexed by the task IDs used everywhere inside Nexus++ ("a task is
//!   identified by its Task Pool index"), with the **dummy task** mechanism
//!   that chains extra descriptors when a task has more inputs/outputs than
//!   fit in one descriptor (§II-C / III-C),
//! * [`table`] — the **Dependence Table**: the hash table with in-table
//!   chaining, per-address access state (`isOut`, `Rdrs`, `ww`), fixed-size
//!   **Kick-Off Lists** extended by chained **dummy entries**, implementing
//!   the dependency-resolution algorithm of Listing 2 and the
//!   finished-task wake-up protocol (§III-B),
//! * [`engine`] — the **dependency engine** gluing pool + table into the
//!   Task Maestro's protocol: admit (Write TP), check (Check Deps), finish
//!   (Handle Finished). Every operation reports an [`OpCost`] — the number
//!   of table accesses performed — which the Task Machine multiplies by the
//!   2 ns on-chip access time, exactly as the paper computes hash-table
//!   timing ("the on-chip access time multiplied by the number of lookups
//!   required per access"),
//! * [`oracle`] — a reference dependency tracker (explicit task DAG from
//!   last-writer/readers sets) used for differential testing: the hardware
//!   protocol must produce exactly the same ready sets,
//! * [`config`] — capacities (Table IV defaults) including the *growable*
//!   mode used by the threaded runtime, where capacity virtualization
//!   (dummy tasks/entries) is unnecessary,
//! * [`priority`] — the ready-task handoff types (the StarSs
//!   `highpriority` clause) shared by the schedulers and runtimes that
//!   consume what the engine releases,
//! * [`submit`] — the unified submission surface: the [`SubmitError`]
//!   enum every `submit*` entry point reports (capacity-full, pool-full,
//!   bad-params) and the [`TaskBuilder`]/[`Submission`] pair that is the
//!   blessed way to construct a task,
//! * [`EventCount`] — the one wait/notify primitive: every thread that
//!   blocks until another publishes something (a parked submitter, an
//!   idle worker, a barrier, the service's ingress) waits on one,
//! * [`testsupport`] — shared watchdog/deadline-poll helpers for the
//!   workspace's integration tests (paths that regress by *hanging*
//!   need a watchdog, and cross-thread rendezvous needs deterministic
//!   polling instead of sleeps).

pub mod config;
pub mod cost;
pub mod engine;
mod eventcount;
pub mod oracle;
pub mod pool;
pub mod priority;
pub mod submit;
pub mod table;
pub mod testsupport;

pub use config::{NexusConfig, ShardCapacity};
pub use cost::OpCost;
pub use engine::{CheckProgress, DependencyEngine, FinishResult};
pub use eventcount::EventCount;
pub use pool::{PoolError, TaskPool, TdIndex};
pub use priority::Priority;
pub use submit::{duplicate_address, Submission, SubmitError, TaskBuilder, TenantId};
pub use table::{address_hash, nth_addr_on_shard, shard_of_addr, DepTable, TableFull};
