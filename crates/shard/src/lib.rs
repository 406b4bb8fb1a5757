//! # nexuspp-shard — sharded dependency resolution
//!
//! The paper's Nexus++ resolves every dependency through a single Task
//! Pool + Dependence Table, and both of this reproduction's backends
//! inherited that centralization: the cycle-level Task Machine and the
//! threaded runtime serialize every admit/check/finish through one
//! [`DependencyEngine`](nexuspp_core::DependencyEngine) behind one lock.
//! This crate breaks that bottleneck while preserving exactly the paper's
//! readiness semantics:
//!
//! * `protocol` (crate-private, `crates/shard/src/protocol.rs`) — the
//!   sharded protocol, written once: `route` splits a task's parameters
//!   into per-shard slices by address hash (the same SplitMix64 family
//!   the Dependence Table buckets with, via
//!   [`shard_of_addr`](nexuspp_core::shard_of_addr)); `Residency`
//!   reserves one slot per involved shard, all or nothing, under a
//!   bounded [`ShardCapacity`](nexuspp_core::ShardCapacity); `Slices` is
//!   one shard's engine plus its sub-descriptor → home-record map; and
//!   `Remote` is the per-task remote dependence counter (one unit per
//!   slice plus a submission guard) whose zero transition makes the task
//!   ready exactly once. `Home` holds that counter in a reusable slot
//!   with a generation, and its `release` is the one check that rejects
//!   a reference taken before the slot was freed. A task is ready exactly when every shard slice
//!   is — which, because distinct addresses impose independent
//!   constraints, is exactly the single engine's (and the oracle's)
//!   readiness predicate.
//! * [`engine`] — [`ShardedEngine`]: the single-threaded driver, with
//!   reusable task slots and per-shard operation costs for the timing
//!   models. Verified differentially in `tests/sharded_differential.rs`.
//!   (Batching — the paper's buffered TP writes — is modeled where it is
//!   timed, in `nexuspp_taskmachine::multimaestro`'s `flush_batch`, not
//!   here.)
//! * [`dispatch`] — [`ShardDispatcher`]: the threaded driver. Each shard
//!   sits behind its own lock; finishing a task locks each involved
//!   shard once to release its slice, and wake delivery runs after the
//!   lock is dropped: the finisher releases each woken task's remote
//!   counter and hands the ones that reach zero straight to its own
//!   finish report. A task's home record is the slab slot of its home
//!   slice's Task Pool index, occupied and vacated under locks the path
//!   holds anyway, and a [`TaskTicket`] names it by `(shard, slot,
//!   generation)`, so a task costs the dispatcher no heap block. This is what `Runtime` in
//!   `nexuspp-runtime` executes on.
//! * [`budget`] — [`TenantBudgets`]: per-tenant in-flight admission caps
//!   layered above [`ShardCapacity`](nexuspp_core::ShardCapacity), the
//!   accounting a multi-tenant ingress (`nexuspp-service`) meters
//!   clients with. Denials are retryable client-side signals, never
//!   parks.
//! * [`stress`] — the wake-stress harness: the wide fan-in workload
//!   (many finishers releasing dependents homed on one shard) driven
//!   straight through a [`ShardDispatcher`] by real threads, shared by
//!   the `repro -- wakes` experiment and the recording-overhead gate.
//!
//! Related work motivating the direction: Álvarez et al., *Advanced
//! Synchronization Techniques for Task-based Runtime Systems*
//! (arXiv:2105.07902) — scalable, lock-minimizing dependency management as
//! the decisive runtime lever — and Niethammer et al., *Avoiding
//! Serialization Effects in Data-Dependency aware Task Parallel
//! Algorithms* (arXiv:1401.4441) — centralized dependency handling
//! serializes otherwise-parallel workloads.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod budget;
pub mod dispatch;
pub mod engine;
mod protocol;
pub mod stress;

pub use budget::{BudgetError, BudgetLane, TenantBudgets, TenantCounts};
pub use dispatch::{
    CapacityCounts, FinishReport, ShardDispatcher, SubmitResult, TaskTicket, WakeCounts, WakeMode,
};
pub use engine::{OpBreakdown, ShardedEngine, ShardedFinish, TaskId};
