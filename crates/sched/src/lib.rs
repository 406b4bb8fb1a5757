//! # nexuspp-sched — the ready-task scheduling layer
//!
//! Every task the dependency layer declares ready travels through this
//! crate to a worker thread: a work-stealing scheduler in the style
//! task-based runtimes converged on once resolution stopped being the
//! bottleneck (Álvarez et al., *Advanced Synchronization Techniques for
//! Task-based Runtime Systems*, arXiv:2105.07902; the Nanos6/CppSs
//! lineage of StarSs). Per-worker local queues (LIFO owner pop, FIFO
//! steal), a global injector for spawns and a global high-priority
//! queue — every one a locked `VecDeque`, as the Task Maestro's ready
//! queue is one plain FIFO — and parking so idle workers hold no CPU. A
//! worker that wakes dependent tasks keeps them local; idle workers
//! steal oldest-first.
//!
//! Workers interact through a per-thread [`WorkerHandle`]; spawning
//! threads use [`Scheduler::submit`]. Wakes produced by a finish report
//! are delivered with [`Scheduler::wake_batch`] — one scheduling
//! operation for the whole report.
//!
//! ```
//! use nexuspp_core::Priority;
//! use nexuspp_sched::{Scheduler, SchedulerKind};
//!
//! let (sched, handles) = Scheduler::<u64>::new(SchedulerKind::default(), 2);
//! let sched = std::sync::Arc::new(sched);
//! let workers: Vec<_> = handles
//!     .into_iter()
//!     .map(|h| {
//!         let sched = std::sync::Arc::clone(&sched);
//!         std::thread::spawn(move || {
//!             let mut sum = 0u64;
//!             while let Some(v) = sched.next(&h) {
//!                 sum += v;
//!             }
//!             sum
//!         })
//!     })
//!     .collect();
//! for v in 1..=10u64 {
//!     sched.submit(v, Priority::Normal);
//! }
//! // Workers drain the queue; shut down once everything was dispatched.
//! while sched.counts().dispatched() < 10 {
//!     std::thread::yield_now();
//! }
//! sched.shutdown();
//! let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
//! assert_eq!(total, 55);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod metrics;
mod queue;
pub mod stress;
mod work_steal;

pub use metrics::SchedCounts;
pub use nexuspp_core::Priority;
pub use work_steal::{Scheduler, WorkerHandle};

/// Kept only because `crates/bench/src/bin/e2e/` passes
/// `SchedulerKind::default()` to [`Scheduler::new`]; there is one
/// scheduler and the value selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Per-worker work-stealing queues with a locked FIFO injector.
    #[default]
    WorkStealing,
}
