//! # nexuspp-obs — runtime-wide observability
//!
//! The paper evaluates Nexus++ by watching every station of a task's
//! life — submission, dependence check, kick-off, execution, finish —
//! and this crate gives the reproduction the same view over its real
//! threaded runtimes, both post-mortem and *online*. It has four
//! parts:
//!
//! 1. **Lifecycle events** ([`Event`], [`EventKind`]): twelve
//!    transition kinds (`Submitted`, `DepCheckStart/Done`,
//!    `Stalled/Resumed`, `Ready`, `Stolen`, `ExecStart/ExecDone`,
//!    `WakePosted/WakeDelivered`, `Finished`), each stamped with task
//!    tag, shard, worker, a monotonic timestamp, and a global sequence
//!    number. The runtimes, the sharded dispatcher, and the scheduler
//!    all emit into one [`Recorder`]: per-lane bounded queues, each
//!    behind its own mutex, drained by a collector, with a
//!    [`Recorder::disabled`] path that returns before reading the clock
//!    so production runs pay one branch.
//! 2. **A [`MetricsRegistry`]**: the layers' existing counters
//!    (`SchedCounts`, `WakeCounts`, capacity stall/retry/stall-time)
//!    unified behind one [`MetricsSnapshot`] type.
//! 3. **One fold, and what reads it**: [`GraphTracker`] folds the
//!    stream into one record per task (state, home shard,
//!    [`TaskTimeline`]) and is the only per-task reader of events. Its
//!    [`snapshot`](GraphTracker::snapshot) carries the exact
//!    four-stage [`LatencyBreakdown`] (submit→ready→start→done→finish)
//!    and its [`critical_path`](GraphTracker::critical_path) follows
//!    the realized wake edges; the Chrome-trace JSON export
//!    ([`chrome_trace`]) for `chrome://tracing` reads its execution
//!    spans from the same records. [`timelines`] and
//!    [`latency_breakdown`] replay a drained batch through a fresh
//!    tracker.
//! 4. **Online introspection**: a background [`Collector`] thread —
//!    attached via the runtimes' `with_observer` constructors — is the
//!    one live reader of the lanes. It drains them *while producers
//!    still emit*, releases events in strict `seq` order through a
//!    watermark, and applies each one straight to the same fold
//!    (per-task state machine, wake edges, illegal-transition
//!    detector, stage quantiles); it also ticks a metrics [`Sampler`]
//!    (bounded time series of [`MetricsSnapshot`]s with rate derivation
//!    and JSONL export). [`render_dashboard`] turns a
//!    [`TrackerSnapshot`] into the `repro -- watch` text UI.
//!
//! Event flow:
//!
//! ```text
//!  submitter ──┐                         ┌── Recorder lane 0
//!  worker 0 ───┤  emit(): lock lane      ├── Recorder lane 1
//!  worker 1 ───┤  + seq.fetch_add        ├── …
//!  …           │  + push_back            │
//!              └── (full lane: dropped++)┘
//!        offline: drain() at quiescence (seq-sorted) → GraphTracker → export
//!        online:  Collector thread: drain() → seq watermark → GraphTracker
//!                                   + Sampler tick
//! ```
//!
//! The accounting invariant the wraparound tests hold the lanes to:
//! `recorded() + dropped()` equals the number of `emit` calls, always —
//! and because `seq` is allocated under the lane lock, only when the
//! lane has room, the published sequence space is dense, so the collector can release
//! in strict `seq` order without stalling on gaps that will never fill.
//! The differential tests in `nexuspp-runtime` go further: at
//! quiescence, event-derived totals must equal every legacy counter
//! (`obs_differential.rs`), and the live tracker must apply every
//! recorded event while a quiescent drain folds to the same state
//! whether it arrives whole or in chunks (`stream_differential.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analyze;
mod collector;
mod event;
mod export;
mod recorder;
mod registry;
mod ring;
mod sampler;
mod sync;
mod tracker;
mod watch;

pub use analyze::{
    latency_breakdown, timelines, LatencyBreakdown, LatencyStats, ObservedCriticalPath,
    TaskTimeline,
};
pub use collector::{Collector, CollectorReport, StreamStats};
pub use event::{Event, EventKind, NO_SHARD, NO_TASK};
pub use export::{chrome_trace, validate_json};
pub use recorder::Recorder;
pub use registry::{Counter, CounterGroup, MetricsGroup, MetricsRegistry, MetricsSnapshot};
pub use sampler::{SampledSnapshot, Sampler};
pub use tracker::{GraphTracker, TaskState, TrackerSnapshot, Violation};
pub use watch::render_dashboard;
