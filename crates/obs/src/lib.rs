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
//!    all emit into one [`Recorder`]: per-lane lock-free bounded rings
//!    (claim-by-CAS, publish-by-sequence-store)
//!    drained by a collector, with a [`Recorder::disabled`] path that
//!    returns before reading the clock so production runs pay one
//!    branch.
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
//! 4. **Online introspection**: an [`EventStream`] with cursor-based
//!    [`Subscriber`]s drains the rings *while producers still emit*
//!    (seq-ordered release, per-subscriber lag attribution); a
//!    background [`Collector`] thread — attached via the runtimes'
//!    `with_observer` constructors — feeds the same fold live (per-task
//!    state machine, wake edges, illegal-transition detector, stage
//!    quantiles) and a metrics [`Sampler`] (bounded time series of
//!    [`MetricsSnapshot`]s with rate derivation and JSONL export);
//!    [`render_dashboard`] turns a [`TrackerSnapshot`] into the
//!    `repro -- watch` text UI.
//!
//! Event flow:
//!
//! ```text
//!  submitter ──┐                         ┌── Recorder lane 0 (ring)
//!  worker 0 ───┤  emit(): CAS-claim slot ├── Recorder lane 1 (ring)
//!  worker 1 ───┤  + seq.fetch_add        ├── …
//!  …           │  + release-publish      │
//!              └── (full ring: dropped++)┘
//!        offline: drain() at quiescence (seq-sorted) → GraphTracker → export
//!        online:  EventStream::pump() → seq watermark → Subscribers
//!                 └─ Collector thread → GraphTracker + Sampler
//! ```
//!
//! The accounting invariant the wraparound tests hold the rings to:
//! `recorded() + dropped()` equals the number of `emit` calls, always —
//! and because `seq` is allocated only *after* a slot claim succeeds,
//! the published sequence space is dense, so the stream can release in
//! strict `seq` order without stalling on gaps that will never fill.
//! The differential tests in `nexuspp-runtime` go further: at
//! quiescence, event-derived totals must equal every legacy counter
//! (`obs_differential.rs`), and the live tracker's final state must
//! equal a quiescent replay of the same stream
//! (`stream_differential.rs`).

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod analyze;
mod collector;
mod event;
mod export;
mod recorder;
mod registry;
mod ring;
mod sampler;
mod stream;
mod sync;
mod tracker;
mod watch;

pub use analyze::{
    latency_breakdown, timelines, LatencyBreakdown, LatencyStats, ObservedCriticalPath,
    TaskTimeline,
};
pub use collector::{Collector, CollectorConfig, CollectorReport};
pub use event::{Event, EventKind, NO_SHARD, NO_TASK, NO_WORKER};
pub use export::{chrome_trace, validate_json};
pub use recorder::{Recorder, DEFAULT_LANE_CAPACITY};
pub use registry::{Counter, CounterGroup, MetricsGroup, MetricsRegistry, MetricsSnapshot};
pub use sampler::{jsonl_line, SampledSnapshot, Sampler};
pub use stream::{EventStream, StreamStats, Subscriber, DEFAULT_HISTORY};
pub use tracker::{GraphTracker, TaskState, TrackerSnapshot, Violation, MAX_KEPT_VIOLATIONS};
pub use watch::{fmt_ns, render_dashboard};
