//! The lifecycle event model: one [`Event`] per interesting transition
//! in a task's journey through the runtime.
//!
//! The twelve [`EventKind`]s mirror the stations of the Nexus++
//! pipeline the paper instruments — submission, dependence check,
//! capacity stall, readiness, scheduling (steal/park), execution, and
//! the kick-off (wake) path. Every event is stamped with the task tag
//! it concerns, the shard and worker involved (where meaningful), a
//! monotonic nanosecond timestamp, and a global sequence number that
//! totally orders causally-related events (see [`Event::seq`]).

/// Sentinel for "no task": events that concern a worker or shard but no
/// particular task (scheduler parks), and the `aux` field of events
/// that carry no causal edge.
pub const NO_TASK: u64 = u64::MAX;

/// Sentinel for "no shard": events outside the sharded dependence
/// tables (exec-phase and scheduler-layer events, parameterless tasks).
pub const NO_SHARD: u32 = u32::MAX;

/// Sentinel for "no worker": events emitted by a thread that never
/// registered as a worker (the submitting master thread).
pub(crate) const NO_WORKER: u32 = u32::MAX;

/// What happened. See the variant docs for who emits each kind and
/// what `task`/`aux` mean for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A task entered the runtime (`submit`/`spawn` accepted it).
    Submitted,
    /// The dependence check (engine admission) for a task began.
    DepCheckStart,
    /// The dependence check for a task completed (all its address
    /// groups are registered in their home shards).
    DepCheckDone,
    /// Someone blocked: a submitter parked on a full shard's capacity
    /// (`shard` is the full shard, `task` the stalled submission) or a
    /// worker parked out of work (`shard == NO_SHARD`, `task ==
    /// NO_TASK`).
    Stalled,
    /// The matching wake-up for a [`EventKind::Stalled`] episode.
    Resumed,
    /// A task's dependence count reached zero. `aux` is the tag of the
    /// finishing task whose completion released it, or [`NO_TASK`] if
    /// the task was ready at submission.
    Ready,
    /// A worker stole the task from another worker's queue.
    Stolen,
    /// A worker began executing the task's body.
    ExecStart,
    /// The task's body returned.
    ExecDone,
    /// The finisher whose completion made the task ready took its
    /// payload. `aux` is the finisher (waker) tag.
    WakePosted,
    /// The task was handed to that finisher's report (it is on its way
    /// to a ready queue).
    WakeDelivered,
    /// The task fully retired from the dependence tables (its last
    /// address group was released).
    Finished,
}

impl EventKind {
    /// Every kind, in lifecycle order.
    #[cfg(test)]
    pub(crate) const ALL: [EventKind; 12] = [
        EventKind::Submitted,
        EventKind::DepCheckStart,
        EventKind::DepCheckDone,
        EventKind::Stalled,
        EventKind::Resumed,
        EventKind::Ready,
        EventKind::Stolen,
        EventKind::ExecStart,
        EventKind::ExecDone,
        EventKind::WakePosted,
        EventKind::WakeDelivered,
        EventKind::Finished,
    ];

    /// Stable display name (used by the Chrome-trace export).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submitted => "Submitted",
            EventKind::DepCheckStart => "DepCheckStart",
            EventKind::DepCheckDone => "DepCheckDone",
            EventKind::Stalled => "Stalled",
            EventKind::Resumed => "Resumed",
            EventKind::Ready => "Ready",
            EventKind::Stolen => "Stolen",
            EventKind::ExecStart => "ExecStart",
            EventKind::ExecDone => "ExecDone",
            EventKind::WakePosted => "WakePosted",
            EventKind::WakeDelivered => "WakeDelivered",
            EventKind::Finished => "Finished",
        }
    }
}

/// One recorded lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number, allocated by one atomic fetch-add at
    /// emission. Because all emissions increment the same atomic, any
    /// two causally-ordered emissions (same thread, or linked by a
    /// release/acquire edge such as a lock hand-off, a queue push/pop,
    /// or the dependence-counter decrement chain) get strictly
    /// increasing `seq` values — so per-task lifecycle order can be
    /// asserted exactly, immune to timestamp granularity.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The task tag this event concerns, or [`NO_TASK`].
    pub task: u64,
    /// Kind-specific companion tag (the waker for [`EventKind::Ready`]
    /// and [`EventKind::WakePosted`]), or [`NO_TASK`].
    pub aux: u64,
    /// Home shard of the address group involved, or [`NO_SHARD`].
    pub shard: u32,
    /// Worker index of the emitting thread, or `u32::MAX` for a thread
    /// that registered none.
    pub worker: u32,
    /// Nanoseconds since the recorder's epoch (monotonic clock).
    pub ts_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_named() {
        for (i, a) in EventKind::ALL.iter().enumerate() {
            for b in &EventKind::ALL[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.name(), b.name());
            }
        }
        assert_eq!(EventKind::ALL.len(), 12);
    }
}
