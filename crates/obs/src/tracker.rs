//! The live task-graph tracker: a queryable state machine fed by the
//! event stream.
//!
//! TEMANEJO-style introspection (arXiv:1112.4604) watches a StarSs run
//! as a graph whose nodes change color while the run is in flight.
//! [`GraphTracker`] is that view for this runtime: it consumes
//! lifecycle events *online* (from the background
//! [`Collector`](crate::Collector), in strict `seq` order) or a drained
//! batch *post-mortem*, and it is the crate's one fold of the stream:
//! every per-task reader
//! ([`timelines`](crate::timelines), [`chrome_trace`](crate::chrome_trace),
//! [`critical_path`](GraphTracker::critical_path)) reads its records.
//! Each record is the task's current [`TaskState`], its home shard and
//! its [`TaskTimeline`]. Incrementally it maintains:
//!
//! - the live population count per state,
//! - per-shard in-flight and per-worker running counts,
//! - an **illegal-transition detector**: the per-task emission order
//!   the differential tests assert offline becomes a runtime
//!   invariant checked on every event.
//!
//! [`snapshot`](GraphTracker::snapshot) derives the rest from the
//! records: the realized wake edges `(waker, woken)` and the exact
//! four-stage latency breakdown (submit→ready, ready→start,
//! start→done, done→finish).
//!
//! The transition table mirrors the emission sites exactly. `Stalled`
//! covers both blocking flavors — a capacity park before the
//! dependence check (leaves via `Resumed`) and the wait for
//! dependences after `DepCheckDone` (leaves via `Ready`); instantly
//! ready tasks pass through it in the same event. `Stalled`/`Resumed`
//! events with `task == NO_TASK` are idle *worker* parks and feed the
//! idle-worker gauge instead of any task's state.
//!
//! ```text
//!  Submitted ──DepCheckStart──► Checking ──DepCheckDone──► Stalled
//!    ▲  │Stalled(capacity)                                   │Ready
//!    │  ▼                                                    ▼
//!    └─Stalled ◄──Resumed                                  Ready ⟲ WakePosted /
//!                                                            │      WakeDelivered /
//!                                                  ExecStart │      Stolen
//!                                                            ▼
//!                              Finished ◄──Finished── Retiring ◄──ExecDone── Running
//! ```
//!
//! A violation (an event whose kind is not legal from the task's
//! current state) is counted, the first few are kept with context,
//! and the task is *resynced* to the event's natural destination
//! state so one anomaly doesn't cascade into a violation per
//! subsequent event. Note that ring drops manufacture apparent
//! violations (the tracker can't see an event that was never
//! recorded) — check [`Recorder::dropped`](crate::Recorder::dropped)
//! before reading violations as runtime bugs.

use crate::analyze::{breakdown, LatencyBreakdown, ObservedCriticalPath, TaskTimeline};
use crate::event::{Event, EventKind, NO_TASK, NO_WORKER};
use std::collections::{BTreeMap, HashMap};

/// Where a task currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskState {
    /// Accepted by the runtime; dependence check not started.
    Submitted,
    /// Dependence check in progress.
    Checking,
    /// Blocked: parked on shard capacity, or waiting for dependences.
    Stalled,
    /// Dependences satisfied; queued (or being woken/stolen).
    Ready,
    /// A worker is executing the body.
    Running,
    /// Body returned; dependence tables not yet updated.
    Retiring,
    /// Fully retired.
    Finished,
}

impl TaskState {
    /// Every state, in lifecycle order.
    pub(crate) const ALL: [TaskState; 7] = [
        TaskState::Submitted,
        TaskState::Checking,
        TaskState::Stalled,
        TaskState::Ready,
        TaskState::Running,
        TaskState::Retiring,
        TaskState::Finished,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            TaskState::Submitted => "Submitted",
            TaskState::Checking => "Checking",
            TaskState::Stalled => "Stalled",
            TaskState::Ready => "Ready",
            TaskState::Running => "Running",
            TaskState::Retiring => "Retiring",
            TaskState::Finished => "Finished",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One illegal transition the tracker observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Sequence number of the offending event.
    pub seq: u64,
    /// The task involved.
    pub task: u64,
    /// The event kind that was not legal.
    pub kind: EventKind,
    /// The state the task was in (`None` = never seen before).
    pub from: Option<TaskState>,
}

/// How many violations are kept with full context (the count in
/// [`TrackerSnapshot::violations`] is never capped).
pub(crate) const MAX_KEPT_VIOLATIONS: usize = 32;

/// One task's record. A timestamp its event never delivered (dropped,
/// or the tracker attached mid-run) stays `None`, and the stages that
/// need it skip the task rather than measure from a bogus origin.
#[derive(Debug, Clone, Copy)]
struct TaskRecord {
    state: TaskState,
    /// The shard of the task's first event: it owns the task's
    /// in-flight accounting until the task finishes.
    shard: u32,
    tl: TaskTimeline,
}

/// A point-in-time copy of the tracker's aggregates, safe to render
/// while the collector keeps applying events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackerSnapshot {
    /// Events applied so far.
    pub events_applied: u64,
    /// Distinct tasks seen.
    pub tasks_seen: u64,
    /// Live population per state, indexed in [`TaskState`]'s
    /// declaration order.
    pub state_counts: [u64; 7],
    /// Realized wake edges discovered so far.
    pub edges: u64,
    /// Total illegal transitions observed.
    pub violations: u64,
    /// Workers currently parked idle.
    pub idle_parked: u64,
    /// Total idle park episodes.
    pub idle_park_episodes: u64,
    /// `(shard, tasks in flight)` for every shard seen (the
    /// [`NO_SHARD`](crate::NO_SHARD) row aggregates shardless events).
    pub per_shard_inflight: Vec<(u32, u64)>,
    /// `(worker, tasks running)` for every worker seen executing.
    pub per_worker_running: Vec<(u32, u64)>,
    /// The four stage latencies, exact, over every task seen.
    pub stages: LatencyBreakdown,
}

impl TrackerSnapshot {
    /// Live population of one state.
    pub fn count(&self, s: TaskState) -> u64 {
        self.state_counts[s.index()]
    }

    /// Tasks in intermediate states (submitted but not finished).
    pub fn in_flight(&self) -> u64 {
        self.tasks_seen - self.count(TaskState::Finished)
    }
}

/// The live task-graph state machine. See the module docs for the
/// transition table.
#[derive(Default)]
pub struct GraphTracker {
    tasks: BTreeMap<u64, TaskRecord>,
    state_counts: [u64; 7],
    violations: u64,
    kept_violations: Vec<Violation>,
    idle_parked: u64,
    idle_park_episodes: u64,
    per_shard_inflight: BTreeMap<u32, u64>,
    per_worker_running: BTreeMap<u32, u64>,
    events_applied: u64,
}

impl std::fmt::Debug for GraphTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphTracker")
            .field("tasks", &self.tasks.len())
            .field("events_applied", &self.events_applied)
            .field("violations", &self.violations)
            .finish()
    }
}

/// The destination state for a legal application of `kind` — also the
/// resync target after a violation.
fn destination(kind: EventKind) -> TaskState {
    match kind {
        EventKind::Submitted | EventKind::Resumed => TaskState::Submitted,
        EventKind::DepCheckStart => TaskState::Checking,
        EventKind::DepCheckDone | EventKind::Stalled => TaskState::Stalled,
        EventKind::Ready | EventKind::WakePosted | EventKind::WakeDelivered | EventKind::Stolen => {
            TaskState::Ready
        }
        EventKind::ExecStart => TaskState::Running,
        EventKind::ExecDone => TaskState::Retiring,
        EventKind::Finished => TaskState::Finished,
    }
}

/// Is `kind` legal from `from`? (`None` = task never seen.)
fn legal(from: Option<TaskState>, kind: EventKind) -> bool {
    use EventKind as K;
    use TaskState as S;
    matches!(
        (from, kind),
        (None, K::Submitted)
            | (Some(S::Submitted), K::Stalled | K::DepCheckStart)
            | (Some(S::Stalled), K::Resumed | K::Ready)
            | (Some(S::Checking), K::DepCheckDone)
            | (
                Some(S::Ready),
                K::WakePosted | K::WakeDelivered | K::Stolen | K::ExecStart
            )
            | (Some(S::Running), K::ExecDone)
            | (Some(S::Retiring), K::Finished)
    )
}

impl GraphTracker {
    /// An empty tracker.
    pub fn new() -> GraphTracker {
        GraphTracker::default()
    }

    /// Apply one event.
    pub fn apply(&mut self, e: &Event) {
        self.events_applied += 1;
        if e.task == NO_TASK {
            // Idle worker parks (and any other taskless events).
            match e.kind {
                EventKind::Stalled => {
                    self.idle_parked += 1;
                    self.idle_park_episodes += 1;
                }
                EventKind::Resumed => self.idle_parked = self.idle_parked.saturating_sub(1),
                _ => {}
            }
            return;
        }
        let prev = self.tasks.get(&e.task).map(|r| r.state);
        if !legal(prev, e.kind) {
            self.violations += 1;
            if self.kept_violations.len() < MAX_KEPT_VIOLATIONS {
                self.kept_violations.push(Violation {
                    seq: e.seq,
                    task: e.task,
                    kind: e.kind,
                    from: prev,
                });
            }
        }
        let dest = destination(e.kind);
        match prev {
            Some(s) => self.state_counts[s.index()] -= 1,
            None => *self.per_shard_inflight.entry(e.shard).or_insert(0) += 1,
        }
        self.state_counts[dest.index()] += 1;
        let r = self.tasks.entry(e.task).or_insert(TaskRecord {
            state: dest,
            shard: e.shard,
            tl: TaskTimeline {
                submitted: None,
                ready: None,
                exec_start: None,
                exec_done: None,
                finished: None,
                worker: NO_WORKER,
                waker: None,
            },
        });
        r.state = dest;
        let ts = Some(e.ts_ns);
        match e.kind {
            EventKind::Submitted => r.tl.submitted = ts,
            EventKind::Ready => {
                r.tl.ready = ts;
                if e.aux != NO_TASK {
                    r.tl.waker = Some(e.aux);
                }
            }
            EventKind::ExecStart => {
                r.tl.exec_start = ts;
                if e.worker != NO_WORKER {
                    r.tl.worker = e.worker;
                    *self.per_worker_running.entry(e.worker).or_insert(0) += 1;
                }
            }
            EventKind::ExecDone => {
                r.tl.exec_done = ts;
                if let Some(c) = self.per_worker_running.get_mut(&r.tl.worker) {
                    *c = c.saturating_sub(1);
                }
            }
            EventKind::Finished => {
                r.tl.finished = ts;
                if let Some(c) = self.per_shard_inflight.get_mut(&r.shard) {
                    *c = c.saturating_sub(1);
                }
            }
            _ => {}
        }
    }

    /// Apply a batch (a [`Recorder::drain`](crate::Recorder::drain)
    /// result, or a slice of one).
    pub fn apply_batch(&mut self, events: &[Event]) {
        for e in events {
            self.apply(e);
        }
    }

    /// The current state of one task, if it has been seen.
    #[cfg(test)]
    pub(crate) fn state_of(&self, task: u64) -> Option<TaskState> {
        self.tasks.get(&task).map(|t| t.state)
    }

    /// Live population of one state.
    pub fn count(&self, s: TaskState) -> u64 {
        self.state_counts[s.index()]
    }

    /// The realized wake edges discovered so far, `(waker, woken)`, in
    /// woken-task order: one per task whose `Ready` named a waker.
    pub fn edges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.tasks
            .iter()
            .filter_map(|(&task, r)| Some((r.tl.waker?, task)))
    }

    /// Every task's timeline, in task order.
    pub(crate) fn timelines(&self) -> impl Iterator<Item = (&u64, &TaskTimeline)> + Clone {
        self.tasks.iter().map(|(task, r)| (task, &r.tl))
    }

    /// The longest realized wake chain over the tasks seen `Ready`: a
    /// task is one deeper than the waker that released it, and depth 1
    /// when it had no waker or its waker was never seen `Ready`. Ties
    /// go to the smallest task tag.
    pub fn critical_path(&self) -> ObservedCriticalPath {
        let seen_ready = |t: &u64| self.tasks.get(t).is_some_and(|r| r.tl.ready.is_some());
        let waker = |t: u64| self.tasks.get(&t)?.tl.waker.filter(seen_ready);
        // Each task has at most one waker, so the edges form a forest:
        // walk each chain to its root iteratively (chains can be
        // thousands deep), then unwind assigning depths. Nodes on the
        // current walk hold depth 0, so a malformed stream's cyclic
        // edge is cut there rather than looped on.
        let mut depth: HashMap<u64, usize> = HashMap::new();
        for &start in self.tasks.keys().filter(|t| seen_ready(t)) {
            let mut path = Vec::new();
            let mut cur = Some(start);
            let mut base = 0;
            while let Some(t) = cur {
                if let Some(&d) = depth.get(&t) {
                    base = d;
                    break;
                }
                depth.insert(t, 0);
                path.push(t);
                cur = waker(t);
            }
            for t in path.into_iter().rev() {
                base += 1;
                depth.insert(t, base);
            }
        }
        let Some((&deepest, &length)) = depth
            .iter()
            .max_by_key(|&(t, d)| (*d, std::cmp::Reverse(*t)))
        else {
            return ObservedCriticalPath::default();
        };
        let mut chain = vec![deepest];
        while chain.len() < length {
            let Some(w) = waker(chain[chain.len() - 1]) else {
                break;
            };
            chain.push(w);
        }
        chain.reverse();
        ObservedCriticalPath { length, chain }
    }

    /// Total illegal transitions observed.
    #[cfg(test)]
    pub(crate) fn violation_count(&self) -> u64 {
        self.violations
    }

    /// The first 32 violations, with context.
    pub fn violations(&self) -> &[Violation] {
        &self.kept_violations
    }

    /// A copy of every aggregate for rendering; the stage latencies
    /// are derived from the task records on each call.
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            events_applied: self.events_applied,
            tasks_seen: self.tasks.len() as u64,
            state_counts: self.state_counts,
            edges: self.edges().count() as u64,
            violations: self.violations,
            idle_parked: self.idle_parked,
            idle_park_episodes: self.idle_park_episodes,
            per_shard_inflight: self
                .per_shard_inflight
                .iter()
                .map(|(&s, &c)| (s, c))
                .collect(),
            per_worker_running: self
                .per_worker_running
                .iter()
                .map(|(&w, &c)| (w, c))
                .collect(),
            stages: breakdown(self.tasks.values().map(|r| &r.tl)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_SHARD;

    fn ev(seq: u64, kind: EventKind, task: u64, aux: u64, ts_ns: u64) -> Event {
        Event {
            seq,
            kind,
            task,
            aux,
            shard: 0,
            worker: 1,
            ts_ns,
        }
    }

    fn full_life(task: u64, waker: u64, base: u64) -> Vec<Event> {
        vec![
            ev(base, EventKind::Submitted, task, NO_TASK, base * 10),
            ev(base + 1, EventKind::DepCheckStart, task, NO_TASK, 0),
            ev(base + 2, EventKind::DepCheckDone, task, NO_TASK, 0),
            ev(base + 3, EventKind::Ready, task, waker, base * 10 + 5),
            ev(base + 4, EventKind::ExecStart, task, NO_TASK, base * 10 + 9),
            ev(base + 5, EventKind::ExecDone, task, NO_TASK, base * 10 + 29),
            ev(base + 6, EventKind::Finished, task, NO_TASK, base * 10 + 30),
        ]
    }

    #[test]
    fn clean_lifecycle_has_no_violations() {
        let mut t = GraphTracker::new();
        t.apply_batch(&full_life(1, NO_TASK, 0));
        t.apply_batch(&full_life(2, 1, 100));
        assert_eq!(t.violation_count(), 0);
        assert_eq!(t.count(TaskState::Finished), 2);
        assert_eq!(t.state_of(1), Some(TaskState::Finished));
        assert_eq!(t.edges().collect::<Vec<_>>(), vec![(1, 2)]);
        let s = t.snapshot();
        assert_eq!(s.tasks_seen, 2);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.stages.start_to_done.count, 2);
        assert_eq!(s.stages.start_to_done.max_ns, 20);
    }

    #[test]
    fn intermediate_states_are_live() {
        let mut t = GraphTracker::new();
        let life = full_life(7, NO_TASK, 0);
        t.apply_batch(&life[..5]); // through ExecStart
        assert_eq!(t.state_of(7), Some(TaskState::Running));
        assert_eq!(t.count(TaskState::Running), 1);
        assert_eq!(t.snapshot().in_flight(), 1);
        t.apply_batch(&life[5..]);
        assert_eq!(t.count(TaskState::Running), 0);
        assert_eq!(t.count(TaskState::Finished), 1);
    }

    #[test]
    fn capacity_stall_round_trips() {
        let mut t = GraphTracker::new();
        t.apply(&ev(0, EventKind::Submitted, 1, NO_TASK, 0));
        t.apply(&ev(1, EventKind::Stalled, 1, NO_TASK, 5));
        assert_eq!(t.state_of(1), Some(TaskState::Stalled));
        t.apply(&ev(2, EventKind::Resumed, 1, NO_TASK, 9));
        assert_eq!(t.state_of(1), Some(TaskState::Submitted));
        assert_eq!(t.violation_count(), 0);
    }

    #[test]
    fn wake_and_steal_keep_ready() {
        let mut t = GraphTracker::new();
        t.apply(&ev(0, EventKind::Submitted, 1, NO_TASK, 0));
        t.apply(&ev(1, EventKind::DepCheckStart, 1, NO_TASK, 0));
        t.apply(&ev(2, EventKind::DepCheckDone, 1, NO_TASK, 0));
        t.apply(&ev(3, EventKind::Ready, 1, 9, 0));
        t.apply(&ev(4, EventKind::WakePosted, 1, 9, 0));
        t.apply(&ev(5, EventKind::WakeDelivered, 1, NO_TASK, 0));
        t.apply(&ev(6, EventKind::Stolen, 1, NO_TASK, 0));
        assert_eq!(t.state_of(1), Some(TaskState::Ready));
        assert_eq!(t.violation_count(), 0);
        assert!(t.edges().eq([(9, 1)]));
    }

    #[test]
    fn illegal_transition_is_detected_and_resynced() {
        let mut t = GraphTracker::new();
        // ExecStart with no prior history: illegal, then resynced.
        t.apply(&ev(0, EventKind::ExecStart, 5, NO_TASK, 0));
        assert_eq!(t.violation_count(), 1);
        assert_eq!(t.state_of(5), Some(TaskState::Running));
        let v = t.violations()[0];
        assert_eq!(v.task, 5);
        assert_eq!(v.kind, EventKind::ExecStart);
        assert_eq!(v.from, None);
        // After resync the rest of the life is legal again.
        t.apply(&ev(1, EventKind::ExecDone, 5, NO_TASK, 0));
        t.apply(&ev(2, EventKind::Finished, 5, NO_TASK, 0));
        assert_eq!(t.violation_count(), 1);
    }

    #[test]
    fn idle_parks_feed_the_worker_gauge_not_tasks() {
        let mut t = GraphTracker::new();
        let park = Event {
            seq: 0,
            kind: EventKind::Stalled,
            task: NO_TASK,
            aux: NO_TASK,
            shard: NO_SHARD,
            worker: 3,
            ts_ns: 0,
        };
        t.apply(&park);
        assert_eq!(t.snapshot().idle_parked, 1);
        assert_eq!(t.snapshot().tasks_seen, 0);
        let resume = Event {
            kind: EventKind::Resumed,
            seq: 1,
            ..park
        };
        t.apply(&resume);
        assert_eq!(t.snapshot().idle_parked, 0);
        assert_eq!(t.snapshot().idle_park_episodes, 1);
        assert_eq!(t.violation_count(), 0);
    }

    #[test]
    fn per_worker_and_per_shard_gauges_track_live_population() {
        let mut t = GraphTracker::new();
        t.apply(&ev(0, EventKind::Submitted, 1, NO_TASK, 0));
        t.apply(&ev(1, EventKind::DepCheckStart, 1, NO_TASK, 0));
        t.apply(&ev(2, EventKind::DepCheckDone, 1, NO_TASK, 0));
        t.apply(&ev(3, EventKind::Ready, 1, NO_TASK, 0));
        t.apply(&ev(4, EventKind::ExecStart, 1, NO_TASK, 0));
        let s = t.snapshot();
        assert_eq!(s.per_shard_inflight, vec![(0, 1)]);
        assert_eq!(s.per_worker_running, vec![(1, 1)]);
        t.apply(&ev(5, EventKind::ExecDone, 1, NO_TASK, 0));
        t.apply(&ev(6, EventKind::Finished, 1, NO_TASK, 0));
        let s = t.snapshot();
        assert_eq!(s.per_shard_inflight, vec![(0, 0)]);
        assert_eq!(s.per_worker_running, vec![(1, 0)]);
    }
}
