//! The work-stealing scheduler: per-worker locked queues, two locked
//! global FIFOs, and parking for idle workers.
//!
//! Scheduling policy (the classic work-first discipline):
//!
//! 1. the global **high-priority** queue — StarSs `highpriority` tasks
//!    overtake everything, whichever worker they land on,
//! 2. the worker's **own queue**, newest-first (LIFO) — a worker that
//!    wakes a chain of dependent tasks keeps executing that chain with
//!    hot caches,
//! 3. the global **injector**, oldest-first — externally spawned tasks,
//! 4. **stealing** from sibling queues, oldest-first (FIFO) — idle
//!    workers take the *least* recently produced work, which in fan-out
//!    workloads is the root of the largest remaining subtree.
//!
//! Every queue is the one [`Queue`] type of `queue.rs`: a worker's own
//! queue is popped at the back by its owner and at the front by thieves.
//!
//! A worker that completes the sweep empty-handed parks on the
//! scheduler's one [`EventCount`], rechecking with the same sweep.
//! Producers publish work and then `notify_one`, so either the recheck
//! sees the work or the notify sees the worker counted in and wakes a
//! parked one — a wake can be spurious but never lost. A queue stores
//! its length under its lock, before the pusher's `notify_one` fence,
//! and the recheck reads that length without the lock.

use crate::metrics::{SchedCounts, SchedMetrics};
use crate::queue::Queue;
use crate::SchedulerKind;
use nexuspp_core::{EventCount, Priority};
use nexuspp_obs::{EventKind, Recorder, NO_SHARD, NO_TASK};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Per-worker-thread scheduler endpoint. Created by [`Scheduler::new`]
/// and moved into the worker thread; identifies the worker whose local
/// queue it pops.
pub struct WorkerHandle {
    id: usize,
}

impl WorkerHandle {
    /// This worker's index in `0..n_workers`.
    pub fn id(&self) -> usize {
        self.id
    }
}

/// Lifecycle-event hook attached by [`Scheduler::set_recorder`]: the
/// recorder plus a projection from the scheduled item to its task tag,
/// so steal events name the task that moved.
struct SchedObs<T> {
    rec: Arc<Recorder>,
    tag_of: fn(&T) -> u64,
}

/// A ready-task scheduler shared by `n` workers (plus any number of
/// submitting threads).
pub struct Scheduler<T> {
    /// Global high-priority queue, checked before any normal source.
    high: Queue<T>,
    /// Global entry point for externally submitted normal tasks.
    injector: Queue<T>,
    /// Every worker's local queue, indexed by worker id.
    locals: Box<[Queue<T>]>,
    /// Where idle workers park; notified once per published task.
    idle: EventCount,
    shutdown: AtomicBool,
    metrics: SchedMetrics,
    obs: Option<SchedObs<T>>,
}

impl<T: Send> Scheduler<T> {
    /// Build a scheduler and one [`WorkerHandle`] per worker. Handle `i`
    /// belongs to worker `i`; each must be moved into exactly one thread.
    /// `_kind` is accepted and ignored (see [`SchedulerKind`]).
    ///
    /// `n_workers == 0` is allowed: no handles are produced and nothing
    /// ever calls [`next`](Self::next) — every queued task must then be
    /// drained through [`try_next_external`](Self::try_next_external)
    /// (the scheduler-aware-waiter configuration).
    pub fn new(_kind: SchedulerKind, n_workers: usize) -> (Self, Vec<WorkerHandle>) {
        let handles = (0..n_workers).map(|id| WorkerHandle { id }).collect();
        let sched = Scheduler {
            high: Queue::new(),
            injector: Queue::new(),
            locals: (0..n_workers).map(|_| Queue::new()).collect(),
            idle: EventCount::new(),
            shutdown: AtomicBool::new(false),
            metrics: SchedMetrics::default(),
            obs: None,
        };
        (sched, handles)
    }

    /// Attach a lifecycle-event recorder. `tag_of` projects a scheduled
    /// item to its task tag so `Stolen` events name the task that moved
    /// between workers. `Stalled`/`Resumed` are emitted around each idle
    /// park (with no task or shard attached — see
    /// [`nexuspp_obs::EventKind::Stalled`]).
    pub fn set_recorder(&mut self, rec: Arc<Recorder>, tag_of: fn(&T) -> u64) {
        self.obs = Some(SchedObs { rec, tag_of });
    }

    /// Hand a ready task to the workers from outside worker context
    /// (task spawns, wait-on probes).
    pub fn submit(&self, item: T, prio: Priority) {
        SchedMetrics::bump(&self.metrics.submitted);
        self.push_external(item, prio);
    }

    /// Deliver one wake from worker `h` (a task it completed released
    /// `item`): normal wakes stay on the worker's own queue (work-first),
    /// high-priority wakes go global so any worker picks them up next.
    /// Prefer [`wake_batch`](Self::wake_batch) for whole finish reports.
    pub fn wake(&self, h: &WorkerHandle, item: T, prio: Priority) {
        if prio.is_high() {
            self.high.push(item);
        } else {
            self.locals[h.id].push(item);
            SchedMetrics::bump(&self.metrics.local_pushes);
        }
        self.maybe_unpark();
    }

    /// Deliver a whole finish report's wakes in one scheduling operation:
    /// a run of local queue pushes with at most one unpark per item. A
    /// non-empty batch counts one `wake_batches`; an empty one counts
    /// nothing.
    pub fn wake_batch(&self, h: &WorkerHandle, items: impl IntoIterator<Item = (T, Priority)>) {
        let mut items = items.into_iter().peekable();
        if items.peek().is_some() {
            SchedMetrics::bump(&self.metrics.wake_batches);
        }
        for (item, prio) in items {
            self.wake(h, item, prio);
        }
    }

    /// Deliver a finish report's wakes from outside worker context (an
    /// external helper has no [`WorkerHandle`], so the items land on the
    /// shared queues instead of a local queue). Counted as
    /// [`wake_batch`](Self::wake_batch) is.
    pub fn wake_batch_external(&self, items: impl IntoIterator<Item = (T, Priority)>) {
        let mut items = items.into_iter().peekable();
        if items.peek().is_some() {
            SchedMetrics::bump(&self.metrics.wake_batches);
        }
        for (item, prio) in items {
            self.push_external(item, prio);
        }
    }

    /// Snapshot of the activity counters (exact at quiescence).
    pub fn counts(&self) -> SchedCounts {
        self.metrics.snapshot()
    }

    /// Push from outside any worker (spawns, wait-on probes).
    fn push_external(&self, item: T, prio: Priority) {
        if prio.is_high() {
            self.high.push(item);
        } else {
            self.injector.push(item);
        }
        self.maybe_unpark();
    }

    /// Blocking pop for worker `h`: the next task to execute, or `None`
    /// once the scheduler shut down and a full sweep found no work.
    pub fn next(&self, h: &WorkerHandle) -> Option<T> {
        let obs = self.obs.as_ref();
        loop {
            // Two sweeps with a yield between them: on a saturated host
            // this gives the producers a chance to publish before we pay
            // for the parking handshake.
            for round in 0..2 {
                if let Some(item) = self.try_find(h) {
                    return Some(item);
                }
                if round == 0 {
                    std::thread::yield_now();
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (mut found, mut stalled) = (None, false);
            self.idle.wait(None, || {
                found = self.try_find(h);
                if found.is_some() || self.shutdown.load(Ordering::SeqCst) {
                    return true;
                }
                stalled = true;
                SchedMetrics::bump(&self.metrics.parks);
                if let Some(o) = obs {
                    o.rec.emit(EventKind::Stalled, NO_TASK, NO_SHARD);
                }
                false
            });
            if found.is_some() {
                return found;
            }
            if let (true, Some(o)) = (stalled, obs) {
                o.rec.emit(EventKind::Resumed, NO_TASK, NO_SHARD);
            }
        }
    }

    /// One full sweep over every source, in policy order.
    fn try_find(&self, h: &WorkerHandle) -> Option<T> {
        if let Some(item) = self.high.pop() {
            SchedMetrics::bump(&self.metrics.high_pops);
            return Some(item);
        }
        if let Some(item) = self.locals[h.id].pop_back() {
            SchedMetrics::bump(&self.metrics.local_pops);
            return Some(item);
        }
        if let Some(item) = self.injector.pop() {
            SchedMetrics::bump(&self.metrics.injector_pops);
            return Some(item);
        }
        // Steal, starting past our own id so victims spread out.
        let n = self.locals.len();
        self.steal_from((1..n).map(|k| (h.id + k) % n))
    }

    /// Non-blocking pop from *outside* any worker thread — the endpoint
    /// for scheduler-aware waiters (a blocked `wait_on` caller executing
    /// ready tasks until its probe completes) and 0-worker runtimes.
    /// Sweeps the shared sources in policy order: the high-priority
    /// queue, the injector, then steals from every worker queue (safe
    /// from any thread: every queue is behind its own lock). Returns
    /// `None` when no ready task is currently visible — which is not
    /// quiescence; a running task may publish more work.
    pub fn try_next_external(&self) -> Option<T> {
        if let Some(item) = self.high.pop() {
            SchedMetrics::bump(&self.metrics.high_pops);
            return Some(item);
        }
        if let Some(item) = self.injector.pop() {
            SchedMetrics::bump(&self.metrics.injector_pops);
            return Some(item);
        }
        self.steal_from(0..self.locals.len())
    }

    /// Take the oldest item of the first non-empty victim queue.
    fn steal_from(&self, mut victims: impl Iterator<Item = usize>) -> Option<T> {
        let item = victims.find_map(|victim| self.locals[victim].pop())?;
        SchedMetrics::bump(&self.metrics.steals);
        if let Some(o) = &self.obs {
            o.rec.emit(EventKind::Stolen, (o.tag_of)(&item), NO_SHARD);
        }
        Some(item)
    }

    /// Wake one parked worker if any is counted in. Cheap when everyone
    /// is busy: a fence and one atomic load.
    fn maybe_unpark(&self) {
        if self.idle.notify_one() {
            SchedMetrics::bump(&self.metrics.unparks);
        }
    }

    /// Stop all workers: raise the flag, then wake every parked one.
    /// Callers must have reached quiescence (no tasks in flight); pending
    /// queue contents are not drained.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.idle.notify_all();
    }
}
