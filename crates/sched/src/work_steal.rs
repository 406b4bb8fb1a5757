//! The work-stealing scheduler: per-worker Chase–Lev deques, lock-free
//! global injectors, and parking for idle workers.
//!
//! Scheduling policy (the classic work-first discipline):
//!
//! 1. the global **high-priority** queue — StarSs `highpriority` tasks
//!    overtake everything, whichever worker they land on,
//! 2. the worker's **own deque**, newest-first (LIFO) — a worker that
//!    wakes a chain of dependent tasks keeps executing that chain with
//!    hot caches and zero shared-state traffic,
//! 3. the global **injector**, oldest-first — externally spawned tasks,
//! 4. **stealing** from sibling deques, oldest-first (FIFO) — idle
//!    workers take the *least* recently produced work, which in fan-out
//!    workloads is the root of the largest remaining subtree.
//!
//! A worker that completes the sweep empty-handed parks on its own
//! condvar. The sleeper handshake is the standard two-phase one: register
//! in the sleeper stack, then re-run the sweep before actually blocking.
//! Producers publish work *before* checking the sleeper count (both with
//! sequentially consistent operations), so either the producer observes
//! the registration and unparks, or the re-check observes the work — a
//! wake can be spurious but never lost.

use crate::metrics::{SchedCounts, SchedMetrics};
use crate::SchedulerKind;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use nexuspp_core::Priority;
use nexuspp_obs::{EventKind, Recorder, NO_SHARD, NO_TASK};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-worker-thread scheduler endpoint. Created by [`Scheduler::new`]
/// and moved into the worker thread; identifies the worker and owns its
/// deque.
pub struct WorkerHandle<T> {
    id: usize,
    local: Worker<T>,
}

impl<T> WorkerHandle<T> {
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

/// One worker's parking spot.
#[derive(Default)]
struct Parker {
    /// Wake token: set by an unparker (or shutdown), consumed by the
    /// owner. Guarded by the mutex so a wake between "decide to park"
    /// and "wait" is never missed.
    flag: Mutex<bool>,
    cv: Condvar,
}

/// A ready-task scheduler shared by `n` workers (plus any number of
/// submitting threads).
pub struct Scheduler<T> {
    /// Global high-priority queue, checked before any normal source.
    high: Injector<T>,
    /// Global entry point for externally submitted normal tasks.
    injector: Injector<T>,
    /// Steal handles onto every worker's deque, indexed by worker id.
    stealers: Box<[Stealer<T>]>,
    parkers: Box<[Parker]>,
    /// Stack of currently-registered sleepers (worker ids).
    sleepers: Mutex<Vec<usize>>,
    /// Mirror of `sleepers.len()`, readable without the lock.
    n_sleepers: AtomicUsize,
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
    pub fn new(_kind: SchedulerKind, n_workers: usize) -> (Self, Vec<WorkerHandle<T>>) {
        let handles: Vec<WorkerHandle<T>> = (0..n_workers)
            .map(|id| WorkerHandle {
                id,
                local: Worker::new_lifo(),
            })
            .collect();
        let sched = Scheduler {
            high: Injector::new(),
            injector: Injector::new(),
            stealers: handles.iter().map(|h| h.local.stealer()).collect(),
            parkers: (0..n_workers).map(|_| Parker::default()).collect(),
            sleepers: Mutex::new(Vec::with_capacity(n_workers)),
            n_sleepers: AtomicUsize::new(0),
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

    /// Number of workers this scheduler was built for.
    pub fn n_workers(&self) -> usize {
        self.parkers.len()
    }

    /// Hand a ready task to the workers from outside worker context
    /// (task spawns, wait-on probes).
    pub fn submit(&self, item: T, prio: Priority) {
        SchedMetrics::bump(&self.metrics.submitted);
        self.push_external(item, prio);
    }

    /// Deliver one wake from worker `h` (a task it completed released
    /// `item`): normal wakes stay on the worker's own deque (work-first),
    /// high-priority wakes go global so any worker picks them up next.
    /// Prefer [`wake_batch`](Self::wake_batch) for whole finish reports.
    pub fn wake(&self, h: &WorkerHandle<T>, item: T, prio: Priority) {
        if prio.is_high() {
            self.high.push(item);
        } else {
            h.local.push(item);
            SchedMetrics::bump(&self.metrics.local_pushes);
        }
        self.maybe_unpark();
    }

    /// Deliver a whole finish report's wakes in one scheduling operation:
    /// a run of local deque pushes with at most one unpark per item.
    pub fn wake_batch(&self, h: &WorkerHandle<T>, items: Vec<(T, Priority)>) {
        if items.is_empty() {
            return;
        }
        SchedMetrics::bump(&self.metrics.wake_batches);
        for (item, prio) in items {
            self.wake(h, item, prio);
        }
    }

    /// Deliver a finish report's wakes from outside worker context (an
    /// external helper has no [`WorkerHandle`], so the items land on the
    /// shared queues instead of a local deque).
    pub fn wake_batch_external(&self, items: Vec<(T, Priority)>) {
        if items.is_empty() {
            return;
        }
        SchedMetrics::bump(&self.metrics.wake_batches);
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
    pub fn next(&self, h: &WorkerHandle<T>) -> Option<T> {
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
            // Phase 1: register as a sleeper.
            {
                let mut s = self.sleepers.lock();
                s.push(h.id);
                self.n_sleepers.store(s.len(), Ordering::SeqCst);
            }
            // Phase 2: re-check. Work published before our registration
            // is necessarily visible here; work published after it will
            // find us in the sleeper stack and unpark us.
            if let Some(item) = self.try_find(h) {
                self.cancel_park(h.id);
                return Some(item);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                self.cancel_park(h.id);
                return None;
            }
            SchedMetrics::bump(&self.metrics.parks);
            if let Some(o) = obs {
                o.rec.emit(EventKind::Stalled, NO_TASK, NO_SHARD);
            }
            {
                let parker = &self.parkers[h.id];
                let mut flag = parker.flag.lock();
                while !*flag {
                    parker.cv.wait(&mut flag);
                }
                *flag = false;
            }
            if let Some(o) = obs {
                o.rec.emit(EventKind::Resumed, NO_TASK, NO_SHARD);
            }
            // A wake token can be stale (an unparker that lost the
            // `cancel_park` race on an earlier cycle), in which case our
            // registration is still in the sleeper stack. Remove it so
            // duplicate entries never accumulate and future unparks are
            // not misdirected at a busy worker; a genuine wake already
            // popped us and this is a no-op.
            self.deregister(h.id);
        }
    }

    /// One full sweep over every source, in policy order.
    fn try_find(&self, h: &WorkerHandle<T>) -> Option<T> {
        if let Steal::Success(item) = self.high.steal() {
            SchedMetrics::bump(&self.metrics.high_pops);
            return Some(item);
        }
        if let Some(item) = h.local.pop() {
            SchedMetrics::bump(&self.metrics.local_pops);
            return Some(item);
        }
        if let Steal::Success(item) = self.injector.steal() {
            SchedMetrics::bump(&self.metrics.injector_pops);
            return Some(item);
        }
        // Steal, starting past our own id so victims spread out.
        let n = self.stealers.len();
        self.steal_from((1..n).map(|k| (h.id + k) % n))
    }

    /// Non-blocking pop from *outside* any worker thread — the endpoint
    /// for scheduler-aware waiters (a blocked `wait_on` caller executing
    /// ready tasks until its probe completes) and 0-worker runtimes.
    /// Sweeps the shared sources in policy order: the high-priority
    /// queue, the injector, then steals from every worker deque (safe
    /// from any thread: stealing is the deques' MPMC side). Returns
    /// `None` when no ready task is currently visible — which is not
    /// quiescence; a running task may publish more work.
    pub fn try_next_external(&self) -> Option<T> {
        if let Steal::Success(item) = self.high.steal() {
            SchedMetrics::bump(&self.metrics.high_pops);
            return Some(item);
        }
        if let Steal::Success(item) = self.injector.steal() {
            SchedMetrics::bump(&self.metrics.injector_pops);
            return Some(item);
        }
        self.steal_from(0..self.stealers.len())
    }

    /// Try each victim's deque in order. Retry a bounded number of passes
    /// on CAS races, then give up (`next` re-sweeps before parking).
    fn steal_from(&self, victims: impl Iterator<Item = usize> + Clone) -> Option<T> {
        for _pass in 0..2 {
            let mut contended = false;
            for victim in victims.clone() {
                match self.stealers[victim].steal() {
                    Steal::Success(item) => {
                        SchedMetrics::bump(&self.metrics.steals);
                        if let Some(o) = &self.obs {
                            o.rec.emit(EventKind::Stolen, (o.tag_of)(&item), NO_SHARD);
                        }
                        return Some(item);
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if !contended {
                break;
            }
        }
        None
    }

    /// Wake one sleeper if any are registered. Cheap when everyone is
    /// busy: a single relaxed-path atomic load.
    fn maybe_unpark(&self) {
        if self.n_sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let id = {
            let mut s = self.sleepers.lock();
            let id = s.pop();
            self.n_sleepers.store(s.len(), Ordering::SeqCst);
            id
        };
        if let Some(id) = id {
            SchedMetrics::bump(&self.metrics.unparks);
            self.unpark(id);
        }
    }

    /// Remove `id` from the sleeper stack if present. Returns whether it
    /// was registered.
    fn deregister(&self, id: usize) -> bool {
        let mut s = self.sleepers.lock();
        match s.iter().position(|&w| w == id) {
            Some(at) => {
                s.remove(at);
                self.n_sleepers.store(s.len(), Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// Undo a sleeper registration after the re-check found work. If an
    /// unparker already popped us, absorb the pending wake token so the
    /// next park does not wake spuriously. The absorption races the
    /// unparker's flag store — a token it sets *after* this clear
    /// survives as a stale wake, which the parked path resolves by
    /// deregistering on wake-up.
    fn cancel_park(&self, id: usize) {
        if !self.deregister(id) {
            *self.parkers[id].flag.lock() = false;
        }
    }

    fn unpark(&self, id: usize) {
        let parker = &self.parkers[id];
        let mut flag = parker.flag.lock();
        *flag = true;
        parker.cv.notify_one();
    }

    /// Stop all workers: raise the flag, then wake all parking spots
    /// (sleepers and not-yet-parked workers alike). Callers must have
    /// reached quiescence (no tasks in flight); pending queue contents
    /// are not drained.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sleepers.lock().clear();
        self.n_sleepers.store(0, Ordering::SeqCst);
        for id in 0..self.parkers.len() {
            self.unpark(id);
        }
    }
}
