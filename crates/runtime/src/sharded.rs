//! The runtime: a StarSs-like task API over a thread pool, with
//! dependency resolution partitioned over N engines behind per-shard
//! locks.
//!
//! Submission mirrors the paper's master core: the submitting thread
//! admits the task and checks its dependencies; ready tasks go to the
//! scheduler, dependent ones park until a completion wakes them — the
//! software analogue of the Kick-Off List wake-up performed by `Handle
//! Finished`. Resolution runs through a [`ShardDispatcher`]: workers
//! finishing tasks lock only the shards whose addresses the task actually
//! touched, and disjoint completions retire fully in parallel. One shard
//! (`Runtime::new(n, 1)`) is the degenerate case — one engine behind one
//! lock, the software re-creation of the centralized Task Maestro — and
//! runs the same code as any other shard count; the sharded composition
//! is differentially verified against a single engine and the oracle in
//! `nexuspp-shard`.
//!
//! Ready tasks are handed to workers through the work-stealing
//! [`nexuspp_sched::Scheduler`]. A finish report's wakes are delivered
//! as **one** batched scheduling operation: the whole burst lands on the
//! finishing worker's own deque and idle workers steal it back out.
//!
//! Between the shards and the scheduler sits the dispatcher's wake path:
//! a worker never holds a shard lock across wake delivery — the tasks its
//! completion made ready are handed off after the lock is released,
//! straight into its finish report and from there into `wake_batch`.
//!
//! Every thread that blocks here waits on a [`nexuspp_core::EventCount`]:
//! idle workers on the scheduler's, a submitter stalled on a full shard
//! on that shard's, and a [`Runtime::barrier`] (or shutdown) on the
//! runtime's own, notified by the retirement that takes the pending
//! count to zero. [`Runtime::wait_on`] is the one exception: between
//! the ready tasks it helps run, it blocks on a std channel its probe
//! task sends into.

use crate::region::{Region, RegionId};
use crate::runtime::{panic_msg, sched_counters, Grants, Job, ShutdownReport, TaskCtx};
use nexuspp_core::{EventCount, NexusConfig, Priority, ShardCapacity, Submission, SubmitError};
use nexuspp_obs::{EventKind, MetricsRegistry, Recorder};
use nexuspp_sched::{SchedCounts, Scheduler, SchedulerKind, WorkerHandle};
use nexuspp_shard::{
    CapacityCounts, FinishReport, ShardDispatcher, TaskTicket, WakeCounts, WakeMode,
};
use nexuspp_trace::normalize::normalize_params;
use nexuspp_trace::{AccessMode, Param};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Payload delivered when a task becomes ready.
struct Work {
    grants: Grants,
    job: Job,
    prio: Priority,
}

/// A scheduled unit: the dispatcher ticket plus the work to run.
type Ready = (TaskTicket<Work>, Work);

/// A task ready to hand to the dispatcher: every spawn flavour builds
/// one and goes through the runtime's single internal `submit`.
/// Publicly, it is a submission rejected by
/// [`try_spawn_lowered`](Runtime::try_spawn_lowered), handed back intact
/// (closure included) for resubmission once the retryable condition
/// clears. Opaque: the closure cannot be recovered, only resubmitted via
/// [`try_respawn`](Runtime::try_respawn).
pub struct PendingSpawn {
    fptr: u64,
    tag: u64,
    params: Vec<Param>,
    work: Work,
}

impl PendingSpawn {
    fn new(
        fptr: u64,
        tag: u64,
        params: Vec<Param>,
        prio: Priority,
        grants: Grants,
        job: Job,
    ) -> Self {
        PendingSpawn {
            fptr,
            tag,
            params,
            work: Work { grants, job, prio },
        }
    }

    /// A pre-addressed submission: the addresses *are* the
    /// dependence-table keys, so `f` receives no data context.
    fn lowered(sub: Submission, f: impl FnOnce() + Send + 'static) -> Self {
        let prio = sub.priority;
        let (fptr, tag, params) = sub.into_parts();
        let job = Box::new(move |_: &TaskCtx| f());
        PendingSpawn::new(fptr, tag, params, prio, Grants::new(), job)
    }

    /// The caller tag of the rejected submission.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

struct Inner {
    dispatcher: ShardDispatcher<Work>,
    sched: Scheduler<Ready>,
    /// Tag source for builder-spawned tasks (lowered submissions carry
    /// their caller's tag).
    next_tag: AtomicU64,
    /// Tasks admitted so far; atomic so submissions don't serialize on a
    /// lock.
    submitted: AtomicU64,
    /// Tasks spawned and not yet fully retired.
    pending: AtomicU64,
    /// Notified by the retirement that takes `pending` to 0. The count
    /// crosses 0 once per task on a streaming workload, almost always
    /// with nobody waiting, and then the notify takes no lock.
    quiescent: EventCount,
    /// First task panic observed (re-raised at the next barrier).
    panicked: Mutex<Option<String>>,
    /// Hard-deadline shutdown flag: once set, ready tasks cancel-finish
    /// (their bodies are dropped unexecuted but they still retire
    /// through the dispatcher, so the graph drains and `pending`
    /// reaches zero).
    aborting: AtomicBool,
    /// Tasks whose bodies ran (including panicking ones).
    executed: AtomicU64,
    /// Tasks cancel-finished by a hard-deadline shutdown.
    cancelled: AtomicU64,
    /// Lifecycle-event recorder for the exec phase; the dispatcher holds
    /// its own clone for the resolution/wake phases. `None` when the
    /// runtime was built without one.
    obs: Option<Arc<Recorder>>,
}

impl Inner {
    /// One pending task left the system: retired through the
    /// dispatcher, or rejected at admission.
    fn retire(&self) {
        let before = self.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(before >= 1, "retired more tasks than were pending");
        if before == 1 {
            self.quiescent.notify_all();
        }
    }

    /// Block until no task is pending, or until `limit` has passed;
    /// `false` means the limit ran out first.
    fn wait_quiescent(&self, limit: Option<Duration>) -> bool {
        let start = Instant::now();
        loop {
            if self.pending.load(Ordering::SeqCst) == 0 {
                return true;
            }
            let left = match limit {
                None => None,
                Some(d) => match d.checked_sub(start.elapsed()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return false,
                },
            };
            self.quiescent
                .wait(left, || self.pending.load(Ordering::SeqCst) == 0);
        }
    }

    /// The first-panic slot. Task bodies run outside it (under
    /// `catch_unwind`), so a poisoned guard still holds a valid message.
    fn panicked(&self) -> MutexGuard<'_, Option<String>> {
        self.panicked.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Declarative task builder (the embedded-DSL equivalent of a
/// `#pragma css task input(...) output(...) inout(...)` annotation).
pub struct TaskBuilder<'rt> {
    rt: &'rt Runtime,
    accesses: Vec<(RegionId, AccessMode)>,
    high_priority: bool,
}

impl<'rt> TaskBuilder<'rt> {
    /// Declare a read-only parameter.
    pub fn input<T>(mut self, r: &Region<T>) -> Self {
        self.accesses.push((r.id(), AccessMode::In));
        self
    }

    /// Declare a write-only parameter.
    pub fn output<T>(mut self, r: &Region<T>) -> Self {
        self.accesses.push((r.id(), AccessMode::Out));
        self
    }

    /// Declare a read-write parameter.
    pub fn inout<T>(mut self, r: &Region<T>) -> Self {
        self.accesses.push((r.id(), AccessMode::InOut));
        self
    }

    /// Mark the task high priority (the StarSs `highpriority` clause):
    /// once ready, it overtakes queued normal-priority tasks.
    pub fn high_priority(mut self) -> Self {
        self.high_priority = true;
        self
    }

    /// Submit the task. It runs as soon as its dependencies allow. Under
    /// a bounded [`ShardCapacity`] this **blocks the submitting thread**
    /// while any involved shard is full, resuming on that shard's next
    /// finish report — the software form of the paper's master-core
    /// stall — so spawn tasks in dependency order (producers first),
    /// which this builder yields naturally from a single submitting
    /// thread.
    pub fn spawn(self, f: impl FnOnce(&TaskCtx) + Send + 'static) {
        let params: Vec<Param> = self
            .accesses
            .iter()
            .map(|(id, m)| Param::new(id.0, 1, *m))
            .collect();
        let params = normalize_params(&params);
        // Grants mirror the (normalized) parameter list.
        let grants = params.iter().map(|p| (RegionId(p.addr), p.mode)).collect();
        let tag = self.rt.inner.next_tag.fetch_add(1, Ordering::Relaxed) + 1;
        let prio = Priority::from_high_flag(self.high_priority);
        self.rt
            .submit_blocking(PendingSpawn::new(0, tag, params, prio, grants, Box::new(f)));
    }
}

/// The StarSs-like task dataflow runtime.
pub struct Runtime {
    inner: Arc<Inner>,
    /// Behind a mutex so [`shutdown`](Self::shutdown) can join through
    /// `&self` (services share the runtime in an `Arc`).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// The name the `e2e` benchmark knows [`Runtime`] by.
pub type ShardedRuntime = Runtime;

impl Runtime {
    /// Start a runtime with `n` worker threads resolving dependencies
    /// across `shards` engines (`1` = one engine behind one lock), with
    /// unbounded shards.
    pub fn new(n: usize, shards: usize) -> Self {
        Runtime::with_capacity(n, shards, ShardCapacity::Unbounded)
    }

    /// Start a runtime with the per-shard residency bound `capacity` (a
    /// bounded runtime blocks [`spawn`](TaskBuilder::spawn) while a shard
    /// is full).
    pub fn with_capacity(n: usize, shards: usize, capacity: ShardCapacity) -> Self {
        Runtime::build(n, shards, capacity, None)
    }

    /// Start a runtime that records lifecycle events into `rec`: the
    /// dispatcher stamps the resolution and wake phases (with real shard
    /// ids), the scheduler stamps steals and idle parks, and the workers
    /// stamp the exec phase. Drain with [`nexuspp_obs::Recorder::drain`]
    /// after a [`barrier`](Self::barrier) for a causally ordered stream.
    ///
    /// `_kind` and `_wake_mode` are accepted and ignored: the six-argument
    /// shape is kept only because `crates/bench/src/bin/e2e/` calls it.
    pub fn with_recorder(
        n: usize,
        shards: usize,
        _kind: SchedulerKind,
        capacity: ShardCapacity,
        _wake_mode: WakeMode,
        rec: Arc<Recorder>,
    ) -> Self {
        Runtime::build(n, shards, capacity, Some(rec))
    }

    /// Start a runtime observed *online* by `collector`
    /// ([`nexuspp_obs::Collector`]): lifecycle events stream into the
    /// collector's recorder — its background thread keeps a live
    /// [`nexuspp_obs::GraphTracker`] current while tasks are in flight —
    /// and this runtime's [`metrics`](Self::metrics) registry is
    /// attached for periodic sampling. The collector adds no lock to
    /// the wake path (producers only CAS into their event lanes; the
    /// collector only drains the consumer side). Call
    /// [`Collector::finish`](nexuspp_obs::Collector::finish) after the
    /// runtime joins for the complete final state.
    pub fn with_observer(
        n: usize,
        shards: usize,
        capacity: ShardCapacity,
        collector: &nexuspp_obs::Collector,
    ) -> Self {
        let rt = Runtime::build(n, shards, capacity, Some(collector.recorder()));
        collector.attach_registry(Arc::new(rt.metrics()));
        rt
    }

    fn build(n: usize, shards: usize, capacity: ShardCapacity, obs: Option<Arc<Recorder>>) -> Self {
        // n == 0 is allowed: no worker threads are spawned and every
        // task executes inside a scheduler-aware waiter (`wait_on`).
        let (mut sched, handles) = Scheduler::new(SchedulerKind::default(), n);
        let mut dispatcher =
            ShardDispatcher::with_capacity(shards, &NexusConfig::unbounded(), capacity);
        if let Some(rec) = &obs {
            sched.set_recorder(Arc::clone(rec), |r: &Ready| r.0.tag());
            dispatcher = dispatcher.with_recorder(Arc::clone(rec));
        }
        let inner = Arc::new(Inner {
            dispatcher,
            sched,
            next_tag: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            quiescent: EventCount::new(),
            panicked: Mutex::new(None),
            aborting: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            obs,
        });
        let workers = handles
            .into_iter()
            .map(|h| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("nexuspp-shard-worker-{}", h.id()))
                    .spawn(move || worker_loop(&inner, &h))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Runtime {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Number of shards resolution is partitioned over.
    pub fn n_shards(&self) -> usize {
        self.inner.dispatcher.n_shards()
    }

    /// The per-shard residency bound this runtime submits under.
    pub fn capacity(&self) -> ShardCapacity {
        self.inner.dispatcher.capacity()
    }

    /// Per-shard stall/retry counters (exact once quiescent — call after
    /// [`barrier`](Self::barrier)).
    pub fn capacity_counts(&self) -> Vec<CapacityCounts> {
        self.inner.dispatcher.capacity_counts()
    }

    /// Wake-path activity counters — tasks handed to finish reports and
    /// time in the post-lock hand-off. Exact once quiescent — call after
    /// [`barrier`](Self::barrier).
    pub fn wake_counts(&self) -> WakeCounts {
        self.inner.dispatcher.wake_counts()
    }

    /// Scheduler activity counters (steals, parks, …; exact once
    /// quiescent — call after [`barrier`](Self::barrier)).
    pub fn sched_counts(&self) -> SchedCounts {
        self.inner.sched.counts()
    }

    /// The lifecycle-event recorder this runtime stamps into, if built
    /// with [`with_recorder`](Self::with_recorder).
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.inner.obs.as_ref()
    }

    /// Build a [`MetricsRegistry`] over every counter surface this
    /// runtime exposes: task accounting (`tasks`), scheduler activity
    /// (`sched`), wake-path counters (`wake`), capacity stall/retry
    /// totals including parked time (`capacity`), and — when a recorder
    /// is attached — event-ring accounting (`events`). Snapshots are
    /// exact at quiescence.
    pub fn metrics(&self) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        let inner = Arc::clone(&self.inner);
        reg.register("tasks", move || {
            vec![
                ("submitted".into(), inner.submitted.load(Ordering::Relaxed)),
                ("pending".into(), inner.pending.load(Ordering::SeqCst)),
                ("executed".into(), inner.executed.load(Ordering::Relaxed)),
                ("cancelled".into(), inner.cancelled.load(Ordering::Relaxed)),
            ]
        });
        let inner = Arc::clone(&self.inner);
        reg.register("sched", move || sched_counters(&inner.sched.counts()));
        let inner = Arc::clone(&self.inner);
        reg.register("wake", move || {
            let w = inner.dispatcher.wake_counts();
            vec![
                ("delivered".into(), w.delivered),
                ("delivery_ns".into(), w.delivery_ns),
            ]
        });
        let inner = Arc::clone(&self.inner);
        reg.register("capacity", move || {
            let per_shard = inner.dispatcher.capacity_counts();
            let mut stalls = 0;
            let mut retries = 0;
            let mut stall_ns = 0;
            let mut resident = 0u64;
            for c in &per_shard {
                stalls += c.stalls_observed;
                retries += c.retries_resolved;
                stall_ns += c.stall_ns;
                resident += c.resident as u64;
            }
            vec![
                ("stalls_observed".into(), stalls),
                ("retries_resolved".into(), retries),
                ("stall_ns".into(), stall_ns),
                ("resident".into(), resident),
            ]
        });
        if let Some(rec) = &self.inner.obs {
            let rec = Arc::clone(rec);
            reg.register("events", move || {
                vec![
                    ("recorded".into(), rec.recorded()),
                    ("dropped".into(), rec.dropped()),
                ]
            });
        }
        reg
    }

    /// Allocate a data region managed by this runtime.
    pub fn region<T>(&self, data: Vec<T>) -> Region<T> {
        Region::new(data)
    }

    /// Begin declaring a task.
    pub fn task(&self) -> TaskBuilder<'_> {
        TaskBuilder {
            rt: self,
            accesses: Vec::new(),
            high_priority: false,
        }
    }

    /// Submit a pre-addressed task — a [`Submission`] whose parameter
    /// addresses were already assigned, typically by the resource-
    /// versioning frontend's lowering — and run `f` when its declared
    /// dependencies allow. No [`Region`]s are involved: the addresses
    /// *are* the dependence-table keys, so `f` receives no data context.
    /// Capacity semantics match [`spawn`](TaskBuilder::spawn) (bounded
    /// shards block the submitter until a slot frees).
    ///
    /// # Panics
    ///
    /// Panics if the submission fails validation (duplicate parameter
    /// addresses) — [`TaskBuilder`](nexuspp_core::TaskBuilder)-built
    /// submissions are always valid.
    pub fn spawn_lowered(&self, sub: Submission, f: impl FnOnce() + Send + 'static) {
        sub.validate().expect("invalid lowered submission");
        self.submit_blocking(PendingSpawn::lowered(sub, f));
    }

    /// Non-blocking form of [`spawn_lowered`](Self::spawn_lowered): a
    /// submission whose shards are at their [`ShardCapacity`] bound is
    /// handed back as a [`PendingSpawn`] with a retryable
    /// [`SubmitError`] instead of parking the submitting thread — the
    /// backpressure primitive service ingress layers signal to remote
    /// clients. Resubmit the returned [`PendingSpawn`] with
    /// [`try_respawn`](Self::try_respawn) after a finish frees slots.
    /// Validation failures (duplicate addresses) surface the same way
    /// with a non-retryable error.
    pub fn try_spawn_lowered(
        &self,
        sub: Submission,
        f: impl FnOnce() + Send + 'static,
    ) -> Result<(), (SubmitError, PendingSpawn)> {
        self.submit(PendingSpawn::lowered(sub, f), false)
    }

    /// Resubmit a spawn previously rejected by
    /// [`try_spawn_lowered`](Self::try_spawn_lowered).
    pub fn try_respawn(&self, p: PendingSpawn) -> Result<(), (SubmitError, PendingSpawn)> {
        self.submit(p, false)
    }

    /// The one submission path: count the task pending, admit it through
    /// the dispatcher and schedule it if nothing blocks it. `block`
    /// is the only difference between the spawn flavours — a full shard
    /// parks the caller (`dispatcher.submit`, never rejects) or hands the
    /// task back (`dispatcher.try_submit`).
    fn submit(&self, p: PendingSpawn, block: bool) -> Result<(), (SubmitError, PendingSpawn)> {
        let prio = p.work.prio;
        let inner = &self.inner;
        inner.pending.fetch_add(1, Ordering::SeqCst);
        let admitted = if block {
            Ok(inner.dispatcher.submit(p.fptr, p.tag, &p.params, p.work))
        } else {
            inner
                .dispatcher
                .try_submit(p.fptr, p.tag, &p.params, p.work)
        };
        match admitted {
            Ok(res) => {
                inner.submitted.fetch_add(1, Ordering::Relaxed);
                if let Some(work) = res.ready {
                    inner.sched.submit((res.ticket, work), prio);
                }
                // A parked task's ticket resurfaces in some
                // FinishReport::woken.
                Ok(())
            }
            Err((e, work)) => {
                // Roll the optimistic pending increment back; a barrier
                // waiting concurrently must not count a rejected task.
                inner.retire();
                Err((e, PendingSpawn { work, ..p }))
            }
        }
    }

    fn submit_blocking(&self, p: PendingSpawn) {
        if self.submit(p, true).is_err() {
            unreachable!("a blocking submit parks on a full shard instead of rejecting");
        }
    }

    /// Block until every producer of `region` submitted so far has
    /// finished — the StarSs `#pragma css wait on(...)` primitive.
    /// Implemented as a high-priority probe task reading the region;
    /// dependency resolution makes it wait for exactly the outstanding
    /// writers (concurrent readers do not delay it).
    ///
    /// Must be called from outside task context (calling it from within a
    /// task can deadlock if all workers block on waits).
    ///
    /// The waiter is scheduler-aware: instead of blocking on a channel
    /// (starving the pool of one thread), it pops/steals ready tasks
    /// and executes them until its probe completes — a graph completes
    /// even at `workers == 0` with a single waiter. If the runtime is
    /// torn down (hard-deadline shutdown cancels the probe), the wait
    /// returns cleanly instead of panicking.
    pub fn wait_on<T>(&self, region: &Region<T>) {
        let (tx, rx) = sync_channel::<()>(1);
        self.task().input(region).high_priority().spawn(move |_| {
            let _ = tx.send(());
        });
        let mut report = FinishReport::default();
        loop {
            match rx.try_recv() {
                Ok(()) => return,
                // Probe dropped unexecuted: the runtime is aborting; its
                // producers will never run, so there is nothing to wait
                // for.
                Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => {}
            }
            // Help: run one ready task (any task — policy order) rather
            // than sleeping on the probe.
            if let Some((ticket, work)) = self.inner.sched.try_next_external() {
                execute_ready(&self.inner, ticket, work, None, &mut report);
            } else {
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => {}
                }
            }
        }
    }

    /// Graceful explicit shutdown: drain every in-flight task (running
    /// bodies finish, queued tasks execute), then stop and join the
    /// workers. Equivalent to `drop` but hands back a
    /// [`ShutdownReport`] and is callable through a shared reference
    /// (`Arc<Runtime>` in service deployments). Does not
    /// re-raise task panics. Submitting after shutdown is a caller
    /// error (tasks would queue forever).
    pub fn shutdown(&self) -> ShutdownReport {
        self.shutdown_inner(None)
    }

    /// Shutdown with a hard deadline: wait up to `deadline` for a
    /// graceful drain; past it, flip the abort flag so every
    /// still-queued task **cancel-finishes** — its body is dropped
    /// unexecuted, but it still retires through the dispatcher, so
    /// dependents drain (cascading the cancellation) and quiescence is
    /// reached. Bodies already running are never interrupted; the join
    /// still waits for them.
    pub fn shutdown_deadline(&self, deadline: Duration) -> ShutdownReport {
        self.shutdown_inner(Some(deadline))
    }

    fn shutdown_inner(&self, deadline: Option<Duration>) -> ShutdownReport {
        let inner = &self.inner;
        let graceful = inner.wait_quiescent(deadline);
        if !graceful {
            // Every queued task now cancel-finishes; wait out the
            // remaining (already-running) bodies.
            inner.aborting.store(true, Ordering::SeqCst);
            inner.wait_quiescent(None);
        }
        inner.sched.shutdown();
        // Empty after the first shutdown, so a second one (or the drop
        // that follows an explicit shutdown) joins nothing.
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for w in handles {
            let _ = w.join();
        }
        ShutdownReport {
            graceful,
            executed: inner.executed.load(Ordering::Relaxed),
            cancelled: inner.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Wait until every submitted task has finished — the equivalent of
    /// `#pragma css barrier`. If any task panicked since the last
    /// barrier, the panic is re-raised here on the calling thread.
    pub fn barrier(&self) {
        self.inner.wait_quiescent(None);
        let panicked = self.inner.panicked().take();
        if let Some(msg) = panicked {
            panic!("task panicked: {msg}");
        }
    }

    /// Synchronously inspect a region's data (reach quiescence first via
    /// [`barrier`](Self::barrier)).
    pub fn with_data<T, R>(&self, region: &Region<T>, f: impl FnOnce(&[T]) -> R) -> R {
        let guard = region.begin_read();
        f(&guard)
    }

    /// Number of tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Relaxed)
    }
}

/// A worker owns the one finish report its completions are retired
/// into, so the wake path reuses its storage instead of allocating per
/// finish.
fn worker_loop(inner: &Arc<Inner>, h: &WorkerHandle<Ready>) {
    Recorder::set_thread_worker(h.id() as u32);
    let mut report = FinishReport::default();
    while let Some((ticket, work)) = inner.sched.next(h) {
        execute_ready(inner, ticket, work, Some(h), &mut report);
    }
}

/// Run (or, when aborting, cancel) one ready unit and retire it through
/// `report`, which is left empty. Shared by the worker loop and
/// scheduler-aware waiters (`h == None` — wakes then go through the
/// external scheduling path).
fn execute_ready(
    inner: &Arc<Inner>,
    ticket: TaskTicket<Work>,
    work: Work,
    h: Option<&WorkerHandle<Ready>>,
    report: &mut FinishReport<Work>,
) {
    if inner.aborting.load(Ordering::SeqCst) {
        // Hard-deadline shutdown: drop the body unexecuted (releasing
        // its captures — e.g. a wait_on probe's sender, which is how
        // parked waiters learn the runtime is gone) but still retire the
        // task below so the graph drains.
        drop(work.job);
        inner.cancelled.fetch_add(1, Ordering::Relaxed);
    } else {
        let ctx = TaskCtx::from_grants(work.grants);
        if let Some(r) = &inner.obs {
            r.emit(EventKind::ExecStart, ticket.tag(), nexuspp_obs::NO_SHARD);
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (work.job)(&ctx)));
        if let Err(payload) = result {
            inner.panicked().get_or_insert(panic_msg(&*payload));
        }
        if let Some(r) = &inner.obs {
            r.emit(EventKind::ExecDone, ticket.tag(), nexuspp_obs::NO_SHARD);
        }
        inner.executed.fetch_add(1, Ordering::Relaxed);
    }
    // Retire through the sharded dispatcher: only the shards this
    // task touched are locked (for table access; wake delivery runs
    // outside the locks). The whole wake set is delivered as one
    // batched scheduling operation.
    inner.dispatcher.finish_into(ticket, report);
    let woken = report.woken.drain(..).map(|(ticket, work)| {
        let prio = work.prio;
        ((ticket, work), prio)
    });
    match h {
        Some(h) => inner.sched.wake_batch(h, woken),
        None => inner.sched.wake_batch_external(woken),
    }
    inner.retire();
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Drain, stop and join without re-raising task panics (Drop must
        // not panic); only stops the scheduler again if an explicit
        // shutdown already ran.
        self.shutdown_inner(None);
    }
}
