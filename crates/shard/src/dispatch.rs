//! The concurrent sharded dispatcher: per-shard locks and atomic
//! cross-shard readiness aggregation.
//!
//! This is the threaded driver of the sharded protocol written down in
//! `crates/shard/src/protocol.rs`; [`ShardedEngine`](crate::ShardedEngine)
//! is the single-threaded one. Each shard's state sits behind its own
//! [`std::sync::Mutex`], so submits and finishes that touch different
//! shards proceed in parallel, and each lock is held for one slice at a
//! time — never two at once, so no lock-ordering discipline is needed.
//! The remote counter is atomic: whoever performs its zero transition,
//! the submitter or a finisher, takes the payload.
//!
//! Finishing a task releases each slice under its shard's lock; the
//! remote releases, and — on the zero transition — the payload hand-off
//! into the caller's [`FinishReport`], happen **after the lock is
//! dropped**: the software form of the paper's Handle Finished block
//! moving kicked-off tasks to the ready list. A task is woken by exactly
//! one finisher and surfaces in that finisher's own report. A finisher
//! that keeps one report across finishes
//! ([`finish_into`](ShardDispatcher::finish_into)) allocates nothing on
//! this path once the report has grown to its widest wake.
//!
//! Under a bounded [`ShardCapacity`], a submitter that finds a shard
//! full first takes its caller's help step (the runtime runs one ready
//! task) and retries; with nothing to run, it parks on that shard's
//! [`EventCount`], rechecking the shard's residency. A finish notifies
//! it after releasing each slot, and a reservation that rolled back
//! notifies the shards it handed slots back to. A notify with nobody
//! parked is one fence and one load.

use crate::protocol::{Few, Remote, Residency, Route, Slices};
use nexuspp_core::{
    duplicate_address, EventCount, NexusConfig, ShardCapacity, SubmitError, TdIndex,
};
use nexuspp_obs::{EventKind, Recorder, NO_SHARD};
use nexuspp_trace::Param;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Kept because `e2e` reads it (`crates/bench/src/bin/e2e/` passes
/// `WakeMode::default()` to the runtime's `with_recorder`); there is one
/// wake path and the value selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakeMode {
    /// Wakes are handed off *outside* the shard lock, straight into the
    /// finisher's own [`FinishReport`].
    #[default]
    LockFree,
}

/// The home record of a task in flight.
#[derive(Debug)]
struct Node<P> {
    tag: u64,
    remote: Remote,
    /// `(shard, sub-descriptor)` per involved shard; set once at the end
    /// of `submit` (readers run strictly after `submit` returns).
    parts: OnceLock<Few<(u32, TdIndex)>>,
    /// The caller's payload, surrendered to whoever makes the task ready.
    payload: Mutex<Option<P>>,
}

impl<P> Node<P> {
    /// A store or a `take`, nothing else, runs under this lock: a
    /// poisoned guard still holds the payload or nothing.
    fn payload(&self) -> MutexGuard<'_, Option<P>> {
        self.payload.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to a submitted task; required (and consumed) by
/// [`ShardDispatcher::finish`].
#[derive(Debug)]
pub struct TaskTicket<P>(Arc<Node<P>>);

impl<P> TaskTicket<P> {
    /// The caller tag the task was submitted with.
    pub fn tag(&self) -> u64 {
        self.0.tag
    }
}

/// Outcome of a submission.
#[derive(Debug)]
pub struct SubmitResult<P> {
    /// Handle for the eventual [`ShardDispatcher::finish`] call.
    pub ticket: TaskTicket<P>,
    /// The payload, handed back if the task is ready to run right now;
    /// `None` if the task parked waiting on dependencies (its payload
    /// will surface in some [`FinishReport::woken`] later).
    pub ready: Option<P>,
}

/// Outcome of a finish call, or of several consecutive
/// [`finish_into`](ShardDispatcher::finish_into) calls into one report.
#[derive(Debug)]
pub struct FinishReport<P> {
    /// Tasks these completions made ready, with their payloads. May
    /// contain tasks submitted by other threads.
    pub woken: Vec<(TaskTicket<P>, P)>,
    /// Tasks retired into this report. Kept because `e2e` reads it (its
    /// replay sums it); always 1 from [`finish`](ShardDispatcher::finish).
    pub completed: u64,
    /// The home records one slice release kicked off, between the shard
    /// lock and the hand-off; empty between calls.
    kicked: Vec<Arc<Node<P>>>,
}

impl<P> Default for FinishReport<P> {
    fn default() -> Self {
        FinishReport {
            woken: Vec::new(),
            completed: 0,
            kicked: Vec::new(),
        }
    }
}

/// Wake-path activity counters, aggregated across shards (Relaxed
/// atomics: exact at quiescence, a racy snapshot while finishers run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeCounts {
    /// Kept because `e2e` reads it: tasks handed to finish reports.
    pub delivered: u64,
    /// Kept because `e2e` reads it: nanoseconds spent in the post-lock
    /// hand-off (remote decrements, payload takes, report pushes) of
    /// slice releases that woke something.
    pub delivery_ns: u64,
    /// Kept because `e2e` reads it: the hand-off takes no shard lock, so
    /// this is always 0.
    pub delivery_lock_acquisitions: u64,
}

#[derive(Debug, Default)]
struct WakeMetrics {
    delivered: AtomicU64,
    delivery_ns: AtomicU64,
}

/// One shard's bounded-capacity counters at a quiescent point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapacityCounts {
    /// Submissions that parked with this shard as the first full shard
    /// of their stall episode.
    pub stalls_observed: u64,
    /// Parked submissions whose retry eventually succeeded (attributed
    /// to the episode's first full shard). Equals `stalls_observed` once
    /// no submitter is parked.
    pub retries_resolved: u64,
    /// Nanoseconds submitters spent parked on this shard, summed over
    /// resolved stall episodes (attributed, like the episode counters,
    /// to the episode's first full shard). The paper's master-core
    /// stall *time*, not just its episode count.
    pub stall_ns: u64,
    /// Tasks currently holding a residency slot on this shard.
    pub resident: usize,
}

struct ShardCell<P> {
    slices: Mutex<Slices<Arc<Node<P>>>>,
    /// Submitters blocked on this full shard wait here; notified after
    /// every slot this shard hands back.
    space: EventCount,
    stalls: AtomicU64,
    retries_resolved: AtomicU64,
    stall_ns: AtomicU64,
}

impl<P> ShardCell<P> {
    /// The shard lock, recovered if poisoned: a panicking engine call
    /// (a protocol assertion) has already failed its caller, and later
    /// calls see the state it left.
    fn lock(&self) -> MutexGuard<'_, Slices<Arc<Node<P>>>> {
        self.slices.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// N dependency engines behind per-shard locks, aggregating readiness
/// with atomics. `P` is the payload delivered when a task becomes ready
/// (a closure + access grants in the runtime; `u64` tags in the stress
/// harness).
pub struct ShardDispatcher<P> {
    shards: Box<[ShardCell<P>]>,
    residency: Residency,
    wake_metrics: WakeMetrics,
    /// Lifecycle event sink. `None` (the default) is the zero-cost
    /// production shape: every emission site is one `Option` branch.
    /// Recording takes only the emitting thread's lane lock (see
    /// `nexuspp_obs::Recorder`), so attaching an enabled recorder adds
    /// zero shard-lock acquisitions.
    obs: Option<Arc<Recorder>>,
}

impl<P> ShardDispatcher<P> {
    /// Build a dispatcher over `n_shards` engines configured by `cfg`.
    /// The configuration must be growable: the submit path holds no
    /// global lock, so a mid-admission table stall could not be resolved
    /// by waiting (the software structures virtualize table capacity; the
    /// *residency* bound is [`with_capacity`](Self::with_capacity)).
    pub fn new(n_shards: usize, cfg: &NexusConfig) -> Self {
        ShardDispatcher::with_capacity(n_shards, cfg, ShardCapacity::Unbounded)
    }

    /// Build a bounded dispatcher: each shard admits at most `capacity`
    /// resident tasks. A submission that would overflow any involved
    /// shard reserves nothing, parks on the first full shard, and retries
    /// when that shard's next slice is finished — so submitters
    /// stall exactly like the paper's master core does on a full Task
    /// Pool, and resume on the shard's finish report.
    ///
    /// Deadlock contract: a task's producers must be submitted before it
    /// (StarSs program order) and completions must be driven from other
    /// threads (the runtime's workers) or by the submitter's own help
    /// step ([`submit_helping`](Self::submit_helping)); then the
    /// protocol is deadlock-free down to capacity 1, because a parked
    /// submitter holds no slots and every resident task can eventually
    /// run.
    pub fn with_capacity(n_shards: usize, cfg: &NexusConfig, capacity: ShardCapacity) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(
            cfg.growable,
            "the dispatcher's lock-per-shard submit path cannot stall mid-admission; \
             use a growable config (bound residency via ShardCapacity)"
        );
        ShardDispatcher {
            shards: (0..n_shards)
                .map(|_| ShardCell {
                    slices: Mutex::new(Slices::new(cfg)),
                    space: EventCount::new(),
                    stalls: AtomicU64::new(0),
                    retries_resolved: AtomicU64::new(0),
                    stall_ns: AtomicU64::new(0),
                })
                .collect(),
            residency: Residency::new(n_shards, capacity),
            wake_metrics: WakeMetrics::default(),
            obs: None,
        }
    }

    /// Attach a lifecycle event recorder: the dispatcher emits
    /// `Submitted`/`DepCheckStart`/`DepCheckDone`/`Stalled`/`Resumed`/
    /// `Ready`/`WakePosted`/`WakeDelivered`/`Finished` events into it.
    /// Pass [`Recorder::disabled`] to keep the no-op fast path while
    /// exercising the plumbing.
    pub fn with_recorder(mut self, obs: Arc<Recorder>) -> Self {
        self.obs = Some(obs);
        self
    }

    #[inline]
    fn emit(&self, kind: EventKind, task: u64, shard: u32) {
        if let Some(r) = &self.obs {
            r.emit(kind, task, shard);
        }
    }

    #[inline]
    fn emit_edge(&self, kind: EventKind, task: u64, aux: u64, shard: u32) {
        if let Some(r) = &self.obs {
            r.emit_edge(kind, task, aux, shard);
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard residency bound this dispatcher enforces.
    pub fn capacity(&self) -> ShardCapacity {
        self.residency.capacity()
    }

    /// Wake-path activity counters (see [`WakeCounts`]; exact at
    /// quiescence).
    pub fn wake_counts(&self) -> WakeCounts {
        WakeCounts {
            delivered: self.wake_metrics.delivered.load(Ordering::Relaxed),
            delivery_ns: self.wake_metrics.delivery_ns.load(Ordering::Relaxed),
            delivery_lock_acquisitions: 0,
        }
    }

    /// Per-shard stall/retry counters (exact at quiescence; counters use
    /// relaxed atomics, so concurrent readers see a racy snapshot).
    pub fn capacity_counts(&self) -> Vec<CapacityCounts> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, c)| CapacityCounts {
                stalls_observed: c.stalls.load(Ordering::Relaxed),
                retries_resolved: c.retries_resolved.load(Ordering::Relaxed),
                stall_ns: c.stall_ns.load(Ordering::Relaxed),
                resident: self.residency.resident(s),
            })
            .collect()
    }

    /// [`Residency::try_reserve`], waking anyone parked on a shard whose
    /// slot the rollback handed back.
    fn try_reserve(&self, route: &Route) -> Result<(), u32> {
        self.residency.try_reserve(route).inspect_err(|&full| {
            for s in route.shards().take_while(|&s| s != full) {
                self.shards[s as usize].space.notify_all();
            }
        })
    }

    /// Block until shard `s` may have a free residency slot (the slot
    /// may be taken again before the caller's retry; callers loop).
    fn park_on(&self, s: u32) {
        self.shards[s as usize].space.wait(None, || {
            self.capacity().admits(self.residency.resident(s as usize))
        });
    }

    /// Submit a task. Never blocks on other tasks' *dependency* progress.
    /// Under a bounded capacity it blocks until every involved shard
    /// grants a residency slot (stall/retry, counted per shard);
    /// unbounded dispatchers never block at all. If the task has no
    /// unresolved dependencies the payload comes straight back in
    /// [`SubmitResult::ready`]. Completions must be driven by other
    /// threads; a submitter that can drive them itself uses
    /// [`submit_helping`](Self::submit_helping).
    pub fn submit(&self, fptr: u64, tag: u64, params: &[Param], payload: P) -> SubmitResult<P> {
        self.submit_helping(fptr, tag, params, payload, || false)
    }

    /// [`submit`](Self::submit) with a help step: while a shard is full,
    /// each retry is preceded by one call to `help`. A submitter that
    /// can drive completions itself runs one ready task and returns
    /// `true`, and the reservation is retried at once; `false` means
    /// there was nothing to run, and the submitter parks on the full
    /// shard until its next finish. Helped or parked, the loop is one
    /// stall episode.
    pub fn submit_helping(
        &self,
        fptr: u64,
        tag: u64,
        params: &[Param],
        payload: P,
        mut help: impl FnMut() -> bool,
    ) -> SubmitResult<P> {
        let route = Route::new(params, self.shards.len());
        self.emit(
            EventKind::Submitted,
            tag,
            route.shards().next().unwrap_or(NO_SHARD),
        );
        if self.capacity().is_bounded() {
            // One stall episode per submit call: counted once against the
            // first full shard, resolved once when the reservation lands,
            // with the episode's wall time accrued to that shard.
            let mut episode: Option<(u32, std::time::Instant)> = None;
            while let Err(full) = self.try_reserve(&route) {
                if episode.is_none() {
                    episode = Some((full, std::time::Instant::now()));
                    self.shards[full as usize]
                        .stalls
                        .fetch_add(1, Ordering::Relaxed);
                    self.emit(EventKind::Stalled, tag, full);
                }
                if !help() {
                    self.park_on(full);
                }
            }
            if let Some((first, t0)) = episode {
                let cell = &self.shards[first as usize];
                cell.stall_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                cell.retries_resolved.fetch_add(1, Ordering::Relaxed);
                self.emit(EventKind::Resumed, tag, first);
            }
        }
        self.submit_reserved(fptr, tag, &route, payload)
    }

    /// Non-blocking [`submit`](Self::submit): where the blocking path
    /// parks the calling thread on a full shard, this returns
    /// [`SubmitError::CapacityFull`] (with the payload handed back) so
    /// the caller owns the retry policy. Also validates the parameter
    /// list — a duplicated address is [`SubmitError::DuplicateAddress`]
    /// instead of a downstream debug assertion. A rejection reserves
    /// nothing and is not counted as a stall episode.
    pub fn try_submit(
        &self,
        fptr: u64,
        tag: u64,
        params: &[Param],
        payload: P,
    ) -> Result<SubmitResult<P>, (SubmitError, P)> {
        if let Some(addr) = duplicate_address(params) {
            return Err((SubmitError::DuplicateAddress { addr }, payload));
        }
        let route = Route::new(params, self.shards.len());
        if let Err(shard) = self.try_reserve(&route) {
            let limit = self.capacity().limit().expect("unbounded always reserves");
            return Err((SubmitError::CapacityFull { shard, limit }, payload));
        }
        self.emit(
            EventKind::Submitted,
            tag,
            route.shards().next().unwrap_or(NO_SHARD),
        );
        Ok(self.submit_reserved(fptr, tag, &route, payload))
    }

    /// The shared admission body: residency slots already reserved.
    /// Takes each involved shard's lock once, one at a time, in route
    /// order.
    fn submit_reserved(&self, fptr: u64, tag: u64, route: &Route, payload: P) -> SubmitResult<P> {
        let first_shard = route.shards().next().unwrap_or(NO_SHARD);
        self.emit(EventKind::DepCheckStart, tag, first_shard);
        let node = Arc::new(Node {
            tag,
            remote: Remote::new(route.len()),
            parts: OnceLock::new(),
            payload: Mutex::new(None),
        });
        let mut parts = Few::default();
        for (s, len, slice) in route.slices() {
            let (td, slice_ready, _) =
                self.shards[s as usize]
                    .lock()
                    .submit(fptr, tag, len, slice, Arc::clone(&node));
            parts.push((s, td));
            if slice_ready {
                // Cannot reach zero: the submission guard is still held.
                node.remote.release();
            }
        }
        node.parts.set(parts).expect("parts set exactly once");
        *node.payload() = Some(payload);
        // DepCheckDone is emitted before the guard release: the guard's
        // AcqRel decrement chain makes it happen-before any waker's
        // `Ready` emission for this task, so per-task event order holds.
        self.emit(EventKind::DepCheckDone, tag, first_shard);
        let ready = node
            .remote
            .release()
            .then(|| node.payload().take().expect("payload stored above"));
        if ready.is_some() {
            self.emit(EventKind::Ready, tag, first_shard);
        }
        SubmitResult {
            ticket: TaskTicket(node),
            ready,
        }
    }

    /// Finish a task that ran. Takes each involved shard's lock once, one
    /// at a time, to release the slice and collect the home records it
    /// kicked off; the remote releases and payload hand-offs happen after
    /// the lock is dropped. Each finished slice releases one residency
    /// slot, the shard's "finish report" a parked submitter resumes on.
    pub fn finish(&self, ticket: TaskTicket<P>) -> FinishReport<P> {
        let mut report = FinishReport::default();
        self.finish_into(ticket, &mut report);
        report
    }

    /// [`finish`](Self::finish) into a report the caller keeps: the
    /// tasks this completion made ready are appended to `report.woken`,
    /// and `report.completed` counts one more.
    pub fn finish_into(&self, ticket: TaskTicket<P>, report: &mut FinishReport<P>) {
        let node = ticket.0;
        let parts = node
            .parts
            .get()
            .expect("finish called before submit completed");
        let mut last_shard = NO_SHARD;
        for (s, td) in parts.iter() {
            self.shards[s as usize]
                .lock()
                .release(td, &mut report.kicked);
            if !report.kicked.is_empty() {
                self.hand_off(node.tag, s, report);
            }
            if self.capacity().is_bounded() {
                self.residency.release(s);
                self.shards[s as usize].space.notify_all();
            }
            last_shard = s;
        }
        report.completed += 1;
        // A parameterless task has no parts: no shard held state for it.
        self.emit(EventKind::Finished, node.tag, last_shard);
    }

    /// The post-lock wake path of one slice release: one remote release
    /// per home record in `report.kicked`; the releaser that reaches zero
    /// takes the payload and reports the task. The events carry the
    /// waker's tag, the realized dependence edge.
    fn hand_off(&self, waker: u64, s: u32, report: &mut FinishReport<P>) {
        let before = report.woken.len();
        let t0 = std::time::Instant::now();
        for wnode in report.kicked.drain(..) {
            if wnode.remote.release() {
                let payload = wnode
                    .payload()
                    .take()
                    .expect("ready task must hold its payload");
                self.emit_edge(EventKind::Ready, wnode.tag, waker, s);
                self.emit_edge(EventKind::WakePosted, wnode.tag, waker, s);
                self.emit(EventKind::WakeDelivered, wnode.tag, s);
                report.woken.push((TaskTicket(wnode), payload));
            }
        }
        let m = &self.wake_metrics;
        m.delivery_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        m.delivered
            .fetch_add((report.woken.len() - before) as u64, Ordering::Relaxed);
    }

    /// Tasks currently admitted and not yet fully retired, summed over
    /// shards as sub-descriptor counts (diagnostics; takes every lock).
    pub fn sub_descriptors_in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|c| c.lock().engine().in_flight())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_core::testsupport::with_watchdog;
    use std::sync::atomic::AtomicU64;

    fn dispatcher(n: usize) -> ShardDispatcher<u64> {
        ShardDispatcher::new(n, &NexusConfig::unbounded())
    }

    /// Run a ready task set to completion single-threadedly, returning
    /// completion count and the order tags became ready.
    fn drain(d: &ShardDispatcher<u64>, mut ready: Vec<(TaskTicket<u64>, u64)>) -> (u64, Vec<u64>) {
        let mut completed = 0;
        let mut order = Vec::new();
        while let Some((ticket, tag)) = ready.pop() {
            order.push(tag);
            let rep = d.finish(ticket);
            completed += rep.completed;
            ready.extend(rep.woken);
        }
        (completed, order)
    }

    #[test]
    fn chain_wakes_in_dependency_order() {
        let d = dispatcher(4);
        let mut ready = Vec::new();
        let r0 = d.submit(1, 0, &[Param::output(0xA0, 4)], 0);
        if let Some(p) = r0.ready {
            ready.push((r0.ticket, p));
        }
        let r1 = d.submit(1, 1, &[Param::input(0xA0, 4), Param::output(0xB0, 4)], 1);
        assert!(r1.ready.is_none(), "t1 depends on t0");
        let r2 = d.submit(1, 2, &[Param::input(0xB0, 4)], 2);
        assert!(r2.ready.is_none(), "t2 depends on t1");
        drop((r1.ticket, r2.ticket)); // tickets resurface via woken
        let (completed, order) = drain(&d, ready);
        assert_eq!(completed, 3);
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(d.sub_descriptors_in_flight(), 0);
        assert_eq!(d.wake_counts().delivered, 2, "two dependents woken");
    }

    #[test]
    fn one_report_carries_wakes_from_two_shards_across_finishes() {
        use nexuspp_core::nth_addr_on_shard;
        let d = dispatcher(4);
        let (a, b) = (nth_addr_on_shard(0, 4, 0), nth_addr_on_shard(1, 4, 0));
        let pa = d.submit(1, 0, &[Param::output(a, 4)], 0);
        let pb = d.submit(1, 1, &[Param::output(b, 4)], 1);
        // Readers of `a`, of `b`, and of both (woken by the second finish).
        for tag in 2..12u64 {
            let params = match tag % 3 {
                0 => vec![Param::input(a, 4)],
                1 => vec![Param::input(b, 4)],
                _ => vec![Param::input(a, 4), Param::input(b, 4)],
            };
            assert!(d.submit(1, tag, &params, tag).ready.is_none());
        }
        let mut report = FinishReport::default();
        d.finish_into(pa.ticket, &mut report);
        let from_a = report.woken.len();
        d.finish_into(pb.ticket, &mut report);
        assert!(
            from_a > 0 && report.woken.len() > from_a,
            "each shard woke some"
        );
        assert_eq!(report.completed, 2);
        let mut tags: Vec<u64> = report.woken.iter().map(|&(_, tag)| tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (2..12).collect::<Vec<_>>(), "each woken exactly once");
        assert_eq!(d.wake_counts().delivered, 10);
        // The same report retires the readers, which wake nothing.
        let readers: Vec<_> = report.woken.drain(..).collect();
        for (ticket, _) in readers {
            d.finish_into(ticket, &mut report);
        }
        assert!(report.woken.is_empty());
        assert_eq!(report.completed, 12);
        assert_eq!(d.sub_descriptors_in_flight(), 0);
    }

    #[test]
    fn parameterless_task_completes_immediately() {
        let d = dispatcher(2);
        let r = d.submit(1, 9, &[], 9);
        let p = r.ready.expect("no deps possible");
        let rep = d.finish(r.ticket);
        assert_eq!(p, 9);
        assert_eq!(rep.completed, 1);
        assert!(rep.woken.is_empty());
    }

    #[test]
    fn concurrent_independent_churn_conserves_completions() {
        for shards in [1usize, 4] {
            let d = Arc::new(ShardDispatcher::<u64>::new(
                shards,
                &NexusConfig::unbounded(),
            ));
            let total_completed = Arc::new(AtomicU64::new(0));
            const THREADS: u64 = 4;
            const PER_THREAD: u64 = 500;
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let d = Arc::clone(&d);
                    let total = Arc::clone(&total_completed);
                    std::thread::spawn(move || {
                        for i in 0..PER_THREAD {
                            let tag = t * PER_THREAD + i;
                            let addr = 0x10_0000 + tag * 64;
                            let r = d.submit(1, tag, &[Param::output(addr, 4)], tag);
                            // Independent tasks are always immediately ready.
                            let p = r.ready.expect("independent task must be ready");
                            assert_eq!(p, tag);
                            let rep = d.finish(r.ticket);
                            assert!(rep.woken.is_empty(), "no dependencies exist");
                            total.fetch_add(rep.completed, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                total_completed.load(Ordering::Relaxed),
                THREADS * PER_THREAD,
                "shards={shards}: every task completed exactly once"
            );
            assert_eq!(d.sub_descriptors_in_flight(), 0);
        }
    }

    #[test]
    fn unbounded_dispatcher_reports_zero_stalls() {
        let d = dispatcher(4);
        for i in 0..32u64 {
            let params = [Param::output(0x9000 + i * 64, 4)];
            let r = d.submit(1, i, &params, i);
            d.finish(r.ticket);
            // The service path: no residency slot may be taken where
            // none will be released.
            let r = d.try_submit(1, i, &params, i).expect("unbounded admits");
            d.finish(r.ticket);
        }
        for (s, c) in d.capacity_counts().iter().enumerate() {
            assert_eq!(*c, CapacityCounts::default(), "shard {s}");
        }
    }

    #[test]
    fn dropping_a_dispatcher_frees_every_parked_payload() {
        // The producer never finishes, so every consumer payload stays
        // parked in its home record; dropping the dispatcher must free
        // each exactly once (observed through the `Arc` strong count).
        let tracker = Arc::new(());
        let d = ShardDispatcher::<Arc<()>>::new(4, &NexusConfig::unbounded());
        let producer = d.submit(1, 0, &[Param::output(0x100, 4)], Arc::clone(&tracker));
        drop(producer.ready.expect("producer is independent"));
        for c in 0..16u64 {
            let r = d.submit(1, 1 + c, &[Param::input(0x100, 4)], Arc::clone(&tracker));
            assert!(r.ready.is_none(), "consumers park behind the producer");
            drop(r.ticket);
        }
        assert_eq!(Arc::strong_count(&tracker), 17);
        drop(producer.ticket);
        drop(d);
        assert_eq!(Arc::strong_count(&tracker), 1, "parked payloads leaked");
    }

    #[test]
    fn parked_submitter_resumes_on_finish_and_counts_one_episode() {
        with_watchdog(
            30,
            "parked_submitter_resumes_on_finish_and_counts_one_episode",
            || {
                // One shard, capacity 2: two residents fill it; a third submission
                // parks on another thread and resumes when a resident finishes.
                let d = Arc::new(ShardDispatcher::<u64>::with_capacity(
                    1,
                    &NexusConfig::unbounded(),
                    ShardCapacity::Bounded(2),
                ));
                let r0 = d.submit(1, 0, &[Param::output(0x100, 4)], 0);
                let r1 = d.submit(1, 1, &[Param::output(0x200, 4)], 1);
                assert_eq!(d.capacity_counts()[0].resident, 2);
                let parked = {
                    let d = Arc::clone(&d);
                    std::thread::spawn(move || {
                        let r = d.submit(1, 2, &[Param::output(0x300, 4)], 2);
                        let p = r.ready.expect("independent task");
                        (r.ticket, p)
                    })
                };
                // Deterministic rendezvous: the stall is observed before we free
                // the slot the parked submitter needs.
                while d.capacity_counts()[0].stalls_observed == 0 {
                    std::thread::yield_now();
                }
                assert_eq!(d.capacity_counts()[0].retries_resolved, 0);
                let rep = d.finish(r0.ticket);
                assert_eq!(rep.completed, 1);
                let (t2, p2) = parked.join().unwrap();
                assert_eq!(p2, 2);
                d.finish(r1.ticket);
                d.finish(t2);
                let c = &d.capacity_counts()[0];
                assert_eq!(
                    (c.stalls_observed, c.retries_resolved, c.resident),
                    (1, 1, 0)
                );
            },
        );
    }

    #[test]
    fn try_submit_hands_the_payload_back_instead_of_parking() {
        let d = ShardDispatcher::<u64>::with_capacity(
            1,
            &NexusConfig::unbounded(),
            ShardCapacity::Bounded(1),
        );
        // A duplicated address is rejected before any slot is reserved.
        let dup = [Param::input(0x100, 4), Param::output(0x100, 4)];
        match d.try_submit(1, 0, &dup, 7) {
            Err((SubmitError::DuplicateAddress { addr }, p)) => {
                assert_eq!((addr, p), (0x100, 7));
            }
            other => panic!("expected DuplicateAddress, got {other:?}"),
        }
        assert_eq!(d.capacity_counts()[0].resident, 0);

        let r0 = d
            .try_submit(1, 0, &[Param::output(0x100, 4)], 0)
            .expect("slot free");
        // The shard is now full: where submit() would park, try_submit
        // reports the full shard and returns the payload unchanged.
        match d.try_submit(1, 1, &[Param::output(0x200, 4)], 1) {
            Err((SubmitError::CapacityFull { shard, limit }, p)) => {
                assert_eq!((shard, limit, p), (0, 1, 1));
            }
            other => panic!("expected CapacityFull, got {other:?}"),
        }
        let c = &d.capacity_counts()[0];
        assert_eq!((c.stalls_observed, c.resident), (0, 1));

        d.finish(r0.ticket);
        let r1 = d
            .try_submit(1, 1, &[Param::output(0x200, 4)], 1)
            .expect("slot released by finish");
        assert_eq!(r1.ready, Some(1));
        d.finish(r1.ticket);
        assert_eq!(d.capacity_counts()[0].resident, 0);
    }

    #[test]
    fn capacity_one_concurrent_churn_is_deadlock_free_and_balanced() {
        with_watchdog(
            30,
            "capacity_one_concurrent_churn_is_deadlock_free_and_balanced",
            || {
                // Four threads hammer a capacity-1 dispatcher with independent
                // tasks: every slot conflict parks a submitter that some other
                // thread's finish must resume. At quiescence every stall episode
                // is resolved and every task completed exactly once.
                for shards in [1usize, 4] {
                    let d = Arc::new(ShardDispatcher::<u64>::with_capacity(
                        shards,
                        &NexusConfig::unbounded(),
                        ShardCapacity::Bounded(1),
                    ));
                    let total = Arc::new(AtomicU64::new(0));
                    const THREADS: u64 = 4;
                    const PER_THREAD: u64 = 300;
                    let handles: Vec<_> = (0..THREADS)
                        .map(|t| {
                            let d = Arc::clone(&d);
                            let total = Arc::clone(&total);
                            std::thread::spawn(move || {
                                for i in 0..PER_THREAD {
                                    let tag = t * PER_THREAD + i;
                                    let addr = 0x50_0000 + tag * 64;
                                    let r = d.submit(1, tag, &[Param::output(addr, 4)], tag);
                                    let p = r.ready.expect("independent task must be ready");
                                    assert_eq!(p, tag);
                                    total
                                        .fetch_add(d.finish(r.ticket).completed, Ordering::Relaxed);
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                    assert_eq!(total.load(Ordering::Relaxed), THREADS * PER_THREAD);
                    for (s, c) in d.capacity_counts().iter().enumerate() {
                        assert_eq!(
                            c.stalls_observed, c.retries_resolved,
                            "shards={shards} shard {s}: unresolved stall episodes"
                        );
                        assert_eq!(c.resident, 0, "shards={shards} shard {s} leaked slots");
                    }
                    assert_eq!(d.sub_descriptors_in_flight(), 0);
                }
            },
        );
    }

    #[test]
    fn concurrent_producer_consumer_fanout() {
        // One producer address per thread-pair; consumers park until the
        // producer finishes, then surface through some finisher's report.
        let d = Arc::new(dispatcher(4));
        let woken_total = Arc::new(AtomicU64::new(0));
        let completed_total = Arc::new(AtomicU64::new(0));
        const PAIRS: u64 = 8;
        const CONSUMERS: u64 = 16;
        let handles: Vec<_> = (0..PAIRS)
            .map(|p| {
                let d = Arc::clone(&d);
                let woken = Arc::clone(&woken_total);
                let completed = Arc::clone(&completed_total);
                std::thread::spawn(move || {
                    let addr = 0x20_0000 + p * 0x1000;
                    let prod = d.submit(1, p, &[Param::output(addr, 4)], p);
                    let prod_payload = prod.ready.expect("producer is independent");
                    let mut consumer_tickets = Vec::new();
                    for c in 0..CONSUMERS {
                        let tag = 1000 + p * CONSUMERS + c;
                        let r = d.submit(1, tag, &[Param::input(addr, 4)], tag);
                        assert!(r.ready.is_none(), "consumer must wait for producer");
                        consumer_tickets.push(r.ticket);
                    }
                    drop(consumer_tickets); // resurface via woken
                    assert_eq!(prod_payload, p);
                    let mut queue = vec![(prod.ticket, prod_payload)];
                    while let Some((t, _)) = queue.pop() {
                        let rep = d.finish(t);
                        woken.fetch_add(rep.woken.len() as u64, Ordering::Relaxed);
                        completed.fetch_add(rep.completed, Ordering::Relaxed);
                        queue.extend(rep.woken);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(woken_total.load(Ordering::Relaxed), PAIRS * CONSUMERS);
        assert_eq!(
            completed_total.load(Ordering::Relaxed),
            PAIRS * (CONSUMERS + 1)
        );
        assert_eq!(d.sub_descriptors_in_flight(), 0);
        assert_eq!(d.wake_counts().delivered, PAIRS * CONSUMERS);
    }
}
