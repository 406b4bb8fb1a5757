//! The concurrent sharded dispatcher: per-shard locks, atomic cross-shard
//! readiness aggregation, and deferred-finish submission rings.
//!
//! This is the threaded form of [`ShardedEngine`](crate::ShardedEngine):
//! each shard is a [`DependencyEngine`] behind its own
//! [`parking_lot::Mutex`], so admits and finishes that touch different
//! shards proceed in parallel — the centralization the single-engine
//! runtime suffers (one global engine lock on every task completion) is
//! gone.
//!
//! ## Cross-shard readiness
//!
//! Each task carries an atomic **remote dependence counter** initialized
//! to `shards_touched + 1`. Every shard slice found (or made)
//! conflict-free decrements it; the extra `+1` is a *submission guard*
//! released only after every slice is admitted and the task's payload is
//! stored, so a concurrent wake can never schedule a half-submitted task.
//! Whoever performs the transition to zero — submitter or waker — owns
//! the payload and schedules the task, exactly once.
//!
//! ## Deferred-finish rings (batched submission)
//!
//! Finishing a task does not lock its shards directly. Instead the
//! per-shard release records are pushed onto each shard's
//! [`SegQueue`]-based ring, and the finisher then drains every involved
//! shard's ring under that shard's lock. Under contention a single lock
//! acquisition retires *many* queued completions (whoever gets the lock
//! drains everyone's records — flat combining), and a finisher whose
//! records were already drained by a concurrent holder skips the lock
//! entirely. This amortizes locking the way the paper's buffered TP
//! writes amortize Task Pool port pressure.
//!
//! ## Lock-free wake lists (kick-off bypasses the shard lock)
//!
//! Finding which tasks a completion makes ready requires the shard lock
//! (it reads the Dependence Table), but *delivering* those wakes does
//! not. The ring drain only collects the woken home records under the lock; the remote decrement,
//! the payload handoff, and the queueing of the `(task, payload)` wake
//! record all happen **after the shard lock is released**, posting
//! lock-free onto the shard's [`PushList`]-based wake list — the software
//! form of the paper's Maestro pushing kick-off notifications out of the
//! Dependence Tables without serializing table access. The drain-to-
//! scheduler step is claimed by a CAS on a per-shard owner flag
//! (mirroring the rings' whoever-holds-it-drains-everyone protocol): the
//! claim winner moves every queued record into its [`FinishReport`],
//! re-checking after release so a record posted during its drain is never
//! stranded; losers simply skip — their wakes surface in the owner's
//! report.

use crate::engine::route_params;
use crossbeam::queue::{PushList, SegQueue};
use nexuspp_core::{
    duplicate_address, DependencyEngine, NexusConfig, ShardCapacity, SubmitError, TdIndex,
};
use nexuspp_obs::{EventKind, Recorder, NO_SHARD};
use nexuspp_trace::Param;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Kept only because `crates/bench/src/bin/e2e/` passes
/// `WakeMode::default()` to the runtime's `with_recorder`; there is one
/// wake path and the value selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakeMode {
    /// Wakes post to a lock-free MPSC [`PushList`] per shard *outside*
    /// the shard lock; the drain-to-report step is claimed by CAS.
    #[default]
    LockFree,
}

/// The home record of a task in flight.
#[derive(Debug)]
struct Node<P> {
    tag: u64,
    /// Remote dependence counter: unready shard slices, plus one
    /// submission guard released at the end of `submit`.
    pending: AtomicU32,
    /// Shard slices whose finish record has not been drained yet.
    parts_left: AtomicU32,
    /// `(shard, sub-descriptor)` per involved shard; set once at the end
    /// of `submit` (readers run strictly after `submit` returns).
    parts: OnceLock<Vec<(u32, TdIndex)>>,
    /// The caller's payload, surrendered to whoever makes the task ready.
    payload: Mutex<Option<P>>,
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

/// Outcome of a finish call, including work retired on behalf of
/// concurrent finishers whose ring records this call drained.
#[derive(Debug)]
pub struct FinishReport<P> {
    /// Tasks made ready by the completions this call drained, with their
    /// payloads. May contain tasks submitted by other threads.
    pub woken: Vec<(TaskTicket<P>, P)>,
    /// Tasks whose last shard slice was retired by this call (the unit
    /// a quiescence counter should track). May count other threads'
    /// tasks; every task is counted exactly once across all calls.
    pub completed: u64,
}

impl<P> Default for FinishReport<P> {
    fn default() -> Self {
        FinishReport {
            woken: Vec::new(),
            completed: 0,
        }
    }
}

/// One release record: a sub-descriptor to finish, plus its home record.
type FinRecord<P> = (Arc<Node<P>>, TdIndex);

/// One wake record: a task made ready, with the payload its runner needs.
type WakeRecord<P> = (Arc<Node<P>>, P);

/// Wake-path activity counters, aggregated across shards (Relaxed
/// atomics: exact at quiescence, a racy snapshot while finishers run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeCounts {
    /// Wake records handed to finish reports.
    pub delivered: u64,
    /// Drain-to-report attempts (one per involved shard per finish).
    pub deliveries: u64,
    /// Nanoseconds spent in the drain-to-report step: an atomic check
    /// plus a CAS-claimed drain that never waits on the shard lock.
    pub delivery_ns: u64,
    /// Kept only because `crates/bench/src/bin/e2e/` reads it: the
    /// drain-to-report step takes no shard lock, so this is always 0.
    pub delivery_lock_acquisitions: u64,
}

#[derive(Debug, Default)]
struct WakeMetrics {
    delivered: AtomicU64,
    deliveries: AtomicU64,
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
    /// Deferred-finish submission ring.
    ring: SegQueue<FinRecord<P>>,
    /// Lock-free wake list: finishers post wake records here without
    /// touching `state`'s lock.
    wakes: PushList<WakeRecord<P>>,
    /// Drain ownership for `wakes`: claimed by CAS, at most one drainer
    /// at a time (the single-consumer end of the MPSC list).
    wake_owner: AtomicBool,
    state: Mutex<ShardState<P>>,
    /// Tasks holding a residency slot here (reserved before admission,
    /// released as each finish record is drained).
    resident: AtomicU32,
    /// Pairs with `unpark`: submitters blocked on a full shard wait here.
    park: Mutex<()>,
    unpark: Condvar,
    stalls: AtomicU64,
    retries_resolved: AtomicU64,
    stall_ns: AtomicU64,
}

struct ShardState<P> {
    engine: DependencyEngine,
    /// Sub-descriptor index → home record of the owning task.
    owner: Vec<Option<Arc<Node<P>>>>,
}

/// N dependency engines behind per-shard locks, aggregating readiness
/// with atomics. `P` is the payload delivered when a task becomes ready
/// (a closure + access grants in the runtime; `u64` tags in the stress
/// harness).
pub struct ShardDispatcher<P> {
    shards: Box<[ShardCell<P>]>,
    capacity: ShardCapacity,
    wake_metrics: WakeMetrics,
    /// Lifecycle event sink. `None` (the default) is the zero-cost
    /// production shape: every emission site is one `Option` branch.
    /// Recording itself is lock-free (see `nexuspp_obs::Recorder`), so
    /// attaching an enabled recorder adds zero shard-lock acquisitions.
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
    /// when that shard's next finish record is drained — so submitters
    /// stall exactly like the paper's master core does on a full Task
    /// Pool, and resume on the shard's finish report.
    ///
    /// Deadlock contract: a task's producers must be submitted before it
    /// (StarSs program order) and completions must be driven from other
    /// threads (the runtime's workers); then the protocol is deadlock-free
    /// down to capacity 1, because a parked submitter holds no slots and
    /// every resident task can eventually run.
    pub fn with_capacity(n_shards: usize, cfg: &NexusConfig, capacity: ShardCapacity) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(
            cfg.growable,
            "the dispatcher's lock-per-shard submit path cannot stall mid-admission; \
             use a growable config (bound residency via ShardCapacity)"
        );
        capacity.validate();
        ShardDispatcher {
            shards: (0..n_shards)
                .map(|_| ShardCell {
                    ring: SegQueue::new(),
                    wakes: PushList::new(),
                    wake_owner: AtomicBool::new(false),
                    state: Mutex::new(ShardState {
                        engine: DependencyEngine::new(cfg),
                        owner: Vec::new(),
                    }),
                    resident: AtomicU32::new(0),
                    park: Mutex::new(()),
                    unpark: Condvar::new(),
                    stalls: AtomicU64::new(0),
                    retries_resolved: AtomicU64::new(0),
                    stall_ns: AtomicU64::new(0),
                })
                .collect(),
            capacity,
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

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.obs.as_ref()
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
        self.capacity
    }

    /// Wake-path activity counters (see [`WakeCounts`]; exact at
    /// quiescence).
    pub fn wake_counts(&self) -> WakeCounts {
        WakeCounts {
            delivered: self.wake_metrics.delivered.load(Ordering::Relaxed),
            deliveries: self.wake_metrics.deliveries.load(Ordering::Relaxed),
            delivery_ns: self.wake_metrics.delivery_ns.load(Ordering::Relaxed),
            delivery_lock_acquisitions: 0,
        }
    }

    /// Undelivered wake records queued per shard (diagnostics; racy while
    /// finishers run, exact at quiescence — zero once every finish report
    /// has been consumed).
    pub fn wake_list_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|c| c.wakes.len()).collect()
    }

    /// Per-shard stall/retry counters (exact at quiescence; counters use
    /// relaxed atomics, so concurrent readers see a racy snapshot).
    pub fn capacity_counts(&self) -> Vec<CapacityCounts> {
        self.shards
            .iter()
            .map(|c| CapacityCounts {
                stalls_observed: c.stalls.load(Ordering::Relaxed),
                retries_resolved: c.retries_resolved.load(Ordering::Relaxed),
                stall_ns: c.stall_ns.load(Ordering::Relaxed),
                resident: c.resident.load(Ordering::Relaxed) as usize,
            })
            .collect()
    }

    /// Release `n` residency slots on `s` and wake parked submitters.
    /// The ordering here is the lost-wakeup guard: decrement first, then
    /// notify under the park mutex, so a submitter that observed "full"
    /// under that mutex is already inside `wait` when the notify lands.
    fn release_slots(&self, s: usize, n: u32) {
        let cell = &self.shards[s];
        cell.resident.fetch_sub(n, Ordering::AcqRel);
        let _guard = cell.park.lock();
        cell.unpark.notify_all();
    }

    /// Try to reserve one residency slot on every involved shard; on the
    /// first full shard, roll back (waking anyone the rollback frees a
    /// slot for) and report it.
    fn try_reserve(&self, groups: &[(u32, Vec<Param>)]) -> Result<(), u32> {
        for (i, (s, _)) in groups.iter().enumerate() {
            let cell = &self.shards[*s as usize];
            let reserved = cell
                .resident
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| {
                    self.capacity.admits(r as usize).then_some(r + 1)
                })
                .is_ok();
            if !reserved {
                for (t, _) in &groups[..i] {
                    self.release_slots(*t as usize, 1);
                }
                return Err(*s);
            }
        }
        Ok(())
    }

    /// Block until shard `s` has a free residency slot (the slot may be
    /// taken again before the caller's retry; callers loop).
    fn park_on(&self, s: u32) {
        let cell = &self.shards[s as usize];
        let mut guard = cell.park.lock();
        while !self
            .capacity
            .admits(cell.resident.load(Ordering::Acquire) as usize)
        {
            cell.unpark.wait(&mut guard);
        }
    }

    /// Submit a task. Takes each involved shard's lock once, one at a
    /// time in first-touch parameter order — never two locks at once, so
    /// no lock-ordering discipline is needed — and never blocks on other
    /// tasks' *dependency* progress. Under a bounded capacity it blocks
    /// until every involved shard grants a residency slot (stall/retry,
    /// counted per shard); unbounded dispatchers never block at all. If
    /// the task has no unresolved dependencies the payload comes straight
    /// back in [`SubmitResult::ready`].
    pub fn submit(&self, fptr: u64, tag: u64, params: &[Param], payload: P) -> SubmitResult<P> {
        let groups = route_params(params, self.shards.len());
        self.emit(
            EventKind::Submitted,
            tag,
            groups.first().map_or(NO_SHARD, |g| g.0),
        );
        if self.capacity.is_bounded() {
            // One stall episode per submit call: counted once against the
            // first full shard, resolved once when the reservation lands,
            // with the episode's wall time accrued to that shard.
            let mut episode: Option<(u32, std::time::Instant)> = None;
            loop {
                match self.try_reserve(&groups) {
                    Ok(()) => break,
                    Err(full) => {
                        if episode.is_none() {
                            episode = Some((full, std::time::Instant::now()));
                            self.shards[full as usize]
                                .stalls
                                .fetch_add(1, Ordering::Relaxed);
                            self.emit(EventKind::Stalled, tag, full);
                        }
                        self.park_on(full);
                    }
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
        self.submit_reserved(fptr, tag, groups, payload)
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
        let groups = route_params(params, self.shards.len());
        if let Err(full) = self.try_reserve(&groups) {
            let limit = self.capacity.limit().expect("unbounded always admits");
            return Err((SubmitError::CapacityFull { shard: full, limit }, payload));
        }
        self.emit(
            EventKind::Submitted,
            tag,
            groups.first().map_or(NO_SHARD, |g| g.0),
        );
        Ok(self.submit_reserved(fptr, tag, groups, payload))
    }

    /// The shared admission body: residency slots already reserved.
    fn submit_reserved(
        &self,
        fptr: u64,
        tag: u64,
        groups: Vec<(u32, Vec<Param>)>,
        payload: P,
    ) -> SubmitResult<P> {
        let first_shard = groups.first().map_or(NO_SHARD, |g| g.0);
        self.emit(EventKind::DepCheckStart, tag, first_shard);
        let node = Arc::new(Node {
            tag,
            pending: AtomicU32::new(groups.len() as u32 + 1),
            parts_left: AtomicU32::new(groups.len() as u32),
            parts: OnceLock::new(),
            payload: Mutex::new(None),
        });
        let mut parts = Vec::with_capacity(groups.len());
        for (s, sub) in groups {
            let mut st = self.shards[s as usize].state.lock();
            let (td, slice_ready) = st
                .engine
                .submit(fptr, tag, sub)
                .expect("growable engine cannot reject");
            let i = td.0 as usize;
            if i >= st.owner.len() {
                st.owner.resize_with(i + 1, || None);
            }
            st.owner[i] = Some(Arc::clone(&node));
            drop(st);
            parts.push((s, td));
            if slice_ready {
                // Cannot reach zero: the submission guard is still held.
                node.pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
        node.parts.set(parts).expect("parts set exactly once");
        *node.payload.lock() = Some(payload);
        // DepCheckDone is emitted before the guard release: the guard's
        // AcqRel decrement chain makes it happen-before any waker's
        // `Ready` emission for this task, so per-task event order holds.
        self.emit(EventKind::DepCheckDone, tag, first_shard);
        // Release the submission guard. Whoever performs the transition
        // to zero — this thread or a concurrent waker that decremented
        // first — takes the payload and schedules the task.
        let ready = if node.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            Some(node.payload.lock().take().expect("payload stored above"))
        } else {
            None
        };
        if ready.is_some() {
            self.emit(EventKind::Ready, tag, first_shard);
        }
        SubmitResult {
            ticket: TaskTicket(node),
            ready,
        }
    }

    /// Finish a task that ran: push its per-shard release records onto the
    /// submission rings and drain every involved shard. The report may
    /// include wakes and completions belonging to concurrent finishers
    /// (and this task's own may surface in theirs) — callers treat both
    /// uniformly, so nothing is lost.
    pub fn finish(&self, ticket: TaskTicket<P>) -> FinishReport<P> {
        let node = ticket.0;
        let parts = node
            .parts
            .get()
            .expect("finish called before submit completed");
        let mut report = FinishReport::default();
        if parts.is_empty() {
            // Parameterless task: no shard holds state for it.
            report.completed = 1;
            self.emit(EventKind::Finished, node.tag, NO_SHARD);
            return report;
        }
        for &(s, td) in parts {
            self.shards[s as usize].ring.push((Arc::clone(&node), td));
        }
        for &(s, _) in parts {
            self.drain_shard(s as usize, &mut report);
        }
        report
    }

    /// Drain one shard's ring (under its lock) and then deliver the
    /// shard's queued wakes. The ring drain skips entirely when a
    /// concurrent holder already consumed every queued record; each
    /// drained record releases one residency slot — the shard's "finish
    /// report" a parked submitter resumes on. Wake delivery always runs:
    /// this finisher's wakes may be sitting on the list even when its
    /// ring records were drained by someone else.
    fn drain_shard(&self, s: usize, report: &mut FinishReport<P>) {
        if !self.shards[s].ring.is_empty() {
            self.drain_ring(s, report);
        }
        let m = &self.wake_metrics;
        m.deliveries.fetch_add(1, Ordering::Relaxed);
        if self.shards[s].wakes.is_empty() {
            // The fast path: one atomic load proves there is nothing to
            // deliver, so the step costs nothing and is not timed. (This
            // is the same emptiness check the claim loop starts with,
            // hoisted.)
            return;
        }
        let before = report.woken.len();
        let t0 = std::time::Instant::now();
        self.deliver_wakes(s, report);
        m.delivery_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        m.delivered
            .fetch_add((report.woken.len() - before) as u64, Ordering::Relaxed);
    }

    /// Ring drain: the lock covers only table access (the
    /// engine release and the owner lookup of each woken sub-descriptor).
    /// Everything wake-shaped — remote decrements, payload handoffs, the
    /// wake-list posts — happens after the lock is dropped.
    fn drain_ring(&self, s: usize, report: &mut FinishReport<P>) {
        let cell = &self.shards[s];
        let mut drained = 0u32;
        // Each woken home record is carried with its waker's tag so the
        // post-lock wake path can stamp the realized dependence edge
        // onto the `Ready`/`WakePosted` events.
        let mut woken_nodes: Vec<(Arc<Node<P>>, u64)> = Vec::new();
        let mut finished: Vec<u64> = Vec::new();
        let mut st = cell.state.lock();
        while let Some((node, td)) = cell.ring.pop() {
            let fin = st.engine.finish(td);
            st.owner[td.0 as usize] = None;
            drained += 1;
            for woken in fin.newly_ready {
                woken_nodes.push((
                    st.owner[woken.0 as usize]
                        .as_ref()
                        .expect("woken sub-descriptor must have an owner")
                        .clone(),
                    node.tag,
                ));
            }
            if node.parts_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                report.completed += 1;
                finished.push(node.tag);
            }
        }
        drop(st);
        for tag in finished {
            self.emit(EventKind::Finished, tag, s as u32);
        }
        // Post wakes lock-free. Exactly one decrement per woken slice,
        // and exactly one thread — whoever performs the transition to
        // zero — takes the payload and posts.
        for (wnode, waker) in woken_nodes {
            if wnode.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let payload = wnode
                    .payload
                    .lock()
                    .take()
                    .expect("ready task must hold its payload");
                self.emit_edge(EventKind::Ready, wnode.tag, waker, s as u32);
                self.emit_edge(EventKind::WakePosted, wnode.tag, waker, s as u32);
                cell.wakes.push((wnode, payload));
            }
        }
        if drained > 0 && self.capacity.is_bounded() {
            self.release_slots(s, drained);
        }
    }

    /// Wake delivery: claim drain ownership by CAS (the
    /// wake list is MPSC — one consumer at a time), move every queued
    /// record into the report, release, and re-check. The re-check after
    /// release is the lost-wake guard: a finisher that posted during our
    /// drain and failed its own claim is guaranteed (SeqCst push before
    /// failed SeqCst claim, claim before our release) to have its record
    /// visible to this loop's next `is_empty`, so every posted wake is
    /// delivered by the poster or by a current-or-future owner. Never
    /// touches the shard lock.
    fn deliver_wakes(&self, s: usize, report: &mut FinishReport<P>) {
        let cell = &self.shards[s];
        loop {
            if cell.wakes.is_empty() {
                return;
            }
            if cell.wake_owner.swap(true, Ordering::SeqCst) {
                // A concurrent owner is draining; it re-checks after
                // releasing, so our records cannot be stranded.
                return;
            }
            let before = report.woken.len();
            for (node, payload) in cell.wakes.drain() {
                self.emit(EventKind::WakeDelivered, node.tag, s as u32);
                report.woken.push((TaskTicket(node), payload));
            }
            cell.wake_owner.store(false, Ordering::SeqCst);
            if report.woken.len() == before {
                // Counted but not yet published: the list's length is
                // incremented before the head CAS, so a non-empty check
                // can race a push that has no node linked yet. Returning
                // here could strand that record (its poster may have
                // already lost the claim to us), so keep looping — but
                // hand the publisher the CPU instead of hot-claiming an
                // empty chain.
                std::thread::yield_now();
            }
        }
    }

    /// Tasks currently admitted and not yet fully retired, summed over
    /// shards as sub-descriptor counts (diagnostics; takes every lock).
    pub fn sub_descriptors_in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|c| c.state.lock().engine.in_flight())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let counts = d.wake_counts();
        assert_eq!(counts.delivered, 2, "two dependents woken");
        assert!(d.wake_list_depths().iter().all(|&n| n == 0));
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
            let r = d.submit(1, i, &[Param::output(0x9000 + i * 64, 4)], i);
            d.finish(r.ticket);
        }
        for (s, c) in d.capacity_counts().iter().enumerate() {
            assert_eq!(*c, CapacityCounts::default(), "shard {s}");
        }
    }

    #[test]
    fn parked_submitter_resumes_on_finish_and_counts_one_episode() {
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
                            total.fetch_add(d.finish(r.ticket).completed, Ordering::Relaxed);
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
        assert!(
            d.wake_list_depths().iter().all(|&n| n == 0),
            "every posted wake must be delivered by quiescence"
        );
    }
}
