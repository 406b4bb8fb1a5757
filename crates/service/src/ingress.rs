//! Caller-runs admission: one [`pump`], run where tasks are sent and
//! retired, program order per tenant.
//!
//! A lane is a bounded queue plus two one-task slots, and admitting
//! from it — `pump` — runs under the lane's lock on whichever thread
//! has a reason to: the client that just sent into the lane, or the
//! worker that just retired a task and so freed budget or shard slots
//! (the runtime's settle call, [`settle_on_retire`]) — both through
//! [`Lane::try_pump`] — and, at shutdown, the thread that called it
//! ([`drain`]). The service has no thread of its own: as the paper's
//! master core writes each task into the Task Pool itself, a task goes
//! from its client straight to a worker.
//!
//! Neither a client nor a worker waits for a lane. One that finds it
//! locked leaves a request (`Queue::again`) and goes on; the holder
//! looks for one after it unlocks and pumps again — a delegation lock
//! on one lane, as in Nanos6's dependency system. A pump has no quota:
//! it admits until the lane is empty or blocked, and every task it
//! admitted will retire, whose settle call pumps the lane again.
//!
//! `pump` is the only caller of the runtime's non-blocking submission
//! API, which keeps the two backpressure layers composable without ever
//! parking a client:
//!
//! 1. **Budget** — before a task may occupy runtime state it is charged
//!    against its tenant's budget lane. A denial leaves the task in the
//!    lane's *hold slot* (program order is part of the dependence
//!    semantics, so a lane never reorders). Only a retirement can clear
//!    it, so a pump that finds the budget still at its cap leaves the
//!    held task without charging again.
//! 2. **Capacity** — the runtime's retryable
//!    [`SubmitError`](nexuspp_core::SubmitError) hands the lowered task
//!    back as a [`PendingSpawn`]; it parks in the lane's *retry slot*
//!    until a finish frees shard slots. Every retirement's settle call
//!    comes after its finish and pumps each lane whose retry slot is
//!    occupied (`Lane::parked`), whichever lane, or none, the retired
//!    task belonged to.
//!
//! Both slots block only their own lane, which is exactly the isolation
//! property the multi-tenant tests assert. The credit is data, not a
//! closure: the client's body box is the runtime's, the task carries its
//! tenant, and the runtime settles it once at retirement — executed or
//! cancel-finished. A charged task that never reaches the runtime (an
//! invalid submission, a retry slot the hard deadline discards) is
//! settled where it is dropped.

use crate::metrics::TenantMetrics;
use crate::task::{IngressShared, ServiceTask};
use nexuspp_core::{EventCount, TenantId};
use nexuspp_runtime::{PendingSpawn, Runtime};
use nexuspp_shard::BudgetLane;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// Install the runtime's settle call for `lanes`: a retired task is
/// settled on its tenant's lane, which is then pumped from the retiring
/// thread — the freed budget and shard slots are what a held or parked
/// task waits for — and so is every lane with a parked retry slot. A
/// tenant no lane has (a task spawned around the service) is not
/// settled.
///
/// The call owns the lanes, which own the runtime; the runtime drops it
/// at shutdown, which breaks that cycle.
pub(crate) fn settle_on_retire(rt: &Runtime, lanes: &[Arc<Lane>]) {
    let mut lanes = lanes.to_vec();
    lanes.sort_by_key(|lane| lane.tenant);
    rt.on_retire(move |tenant, executed| {
        if let Ok(i) = lanes.binary_search_by_key(&tenant, |lane| lane.tenant) {
            lanes[i].settle(executed);
            lanes[i].try_pump();
        }
        // Pairs with the fence a pump puts between parking a retry slot
        // and retrying it: either that retry sees the shard slots this
        // finish released, or this load sees the slot parked.
        fence(Ordering::SeqCst);
        for lane in &lanes {
            if lane.parked.load(Ordering::Relaxed) {
                lane.try_pump();
            }
        }
    });
}

/// One tenant's lane. Handles and the settle call reach everything
/// through it.
pub(crate) struct Lane {
    pub(crate) tenant: TenantId,
    pub(crate) shared: Arc<IngressShared>,
    pub(crate) metrics: TenantMetrics,
    /// Notified when a pump pops the lane (room for one more send), and
    /// after every `try_pump` once the gate is sealed (the shutdown
    /// drain waits on it).
    pub(crate) space: EventCount,
    budget: BudgetLane,
    /// Sent and not yet popped. Its own lock, taken only briefly, so a
    /// client's send never waits for a pump; a pump takes it under the
    /// lane lock, never the reverse.
    queue: Mutex<Queue>,
    /// The queue's bound: a send that finds `cap` tasks queued is
    /// backpressure.
    cap: usize,
    /// Whether the retry slot is occupied; written under the lane lock,
    /// read without it by every retirement's settle call.
    parked: AtomicBool,
    /// The lane lock. Held across one `pump`, so per-tenant admission
    /// order is send order whichever threads do the admitting.
    slots: Mutex<Slots>,
}

/// What the queue lock owns.
struct Queue {
    tasks: VecDeque<ServiceTask>,
    /// A `try_pump` found the lane lock held: its holder pumps again
    /// after it unlocks.
    again: bool,
}

/// What the lane lock owns: the two parked slots.
struct Slots {
    /// Popped but budget-denied: admitted before anything newer.
    hold: Option<ServiceTask>,
    /// Budget-charged but capacity-rejected: resubmitted before
    /// anything newer. Never occupied together with `hold`.
    retry: Option<PendingSpawn>,
    /// Set by the hard-deadline path once it has emptied the lane: no
    /// pump admits afterwards.
    discard: bool,
}

impl Lane {
    pub(crate) fn new(
        tenant: TenantId,
        shared: Arc<IngressShared>,
        budget: BudgetLane,
        cap: usize,
    ) -> Lane {
        Lane {
            tenant,
            shared,
            metrics: TenantMetrics::new(),
            space: EventCount::new(),
            budget,
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                again: false,
            }),
            cap,
            parked: AtomicBool::new(false),
            slots: Mutex::new(Slots {
                hold: None,
                retry: None,
                discard: false,
            }),
        }
    }

    /// Caller-runs admission: pump the lane on this thread if its lock
    /// is free, and leave the pump to the holder if not. The client
    /// calls this after its send, the settle call after a retirement.
    /// `try_lock`, never `lock`: neither a client nor a worker waits for
    /// a lane.
    ///
    /// A loser records its request under the queue lock, then tries the
    /// lane lock once more; a holder unlocks, then takes the request
    /// under the queue lock. Whichever queue section comes second sees
    /// the other's step: the holder finds the request, or the loser
    /// finds the lane unlocked — or locked by a later holder, which
    /// looks in turn.
    pub(crate) fn try_pump(&self) {
        while let Some(mut slots) = self.try_slots().or_else(|| {
            self.queue().again = true;
            self.try_slots()
        }) {
            pump(self, &mut slots);
            drop(slots);
            if !std::mem::take(&mut self.queue().again) {
                break;
            }
        }
        // The sealed gate says a drain may be waiting for this lane.
        if !self.shared.is_accepting() {
            self.space.notify_all();
        }
    }

    /// The shutdown drain's step: pump under the lane lock, waiting for
    /// it, until no request a lost `try_pump` left remains. Returns
    /// whether the lane still has backlog.
    fn pump_out(&self) -> bool {
        loop {
            let mut slots = self.slots();
            pump(self, &mut slots);
            let backlog = self.has_backlog(&slots);
            drop(slots);
            if !std::mem::take(&mut self.queue().again) {
                return backlog;
            }
        }
    }

    /// Settle one charged task: count how it ended and give its budget
    /// back.
    fn settle(&self, executed: bool) {
        if executed {
            self.metrics.executed.inc();
        } else {
            self.metrics.cancelled.inc();
        }
        self.budget.credit();
    }

    /// Queue `task` unless the lane is full; a full lane hands it back.
    pub(crate) fn try_send(&self, task: ServiceTask) -> Result<(), ServiceTask> {
        let mut queue = self.queue();
        if queue.tasks.len() >= self.cap {
            return Err(task);
        }
        queue.tasks.push_back(task);
        Ok(())
    }

    /// Whether a send would be accepted right now.
    pub(crate) fn has_space(&self) -> bool {
        self.queue().tasks.len() < self.cap
    }

    /// Whether anything still waits for admission. The caller holds the
    /// lane lock (`slots`).
    fn has_backlog(&self, slots: &Slots) -> bool {
        slots.retry.is_some() || slots.hold.is_some() || !self.queue().tasks.is_empty()
    }

    /// Hard deadline: empty the lane un-admitted, settling the retry
    /// slot's charge, and close it to every later pump.
    fn discard(&self) {
        let mut slots = self.slots();
        slots.discard = true;
        let held = slots.hold.take();
        let retry = slots.retry.take();
        let queued = std::mem::take(&mut self.queue().tasks);
        let dropped = held.into_iter().chain(queued).count() + usize::from(retry.is_some());
        self.metrics.dropped.add(dropped as u64);
        if retry.is_some() {
            self.parked.store(false, Ordering::Relaxed);
            self.budget.credit();
        }
    }

    // Poisoning is recovered, as for the shard locks below the lane: no
    // task body runs under either of these.
    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn try_slots(&self) -> Option<MutexGuard<'_, Slots>> {
        match self.slots.try_lock() {
            Ok(slots) => Some(slots),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Admit from `lane`, in lane order, until it is empty or blocked. The
/// caller holds the lane lock (`slots`).
fn pump(lane: &Lane, slots: &mut Slots) {
    let rt = &lane.shared.rt;
    // Whether this pump has charged (or settled) a task.
    let mut progress = false;
    if slots.discard {
        return;
    }
    loop {
        // Order within a lane is dependence order: the retry slot
        // precedes the hold slot precedes the queue, and a parked slot
        // parks the whole lane (only that lane).
        if let Some(p) = slots.retry.take() {
            match rt.try_respawn(p) {
                Ok(()) => {
                    lane.parked.store(false, Ordering::Relaxed);
                    lane.metrics.admitted.inc();
                    progress = true;
                }
                Err((_e, p)) => {
                    slots.retry = Some(p);
                    return;
                }
            }
        }
        let (task, held) = match slots.hold.take() {
            Some(t) => (t, true),
            None => {
                let Some(t) = lane.queue().tasks.pop_front() else {
                    return;
                };
                lane.space.notify_all();
                (t, false)
            }
        };
        // A held task, or one behind a charge this pump made, looks
        // before it charges: at the cap it is held without a refused
        // attempt (one per retirement, on a lane its budget paces).
        let foreseen = (held || progress) && lane.budget.at_cap();
        if foreseen || lane.budget.charge().is_err() {
            if !foreseen {
                lane.metrics.budget_denied.inc();
            }
            slots.hold = Some(task);
            return;
        }
        let ServiceTask { sub, job } = task;
        match rt.try_spawn_lowered(sub, job) {
            Ok(()) => lane.metrics.admitted.inc(),
            Err((e, p)) if e.is_retryable() => {
                lane.metrics.capacity_retries.inc();
                slots.retry = Some(p);
                // Publish the park, then retry once (the loop's top): a
                // finish that released its shard slots before this fence
                // is seen by that retry, one after it by its settle
                // call's scan.
                lane.parked.store(true, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                continue;
            }
            // Non-retryable (invalid submission): discarded, settled as
            // cancelled.
            Err(_) => lane.settle(false),
        }
        progress = true;
    }
}

/// Shutdown's drain, on the caller's thread once the gate is sealed:
/// pump every lane under its lock until none has backlog. Past
/// `deadline` it empties every lane un-admitted instead.
///
/// Between sweeps it waits on a blocked lane's `space`, which every
/// `try_pump` notifies once the gate is sealed; what unblocks a lane —
/// a retirement — pumps it. A `try_pump` that lost the lock to a sweep
/// left its request, which the sweep takes after it unlocks, and one
/// that lost it to the wait's recheck is seen by that recheck. Every lane
/// is last seen without backlog under its own lock, so an admission in
/// flight on another thread has reached the runtime before the caller
/// goes on to quiesce it.
pub(crate) fn drain(lanes: &[Arc<Lane>], deadline: Option<Instant>) {
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            for lane in lanes {
                lane.discard();
            }
            return;
        }
        // Pump every lane; wait on the last one left with backlog.
        let blocked = lanes
            .iter()
            .fold(None, |last, lane| lane.pump_out().then_some(lane).or(last));
        let Some(lane) = blocked else {
            return;
        };
        // Look again if the lane is being pumped, was asked to be (a
        // loser that may have missed the seal leaves only its request),
        // or has no backlog left.
        let recheck = || {
            lane.try_slots()
                .is_none_or(|s| lane.queue().again || !lane.has_backlog(&s))
        };
        match deadline {
            Some(d) => lane
                .space
                .wait(Some(d.saturating_duration_since(Instant::now())), recheck),
            None => lane.space.wait(None, recheck),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SubmissionHandle;
    use nexuspp_core::testsupport::{wait_until, with_watchdog};
    use nexuspp_core::{ShardCapacity, TaskBuilder};
    use nexuspp_shard::TenantBudgets;
    use std::time::Duration;

    /// One worker and one shard holding one resident task, so a second
    /// task is always refused while the first is in, and lanes for
    /// `tenants` with their settle call installed: nothing pumps a lane
    /// but its clients and the runtime's retirements.
    fn lanes(tenants: &[u32]) -> (Arc<Runtime>, Vec<Arc<Lane>>) {
        let rt = Arc::new(Runtime::with_capacity(1, 1, ShardCapacity::Bounded(1)));
        let budgets = TenantBudgets::new(tenants.iter().map(|&t| (TenantId(t), 8)));
        let shared = Arc::new(IngressShared::new(Arc::clone(&rt)));
        let lanes: Vec<_> = tenants
            .iter()
            .map(|&t| {
                let budget = budgets.lane_of(TenantId(t)).expect("registered");
                Arc::new(Lane::new(TenantId(t), Arc::clone(&shared), budget, 64))
            })
            .collect();
        settle_on_retire(&rt, &lanes);
        (rt, lanes)
    }

    /// A body that spins until `open` (if any) is set.
    fn gated(open: Option<Arc<AtomicBool>>) -> impl FnOnce() + Send + 'static {
        move || {
            while open.as_ref().is_some_and(|o| !o.load(Ordering::Relaxed)) {
                std::thread::yield_now();
            }
        }
    }

    /// Send a task on `addr` through `lane`'s handle path; `open` (if
    /// any) holds its body until it is set.
    fn send(lane: &Arc<Lane>, tag: u64, addr: u64, open: Option<Arc<AtomicBool>>) {
        let sub = TaskBuilder::new(1).tag(tag).read_writes(addr, 8).build();
        let handle = SubmissionHandle {
            lane: Arc::clone(lane),
        };
        handle
            .try_submit(ServiceTask::new(sub, gated(open)))
            .expect("the lane holds every send");
    }

    #[test]
    fn a_lanes_own_credit_resubmits_its_retry_slot() {
        with_watchdog(60, "own-credit retry", || {
            const TASKS: u64 = 40;
            let (rt, lanes) = lanes(&[1]);
            let lane = &lanes[0];
            // The first task holds the shard's one slot; the second is
            // refused into the retry slot, the rest queue behind it.
            let open = Arc::new(AtomicBool::new(false));
            send(lane, 0, 0x100, Some(Arc::clone(&open)));
            for tag in 1..TASKS {
                send(lane, tag, 0x100, None);
            }
            assert_eq!(lane.metrics.capacity_retries.get(), 1);
            // From here only the lane's retirements pump it. Each one
            // settles after its finish has freed the slot, resubmits the
            // retry slot, and parks the next task, which the one worker
            // cannot have finished yet.
            open.store(true, Ordering::Relaxed);
            wait_until(Duration::from_secs(30), "the lane drains", || {
                lane.metrics.executed.get() == TASKS
            });
            rt.barrier();
            assert_eq!(lane.metrics.admitted.get(), TASKS);
            assert_eq!(lane.metrics.capacity_retries.get(), TASKS - 1);
            assert!(!lane.has_backlog(&lane.slots()));
            assert!(!lane.parked.load(Ordering::Relaxed));
            assert_eq!(rt.shutdown().executed, TASKS);
        });
    }

    /// Park a task of lane A (tenant 1) in its retry slot behind a task
    /// that `occupy` puts on the shard's one slot, gated on the flag it
    /// is given; then open the gate: that task's finish alone must
    /// resubmit A's.
    fn resubmitted_by_the_freeing_finish(
        occupy: impl FnOnce(&Runtime, &[Arc<Lane>], Arc<AtomicBool>),
    ) {
        let (rt, lanes) = lanes(&[1, 2]);
        let a = &lanes[0];
        let open = Arc::new(AtomicBool::new(false));
        occupy(&rt, &lanes, Arc::clone(&open));
        send(a, 1, 0x100, None);
        assert_eq!(a.metrics.capacity_retries.get(), 1);
        assert!(a.parked.load(Ordering::Relaxed));
        open.store(true, Ordering::Relaxed);
        wait_until(Duration::from_secs(30), "A's task runs", || {
            a.metrics.executed.get() == 1
        });
        rt.barrier();
        assert_eq!(a.metrics.admitted.get(), 1);
        assert!(!a.has_backlog(&a.slots()));
        assert_eq!(rt.shutdown().executed, 2);
    }

    #[test]
    fn a_retry_slot_freed_by_another_lanes_finish_is_resubmitted_by_that_finish() {
        with_watchdog(60, "cross-lane retry", || {
            resubmitted_by_the_freeing_finish(|_, lanes, open| {
                send(&lanes[1], 0, 0x200, Some(open))
            })
        });
    }

    #[test]
    fn a_retry_slot_freed_by_a_finish_outside_any_lane_is_resubmitted_by_that_finish() {
        with_watchdog(60, "retry freed around the service", || {
            // Spawned on the runtime directly: no tenant, no lane.
            resubmitted_by_the_freeing_finish(|rt, _, open| {
                let sub = TaskBuilder::new(1).tag(0).read_writes(0x300, 8).build();
                rt.spawn_lowered(sub, gated(Some(open)));
            })
        });
    }
}
