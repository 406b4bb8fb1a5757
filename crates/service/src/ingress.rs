//! Caller-runs admission: one [`pump`], three callers, program order
//! per tenant.
//!
//! A lane is a bounded queue plus two one-task slots, and admitting
//! from it — `pump` — runs under the lane's lock on whichever thread
//! has a reason to: the client that just sent into the lane, the worker
//! that just retired one of the lane's tasks and so freed its budget and
//! shard slots (the runtime's settle call, [`settle_on_retire`]) — both
//! through [`Lane::try_pump`] — or the ingress thread ([`run`]). The
//! first two never block on the lock; losing it, or leaving work they
//! cannot finish, they notify the ingress thread, which otherwise
//! sleeps. In steady state a task goes from its client straight to a
//! worker.
//!
//! `pump` is the only caller of the runtime's non-blocking submission
//! API, which keeps the two backpressure layers composable without ever
//! parking a client:
//!
//! 1. **Budget** — before a task may occupy runtime state it is charged
//!    against its tenant's budget lane. A denial leaves the task in the
//!    lane's *hold slot* (program order is part of the dependence
//!    semantics, so a lane never reorders). Only a retirement can clear
//!    it, so a client-side pump does not retry the charge; the
//!    retirement's own pump does.
//! 2. **Capacity** — the runtime's retryable
//!    [`SubmitError`](nexuspp_core::SubmitError) hands the lowered task
//!    back as a [`PendingSpawn`]; it parks in the lane's *retry slot*
//!    until a finish frees shard slots. The settle call comes after the
//!    finish, so a lane's own retirement resubmits it; a slot freed by
//!    another lane's finish waits for the ingress thread's tick.
//!
//! Both slots block only their own lane, which is exactly the isolation
//! property the multi-tenant tests assert. The credit is data, not a
//! closure: the client's body box is the runtime's, the task carries its
//! tenant, and the runtime settles it once at retirement — executed or
//! cancel-finished. A charged task that never reaches the runtime (an
//! invalid submission, a retry slot the hard deadline discards) is
//! settled where it is dropped.

use crate::metrics::TenantMetrics;
use crate::task::{IngressGate, ServiceTask};
use nexuspp_core::{EventCount, TenantId};
use nexuspp_runtime::{PendingSpawn, Runtime};
use nexuspp_shard::BudgetLane;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// The longest the ingress thread, or a parked `submit_blocking`,
/// sleeps between looks.
pub(crate) const TICK: Duration = Duration::from_millis(1);

/// Install the runtime's settle call for `lanes`: a retired task is
/// settled on its tenant's lane, which is then pumped from the retiring
/// thread — the freed budget and shard slots are what a held or parked
/// task waits for. A tenant no lane has (a task spawned around the
/// ingress) is not settled.
///
/// The call owns the lanes, which own the runtime; the runtime drops it
/// at shutdown, which breaks that cycle.
pub(crate) fn settle_on_retire(rt: &Runtime, lanes: &[Arc<Lane>]) {
    let mut lanes = lanes.to_vec();
    lanes.sort_by_key(|lane| lane.tenant);
    rt.on_retire(move |tenant, executed| {
        if let Ok(i) = lanes.binary_search_by_key(&tenant, |lane| lane.tenant) {
            lanes[i].settle(executed);
            lanes[i].try_pump(true);
        }
    });
}

/// One tenant's lane. Handles and the settle call reach everything
/// through it.
pub(crate) struct Lane {
    pub(crate) tenant: TenantId,
    pub(crate) shared: Arc<IngressShared>,
    pub(crate) metrics: TenantMetrics,
    /// Notified when a pump pops the lane: room for one more send.
    pub(crate) space: EventCount,
    budget: BudgetLane,
    /// Sent and not yet popped. Its own lock, taken only briefly, so a
    /// client's send never waits for a pump; a pump takes it under the
    /// lane lock, never the reverse.
    queue: Mutex<VecDeque<ServiceTask>>,
    /// The queue's bound: a send that finds `cap` tasks queued is
    /// backpressure.
    cap: usize,
    /// The lane lock. Held across one `pump`, so per-tenant admission
    /// order is send order whichever threads do the admitting.
    slots: Mutex<Slots>,
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

/// What one [`pump`] did.
struct Pumped {
    /// It admitted (or disposed of) at least one task.
    progress: bool,
    /// It left work that no later submit or retirement is bound to pick
    /// up: a parked retry slot, or a queue it ran out of quota on.
    wants_tick: bool,
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
            queue: Mutex::new(VecDeque::new()),
            cap,
            slots: Mutex::new(Slots {
                hold: None,
                retry: None,
                discard: false,
            }),
        }
    }

    /// Caller-runs admission: pump the lane on this thread if its lock
    /// is free. The client calls this after its send (`budget_freed`
    /// false), the settle call after a retirement (`true`). `try_lock`,
    /// never `lock`: neither a client nor a worker waits for a lane.
    ///
    /// Wakes the ingress thread if that leaves it something: a lost
    /// lock race (the holder may already be past the queue), work only
    /// a tick resolves, or a drain waiting to see this lane empty.
    pub(crate) fn try_pump(&self, budget_freed: bool) {
        let slots = match self.slots.try_lock() {
            Ok(slots) => Some(slots),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        let wants_tick = match slots {
            // A held task is budget-blocked, and a submit frees no
            // budget: re-charging would only count another denial.
            Some(slots) if !budget_freed && slots.hold.is_some() => false,
            Some(mut slots) => pump(self, &mut slots).wants_tick,
            None => true,
        };
        if wants_tick || self.shared.stop.load(Ordering::SeqCst) {
            self.shared.signal.notify_all();
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
        if queue.len() >= self.cap {
            return Err(task);
        }
        queue.push_back(task);
        Ok(())
    }

    /// Whether a send would be accepted right now.
    pub(crate) fn has_space(&self) -> bool {
        self.queue().len() < self.cap
    }

    /// Whether anything still waits for admission. The caller holds the
    /// lane lock (`slots`).
    fn has_backlog(&self, slots: &Slots) -> bool {
        slots.retry.is_some() || slots.hold.is_some() || !self.queue().is_empty()
    }

    /// Hard deadline: empty the lane un-admitted and close it to every
    /// later pump. Returns how many accepted tasks were dropped.
    fn discard(&self) -> u64 {
        let mut slots = self.slots();
        slots.discard = true;
        let held = slots.hold.take();
        let queued = std::mem::take(&mut *self.queue());
        let dropped = held.into_iter().chain(queued).count() as u64;
        self.metrics.dropped.add(dropped);
        // The retry slot was budget-charged already: settle it as
        // cancelled.
        if slots.retry.take().is_some() {
            self.settle(false);
        }
        dropped
    }

    // Poisoning is recovered, as for the shard locks below the lane: no
    // task body runs under either of these.
    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<ServiceTask>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Admit from `lane`, in lane order, until it is empty, blocked or
/// `sweep_batch` tasks are in. The caller holds the lane lock (`slots`).
fn pump(lane: &Lane, slots: &mut Slots) -> Pumped {
    let shared = &lane.shared;
    let mut pumped = Pumped {
        progress: false,
        wants_tick: false,
    };
    if slots.discard {
        return pumped;
    }
    // Order within a lane is dependence order: the retry slot precedes
    // the hold slot precedes the queue, and a parked slot parks the
    // whole lane (only that lane).
    if let Some(p) = slots.retry.take() {
        match shared.rt.try_respawn(p) {
            Ok(()) => {
                lane.metrics.admitted.inc();
                pumped.progress = true;
            }
            Err((_e, p)) => {
                slots.retry = Some(p);
                pumped.wants_tick = true;
                return pumped;
            }
        }
    }
    for _ in 0..shared.sweep_batch {
        let task = match slots.hold.take() {
            Some(t) => t,
            None => {
                let Some(t) = lane.queue().pop_front() else {
                    return pumped;
                };
                lane.space.notify_all();
                t
            }
        };
        // A pump that has just spent budget looks before it charges
        // again: at the cap the task is held without a refused attempt
        // (one per retirement, on a lane its budget paces).
        let foreseen = pumped.progress && lane.budget.at_cap();
        if foreseen || lane.budget.charge().is_err() {
            if !foreseen {
                lane.metrics.budget_denied.inc();
            }
            slots.hold = Some(task);
            return pumped;
        }
        let ServiceTask { sub, job } = task;
        match shared.rt.try_spawn_lowered(sub, job) {
            Ok(()) => lane.metrics.admitted.inc(),
            Err((e, p)) if e.is_retryable() => {
                lane.metrics.capacity_retries.inc();
                slots.retry = Some(p);
                pumped.wants_tick = true;
                return pumped;
            }
            // Non-retryable (invalid submission): discarded, settled as
            // cancelled.
            Err(_) => lane.settle(false),
        }
        pumped.progress = true;
    }
    // Quota spent with the lane still flowing: the rest is the tick's.
    pumped.wants_tick = !lane.queue().is_empty();
    pumped
}

/// State shared between the service front, every lane and the ingress
/// thread.
pub(crate) struct IngressShared {
    pub(crate) rt: Arc<Runtime>,
    pub(crate) gate: IngressGate,
    /// The ingress thread's wake-up.
    pub(crate) signal: EventCount,
    /// Max tasks one `pump` admits before it gives the lane up
    /// (round-robin fairness quantum of the ingress sweep).
    pub(crate) sweep_batch: usize,
    /// Raised (after sealing the gate) to ask the sweep to drain out.
    pub(crate) stop: AtomicBool,
    /// Hard shutdown deadline; past it a draining sweep discards its
    /// backlog instead of admitting it.
    pub(crate) deadline: Mutex<Option<Instant>>,
}

/// What the ingress thread hands back when it exits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IngressStats {
    /// Accepted tasks discarded un-admitted by the hard-deadline path.
    pub(crate) dropped: u64,
}

/// Pump every lane once, waiting for each lane's lock. Returns whether
/// any pump made progress and whether any lane still has backlog.
fn sweep(lanes: &[Arc<Lane>]) -> (bool, bool) {
    let (mut progress, mut backlog) = (false, false);
    for lane in lanes {
        let mut slots = lane.slots();
        progress |= pump(lane, &mut slots).progress;
        backlog |= lane.has_backlog(&slots);
    }
    (progress, backlog)
}

/// The ingress thread: the slow path of admission. It sleeps on the
/// shared signal and sweeps when a caller-side pump hands over, and
/// once a [`TICK`] regardless — for a parked retry slot, and for the
/// shutdown deadline. Exits when `stop` is raised and it has found
/// every lane, under that lane's lock, without backlog — so an
/// admission still in flight on another thread has reached the runtime
/// before the caller goes on to quiesce it — or immediately past the
/// hard deadline, discarding backlog.
pub(crate) fn run(shared: &IngressShared, lanes: &[Arc<Lane>]) -> IngressStats {
    loop {
        let stop = shared.stop.load(Ordering::SeqCst);
        if stop
            && shared
                .deadline
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some_and(|d| Instant::now() >= d)
        {
            return IngressStats {
                dropped: lanes.iter().map(|lane| lane.discard()).sum(),
            };
        }
        let (progress, backlog) = sweep(lanes);
        if stop && !backlog {
            return IngressStats::default();
        }
        if !progress {
            shared.signal.wait(Some(TICK), || {
                shared.stop.load(Ordering::SeqCst) != stop || sweep(lanes).0
            });
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

    /// One worker and one shard holding one resident task, so a second
    /// task is always refused while the first is in, and lanes for
    /// `tenants` with their settle call installed, but no ingress
    /// thread: nothing pumps a lane but its clients, its retirements,
    /// and an explicit [`sweep`].
    fn lanes_without_ingress(tenants: &[u32]) -> (Arc<Runtime>, Vec<Arc<Lane>>) {
        let rt = Arc::new(Runtime::with_capacity(1, 1, ShardCapacity::Bounded(1)));
        let budgets = TenantBudgets::new(tenants.iter().map(|&t| (TenantId(t), 8)));
        let shared = Arc::new(IngressShared {
            rt: Arc::clone(&rt),
            gate: IngressGate::new(),
            signal: EventCount::new(),
            sweep_batch: 32,
            stop: AtomicBool::new(false),
            deadline: Mutex::new(None),
        });
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

    /// Send a task on `addr` through `lane`'s handle path; `open` (if
    /// any) holds its body until it is set.
    fn send(lane: &Arc<Lane>, tag: u64, addr: u64, open: Option<Arc<AtomicBool>>) {
        let sub = TaskBuilder::new(1).tag(tag).read_writes(addr, 8).build();
        let job = move || {
            while open.as_ref().is_some_and(|o| !o.load(Ordering::Relaxed)) {
                std::thread::yield_now();
            }
        };
        let handle = SubmissionHandle {
            lane: Arc::clone(lane),
        };
        handle
            .try_submit(ServiceTask::new(sub, job))
            .expect("the lane holds every send");
    }

    #[test]
    fn a_lanes_own_credit_resubmits_its_retry_slot() {
        with_watchdog(60, "own-credit retry", || {
            const TASKS: u64 = 40;
            let (rt, lanes) = lanes_without_ingress(&[1]);
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
            assert_eq!(rt.shutdown().executed, TASKS);
        });
    }

    #[test]
    fn a_retry_slot_freed_by_another_lanes_finish_waits_for_the_tick() {
        with_watchdog(60, "cross-lane retry", || {
            let (rt, lanes) = lanes_without_ingress(&[1, 2]);
            let (a, b) = (&lanes[0], &lanes[1]);
            let open = Arc::new(AtomicBool::new(false));
            send(b, 0, 0x200, Some(Arc::clone(&open)));
            send(a, 1, 0x100, None);
            assert_eq!(a.metrics.capacity_retries.get(), 1);
            // B's finish frees the slot, but its settle pumps B only.
            open.store(true, Ordering::Relaxed);
            rt.barrier();
            assert_eq!(b.metrics.executed.get(), 1);
            assert_eq!(a.metrics.admitted.get(), 0);
            assert!(a.slots().retry.is_some());
            // The ingress thread's sweep is what resubmits it.
            assert!(sweep(&lanes).0);
            wait_until(Duration::from_secs(30), "A's task runs", || {
                a.metrics.executed.get() == 1
            });
            rt.barrier();
            assert_eq!(rt.shutdown().executed, 2);
        });
    }
}
