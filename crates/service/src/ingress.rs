//! The admission sweep: one thread, all tenant lanes, program order
//! per tenant.
//!
//! The ingress thread is the only caller of the runtime's non-blocking
//! submission API, which keeps the two backpressure layers composable
//! without ever parking a client:
//!
//! 1. **Budget** — before a task may occupy runtime state it is charged
//!    against its tenant's [`TenantBudgets`] lane. A denial leaves the
//!    task in a per-lane *hold slot* (program order is part of the
//!    dependence semantics, so a lane never reorders); the charge is
//!    retried once retirements credit the lane back.
//! 2. **Capacity** — the runtime's retryable
//!    [`SubmitError`](nexuspp_core::SubmitError) hands the lowered task
//!    back as a [`PendingSpawn`]; it parks in the lane's *retry slot*
//!    until a finish frees shard slots.
//!
//! Both slots block only their own lane; the sweep moves on to the next
//! tenant either way, which is exactly the isolation property the
//! multi-tenant tests assert. Every admission wraps the client job in a
//! [`CreditGuard`] whose `Drop` credits the budget and classifies the
//! outcome (executed vs cancelled) — dropping a job unexecuted on the
//! abort path settles the ledger exactly like running it.

use crate::metrics::TenantMetrics;
use crate::task::{IngressSignal, ServiceTask};
use crossbeam::channel::Receiver;
use nexuspp_core::TenantId;
use nexuspp_runtime::{PendingSpawn, Runtime};
use nexuspp_shard::TenantBudgets;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Settles one admitted task's ledger entry from `Drop`, so the
/// accounting holds on every exit path: normal completion, a panicking
/// body, or a cancel-finish that drops the job unexecuted.
struct CreditGuard {
    budgets: Arc<TenantBudgets>,
    tenant: TenantId,
    metrics: Arc<TenantMetrics>,
    signal: Arc<IngressSignal>,
    ran: bool,
}

impl Drop for CreditGuard {
    fn drop(&mut self) {
        if self.ran {
            self.metrics.executed.inc();
        } else {
            self.metrics.cancelled.inc();
        }
        self.budgets.credit(self.tenant);
        // A retirement frees budget and (on bounded runtimes) shard
        // capacity — exactly what a parked hold/retry slot waits for.
        self.signal.notify();
    }
}

/// One tenant's server-side lane state (owned by the ingress thread).
pub(crate) struct Lane {
    pub(crate) tenant: TenantId,
    pub(crate) rx: Receiver<ServiceTask>,
    /// Popped but budget-denied: admitted before anything newer.
    pub(crate) hold: Option<ServiceTask>,
    /// Budget-charged but capacity-rejected: resubmitted before the
    /// hold slot or anything newer.
    pub(crate) retry: Option<PendingSpawn>,
    pub(crate) metrics: Arc<TenantMetrics>,
}

impl Lane {
    fn has_backlog(&self) -> bool {
        self.retry.is_some() || self.hold.is_some() || !self.rx.is_empty()
    }
}

/// State shared between the service front and the ingress thread.
pub(crate) struct IngressShared {
    pub(crate) rt: Arc<Runtime>,
    pub(crate) budgets: Arc<TenantBudgets>,
    pub(crate) signal: Arc<IngressSignal>,
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
    /// Total sweep iterations (coarse liveness signal for tests).
    pub(crate) sweeps: u64,
}

/// The sweep loop. Exits when `stop` is raised and every lane is fully
/// drained — or immediately past the hard deadline, discarding backlog.
pub(crate) fn run(
    shared: &Arc<IngressShared>,
    mut lanes: Vec<Lane>,
    sweep_batch: usize,
) -> IngressStats {
    let mut stats = IngressStats::default();
    loop {
        stats.sweeps += 1;
        let stop = shared.stop.load(Ordering::SeqCst);
        let past_deadline = stop && shared.deadline.lock().is_some_and(|d| Instant::now() >= d);
        if past_deadline {
            for lane in &mut lanes {
                if let Some(t) = lane.hold.take() {
                    lane.metrics.dropped.inc();
                    stats.dropped += 1;
                    drop(t);
                }
                while let Ok(t) = lane.rx.try_recv() {
                    lane.metrics.dropped.inc();
                    stats.dropped += 1;
                    drop(t);
                }
                // The retry slot was budget-charged already; dropping
                // it settles through its CreditGuard (as cancelled).
                lane.retry.take();
            }
            return stats;
        }

        let mut progress = false;
        for lane in &mut lanes {
            // Order within a lane is dependence order: the retry slot
            // precedes the hold slot precedes the queue, and a parked
            // slot parks the whole lane (only that lane).
            if let Some(p) = lane.retry.take() {
                match shared.rt.try_respawn(p) {
                    Ok(()) => {
                        lane.metrics.admitted.inc();
                        progress = true;
                    }
                    Err((_e, p)) => {
                        lane.retry = Some(p);
                        continue;
                    }
                }
            }
            let mut quota = sweep_batch;
            while quota > 0 {
                let task = match lane.hold.take() {
                    Some(t) => t,
                    None => match lane.rx.try_recv() {
                        Ok(t) => t,
                        Err(_) => break,
                    },
                };
                if shared.budgets.charge(lane.tenant).is_err() {
                    lane.metrics.budget_denied.inc();
                    lane.hold = Some(task);
                    break;
                }
                let guard = CreditGuard {
                    budgets: Arc::clone(&shared.budgets),
                    tenant: lane.tenant,
                    metrics: Arc::clone(&lane.metrics),
                    signal: Arc::clone(&shared.signal),
                    ran: false,
                };
                let ServiceTask { sub, job } = task;
                let wrapped = move || {
                    let mut guard = guard;
                    guard.ran = true;
                    job();
                };
                match shared.rt.try_spawn_lowered(sub, wrapped) {
                    Ok(()) => {
                        lane.metrics.admitted.inc();
                        progress = true;
                        quota -= 1;
                    }
                    Err((e, p)) if e.is_retryable() => {
                        lane.metrics.capacity_retries.inc();
                        lane.retry = Some(p);
                        break;
                    }
                    Err((_e, p)) => {
                        // Non-retryable (invalid submission): discard;
                        // the guard settles it as cancelled.
                        drop(p);
                        progress = true;
                        quota -= 1;
                    }
                }
            }
        }

        if stop && lanes.iter().all(|l| !l.has_backlog()) {
            return stats;
        }
        if !progress {
            shared.signal.wait(Duration::from_millis(1));
        }
    }
}
