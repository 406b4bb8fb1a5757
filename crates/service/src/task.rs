//! The client-facing ingress surface: tasks, errors, handles.

use crate::ingress::Lane;
use nexuspp_core::Submission;
use nexuspp_runtime::{Runtime, TaskCtx};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// One streamed task: a pre-addressed [`Submission`] (the dependence
/// declaration) plus the closure to run when it becomes ready. Built by
/// clients, carried through a tenant lane, admitted in lane order.
pub struct ServiceTask {
    pub(crate) sub: Submission,
    /// Boxed once, here, as the runtime stores and runs it.
    pub(crate) job: Box<dyn FnOnce(&TaskCtx) + Send + 'static>,
}

impl ServiceTask {
    /// Bundle a submission with its body. The submission's `tenant`
    /// field is overwritten by the handle it is submitted through — the
    /// handle, not the payload, is the identity.
    pub fn new(sub: Submission, job: impl FnOnce() + Send + 'static) -> ServiceTask {
        ServiceTask {
            sub,
            job: Box::new(move |_: &TaskCtx| job()),
        }
    }

    /// The caller tag of the wrapped submission.
    pub fn tag(&self) -> u64 {
        self.sub.tag
    }
}

impl std::fmt::Debug for ServiceTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceTask")
            .field("tag", &self.sub.tag)
            .field("tenant", &self.sub.tenant)
            .field("params", &self.sub.params.len())
            .finish()
    }
}

/// Why [`SubmissionHandle::try_submit`] handed the task back.
#[derive(Debug)]
pub enum IngressError {
    /// The tenant's lane is full. **Retryable**: the task is returned
    /// untouched; resubmit after backing off (lane slots free as
    /// admission pops the lane, which a full lane's budget paces).
    Backpressure(ServiceTask),
    /// The service sealed its ingress (shutdown started or completed).
    /// Not retryable.
    Closed(ServiceTask),
}

impl IngressError {
    /// Recover the task for retry or disposal.
    pub fn into_task(self) -> ServiceTask {
        match self {
            IngressError::Backpressure(t) | IngressError::Closed(t) => t,
        }
    }

    /// `true` for [`Backpressure`](Self::Backpressure).
    pub fn is_retryable(&self) -> bool {
        matches!(self, IngressError::Backpressure(_))
    }
}

/// State shared between the service front and every lane: the wrapped
/// runtime and the ingress gate.
///
/// `try_submit` threads hold the gate (shared) while checking the
/// accepting flag and sending. Shutdown clears the flag and then takes
/// the gate exclusively once, which linearizes sealing: afterwards,
/// anything a client managed to enqueue is provably visible to the
/// drain. The lock orders the flag for those readers, so its accesses
/// are `Relaxed`; a reader outside the lock (a parked sender, a pump
/// that may owe the drain a wake) is ordered by the `EventCount` it
/// waits on or notifies, or by the lane lock the drain rechecks. The
/// sealed gate is the service's only "stopping" signal.
pub(crate) struct IngressShared {
    pub(crate) rt: Arc<Runtime>,
    accepting: AtomicBool,
    gate: RwLock<()>,
}

impl IngressShared {
    pub(crate) fn new(rt: Arc<Runtime>) -> IngressShared {
        IngressShared {
            rt,
            accepting: AtomicBool::new(true),
            gate: RwLock::new(()),
        }
    }

    /// Seal ingress. After this returns, no `try_submit` can succeed,
    /// and every previously successful send is visible in its lane.
    pub(crate) fn seal(&self) {
        self.accepting.store(false, Ordering::Relaxed);
        let _w = self
            .gate
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }

    pub(crate) fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Relaxed)
    }
}

/// A tenant's ingress endpoint: clone freely, send from any thread.
/// Submissions stream into a bounded per-tenant lane and are admitted
/// in send order — normally by the submitting thread itself, before
/// `try_submit` returns.
#[derive(Clone)]
pub struct SubmissionHandle {
    pub(crate) lane: Arc<Lane>,
}

impl SubmissionHandle {
    /// Non-blocking submit. `Ok(())` means *accepted*: the task is in
    /// the tenant's lane and — unless a hard-deadline shutdown drops
    /// it — will be admitted and retired exactly once. Errors hand the
    /// task back; see [`IngressError`] for which are retryable.
    ///
    /// An accepted task is admitted into the runtime on this thread
    /// when the lane is free to pump (see the `ingress` module); it may
    /// have started, or finished, by the time this returns.
    pub fn try_submit(&self, mut task: ServiceTask) -> Result<(), IngressError> {
        let lane = &self.lane;
        {
            let shared = &lane.shared;
            let _r = shared
                .gate
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !shared.is_accepting() {
                return Err(IngressError::Closed(task));
            }
            task.sub.tenant = lane.tenant;
            if let Err(t) = lane.try_send(task) {
                lane.metrics.backpressured.inc();
                return Err(IngressError::Backpressure(t));
            }
            lane.metrics.submitted.inc();
        }
        lane.try_pump();
        Ok(())
    }

    /// Convenience retry loop around [`try_submit`](Self::try_submit):
    /// while backpressured, parks until an admission pops the lane or
    /// shutdown seals ingress (both notify the lane's `space`). Returns
    /// the task only if ingress closed.
    pub fn submit_blocking(&self, mut task: ServiceTask) -> Result<(), ServiceTask> {
        let lane = &self.lane;
        loop {
            match self.try_submit(task) {
                Ok(()) => return Ok(()),
                Err(IngressError::Closed(t)) => return Err(t),
                Err(IngressError::Backpressure(t)) => task = t,
            }
            lane.space
                .wait(None, || lane.has_space() || !lane.shared.is_accepting());
        }
    }
}
