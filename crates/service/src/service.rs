//! The [`ResolverService`] front: construction, handle vending,
//! two-phase shutdown.

use crate::config::ServiceConfig;
use crate::ingress::{self, IngressShared, IngressStats, Lane};
use crate::task::{IngressGate, SubmissionHandle};
use nexuspp_core::{EventCount, TenantId};
use nexuspp_obs::{Collector, MetricsRegistry, MetricsSnapshot};
use nexuspp_runtime::{Runtime, ShutdownReport};
use nexuspp_shard::{TenantBudgets, TenantCounts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What [`ResolverService::shutdown`] /
/// [`shutdown_deadline`](ResolverService::shutdown_deadline) hands
/// back. Every task a client got `Ok` for is accounted exactly once:
/// `runtime.executed` (body ran), `runtime.cancelled` (admitted, then
/// cancel-finished by the abort path), or `dropped_ingress` (accepted
/// into a lane, discarded un-admitted by the hard deadline).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// `true` iff the drain stayed graceful end to end: no ingress
    /// drops and a graceful runtime quiesce.
    pub graceful: bool,
    /// The wrapped runtime's own shutdown accounting.
    pub runtime: ShutdownReport,
    /// Accepted tasks discarded before admission (hard deadline only).
    pub dropped_ingress: u64,
    /// Final per-tenant budget ledgers, sorted by tenant.
    pub tenants: Vec<(TenantId, TenantCounts)>,
}

/// A persistent, multi-tenant resolver: the sharded runtime behind a
/// streaming ingress. See the crate docs for the architecture.
pub struct ResolverService {
    registry: Arc<MetricsRegistry>,
    shared: Arc<IngressShared>,
    budgets: Arc<TenantBudgets>,
    handles: HashMap<TenantId, SubmissionHandle>,
    ingress: Mutex<Option<JoinHandle<IngressStats>>>,
    /// Stats captured by whichever call actually performed shutdown.
    finished: Mutex<Option<IngressStats>>,
}

impl ResolverService {
    /// Start a service (runtime workers spawned, ingress thread
    /// parked, handles ready to vend).
    pub fn start(cfg: ServiceConfig) -> ResolverService {
        ResolverService::build(cfg, None)
    }

    /// As [`start`](Self::start), wired into an observability
    /// [`Collector`]: the runtime emits lifecycle events into it and
    /// the service's full registry (runtime groups + one group per
    /// tenant) replaces the collector's sampled registry.
    pub fn with_observer(cfg: ServiceConfig, collector: &Collector) -> ResolverService {
        ResolverService::build(cfg, Some(collector))
    }

    fn build(cfg: ServiceConfig, collector: Option<&Collector>) -> ResolverService {
        let rt = Arc::new(match collector {
            Some(c) => Runtime::with_observer(cfg.workers, cfg.shards, cfg.capacity, c),
            None => Runtime::with_capacity(cfg.workers, cfg.shards, cfg.capacity),
        });
        let registry = Arc::new(rt.metrics());
        let budgets = Arc::new(TenantBudgets::new(cfg.tenants.iter().copied()));
        let shared = Arc::new(IngressShared {
            rt,
            gate: IngressGate::new(),
            signal: EventCount::new(),
            sweep_batch: cfg.sweep_batch,
            stop: AtomicBool::new(false),
            deadline: Mutex::new(None),
        });
        let mut lanes = Vec::new();
        let mut handles = HashMap::new();
        for (tenant, _budget) in cfg.tenants() {
            if handles.contains_key(&tenant) {
                continue; // duplicate registration: first entry wins
            }
            let budget = budgets.lane_of(tenant).expect("registered just above");
            let lane = Arc::new(Lane::new(
                tenant,
                Arc::clone(&shared),
                budget,
                cfg.lane_capacity,
            ));
            lane.metrics.register_in(&registry, tenant, &budgets);
            lanes.push(Arc::clone(&lane));
            handles.insert(tenant, SubmissionHandle { lane });
        }
        if let Some(c) = collector {
            c.attach_registry(Arc::clone(&registry));
        }
        let thread_shared = Arc::clone(&shared);
        let ingress = std::thread::Builder::new()
            .name("nexuspp-ingress".into())
            .spawn(move || ingress::run(&thread_shared, &lanes))
            .expect("failed to spawn ingress thread");
        ResolverService {
            registry,
            shared,
            budgets,
            handles,
            ingress: Mutex::new(Some(ingress)),
            finished: Mutex::new(None),
        }
    }

    /// The ingress endpoint for `tenant` (registered at construction).
    /// Clone-and-move into as many client threads as needed.
    pub fn handle(&self, tenant: TenantId) -> Option<SubmissionHandle> {
        self.handles.get(&tenant).cloned()
    }

    /// The wrapped runtime (read-side introspection; submitting around
    /// the ingress defeats the tenant accounting).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.shared.rt
    }

    /// The service's metrics registry: the runtime's groups plus one
    /// live group per tenant.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Convenience: snapshot the full registry now.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Per-tenant budget ledgers, sorted by tenant.
    pub fn tenant_counts(&self) -> Vec<(TenantId, TenantCounts)> {
        self.budgets.all_counts()
    }

    /// Graceful two-phase shutdown: seal ingress (new `try_submit`s
    /// refuse with `Closed`), drain every lane through admission, then
    /// quiesce the runtime and join its workers. Blocks until done;
    /// every accepted task has executed when it returns.
    pub fn shutdown(&self) -> ServiceReport {
        self.shutdown_with(None)
    }

    /// Shutdown with a hard deadline across both phases. Past the
    /// deadline, un-admitted ingress is discarded (counted in
    /// [`ServiceReport::dropped_ingress`] and the per-tenant `dropped`
    /// counters) and the runtime cancel-finishes queued tasks; bodies
    /// already running are never interrupted.
    pub fn shutdown_deadline(&self, deadline: Duration) -> ServiceReport {
        self.shutdown_with(Some(deadline))
    }

    fn shutdown_with(&self, deadline: Option<Duration>) -> ServiceReport {
        let start = Instant::now();
        if let Some(d) = deadline {
            *lock(&self.shared.deadline) = Some(start + d);
        }
        // Phase 1: seal + drain. After seal() returns, every send a
        // client got Ok for is visible to the ingress drain.
        self.shared.gate.seal();
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.signal.notify_all();
        let stats = {
            let joined = lock(&self.ingress).take().and_then(|h| h.join().ok());
            let mut finished = lock(&self.finished);
            if let Some(s) = joined {
                *finished = Some(s);
            }
            finished.unwrap_or_default()
        };
        // Phase 2: quiesce the runtime within whatever deadline is
        // left (the drain above consumed part of it).
        let runtime = match deadline {
            None => self.shared.rt.shutdown(),
            Some(d) => self
                .shared
                .rt
                .shutdown_deadline(d.saturating_sub(start.elapsed())),
        };
        ServiceReport {
            graceful: runtime.graceful && stats.dropped == 0,
            runtime,
            dropped_ingress: stats.dropped,
            tenants: self.budgets.all_counts(),
        }
    }
}

impl Drop for ResolverService {
    fn drop(&mut self) {
        // Equivalent to an explicit graceful shutdown; a no-op beyond
        // the runtime's own Drop if one already ran.
        if lock(&self.ingress).is_some() {
            let _ = self.shutdown();
        }
    }
}

/// Take `m`, recovering it if poisoned: each of this file's locks
/// guards an `Option` that one store or `take` updates.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
