//! Per-tenant live counters, registered as one metrics group each.

use nexuspp_core::TenantId;
use nexuspp_obs::{Counter, CounterGroup, MetricsRegistry};
use nexuspp_shard::TenantBudgets;
use std::sync::Arc;

/// Extracted live handles over one tenant's [`CounterGroup`] — the
/// service's side of the ledger (the budget side lives in
/// [`TenantBudgets`]).
pub(crate) struct TenantMetrics {
    group: Arc<CounterGroup>,
    /// Tasks accepted into the lane by `try_submit`.
    pub(crate) submitted: Counter,
    /// `try_submit` refusals on a full lane.
    pub(crate) backpressured: Counter,
    /// Tasks admitted into the runtime (budget charged, submit landed).
    pub(crate) admitted: Counter,
    /// Admission attempts that found the tenant at its budget cap.
    pub(crate) budget_denied: Counter,
    /// Runtime capacity rejections absorbed into the retry slot.
    pub(crate) capacity_retries: Counter,
    /// Admitted tasks whose bodies ran.
    pub(crate) executed: Counter,
    /// Admitted tasks cancel-finished by a hard-deadline shutdown.
    pub(crate) cancelled: Counter,
    /// Accepted-but-never-admitted tasks discarded by a hard-deadline
    /// shutdown.
    pub(crate) dropped: Counter,
}

const COUNTERS: &[&str] = &[
    "submitted",
    "backpressured",
    "admitted",
    "budget_denied",
    "capacity_retries",
    "executed",
    "cancelled",
    "dropped",
];

impl TenantMetrics {
    pub(crate) fn new() -> TenantMetrics {
        let group = Arc::new(CounterGroup::new(COUNTERS));
        let c = |n: &str| group.counter(n).expect("counter exists");
        TenantMetrics {
            submitted: c("submitted"),
            backpressured: c("backpressured"),
            admitted: c("admitted"),
            budget_denied: c("budget_denied"),
            capacity_retries: c("capacity_retries"),
            executed: c("executed"),
            cancelled: c("cancelled"),
            dropped: c("dropped"),
            group,
        }
    }

    /// Register this tenant's group (service counters plus the live
    /// budget gauges) in `reg` under the tenant's display name
    /// (`tenant3`, …).
    pub(crate) fn register_in(
        &self,
        reg: &MetricsRegistry,
        tenant: TenantId,
        budgets: &Arc<TenantBudgets>,
    ) {
        let group = Arc::clone(&self.group);
        let budgets = Arc::clone(budgets);
        reg.register(&tenant.to_string(), move || {
            let mut rows = group.snapshot();
            if let Some(c) = budgets.counts(tenant) {
                rows.push(("budget_cap".into(), c.cap));
                rows.push(("in_flight".into(), c.in_flight));
                rows.push(("in_flight_peak".into(), c.peak));
            }
            rows
        });
    }
}
