//! Per-tenant admission budgets layered *above* shard capacity.
//!
//! [`ShardCapacity`](nexuspp_core::ShardCapacity) bounds what the
//! dependence hardware can hold in total; it says nothing about who
//! filled it. A multi-tenant ingress needs the second axis: a cap on how
//! many of each tenant's tasks may be in flight at once, so one
//! saturating client degrades into its own backpressure instead of
//! consuming the whole table and starving everyone else.
//!
//! [`TenantBudgets`] is that ledger. It sits in front of
//! `try_submit`-style admission: [`charge`](TenantBudgets::charge) before
//! attempting a submit (a denial is a retryable client-side signal, never
//! a park), [`credit`](TenantBudgets::credit) when the task retires — or
//! immediately, if the submit itself was rejected downstream. All
//! accounting is lock-free atomics; the map of lanes is immutable after
//! construction, so charging is a hash lookup plus one CAS loop — or
//! the CAS loop alone through a [`BudgetLane`] resolved once up front.

use nexuspp_core::TenantId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why [`TenantBudgets::charge`] refused an admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// The tenant is at its in-flight cap. Retryable: credit happens on
    /// task retirement, so capacity frees as the tenant's work drains.
    AtCap {
        /// The cap that was hit.
        cap: u64,
    },
    /// The tenant was never registered. Not retryable.
    UnknownTenant,
}

/// One tenant's lane: its cap plus live accounting.
struct Lane {
    cap: u64,
    in_flight: AtomicU64,
    admitted: AtomicU64,
    denied: AtomicU64,
    peak: AtomicU64,
}

impl Lane {
    fn new(cap: u64) -> Lane {
        Lane {
            cap,
            in_flight: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            denied: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn charge(&self) -> Result<(), BudgetError> {
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= self.cap {
                self.denied.fetch_add(1, Ordering::Relaxed);
                return Err(BudgetError::AtCap { cap: self.cap });
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(cur + 1, Ordering::Relaxed);
        Ok(())
    }

    fn credit(&self) {
        let prev = self.in_flight.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "credit without a matching charge");
    }

    fn counts(&self) -> TenantCounts {
        TenantCounts {
            cap: self.cap,
            in_flight: self.in_flight.load(Ordering::Acquire),
            admitted: self.admitted.load(Ordering::Relaxed),
            denied: self.denied.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one tenant's accounting (exact at quiescence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantCounts {
    /// The configured in-flight cap.
    pub cap: u64,
    /// Charges not yet credited back.
    pub in_flight: u64,
    /// Total successful charges.
    pub admitted: u64,
    /// Total refused charges.
    pub denied: u64,
    /// High-water mark of `in_flight`.
    pub peak: u64,
}

/// The multi-tenant admission ledger: one lane per registered tenant,
/// immutable after construction (lookup is wait-free, accounting is one
/// CAS loop). [`TenantId::NONE`] is always admitted unmetered — it is
/// the single-tenant/embedded path, which predates tenancy.
pub struct TenantBudgets {
    lanes: HashMap<TenantId, Arc<Lane>>,
}

/// One tenant's lane of a [`TenantBudgets`] ledger, resolved once by
/// [`TenantBudgets::lane_of`]: the same accounting as
/// [`charge`](TenantBudgets::charge) / [`credit`](TenantBudgets::credit)
/// by tenant id, minus the per-call map lookup. `None` inside is
/// [`TenantId::NONE`]: always admitted, never accounted.
#[derive(Clone)]
pub struct BudgetLane(Option<Arc<Lane>>);

impl BudgetLane {
    /// As [`TenantBudgets::charge`] for the tenant this was resolved for.
    pub fn charge(&self) -> Result<(), BudgetError> {
        self.0.as_ref().map_or(Ok(()), |lane| lane.charge())
    }

    /// As [`TenantBudgets::credit`] for the tenant this was resolved for.
    pub fn credit(&self) {
        if let Some(lane) = &self.0 {
            lane.credit();
        }
    }

    /// Whether a [`charge`](Self::charge) right now would be refused.
    /// A look, not an attempt: nothing is counted as denied.
    pub fn at_cap(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|lane| lane.in_flight.load(Ordering::Acquire) >= lane.cap)
    }
}

impl TenantBudgets {
    /// Build a ledger from `(tenant, cap)` pairs. Unregistered tenants
    /// are refused ([`BudgetError::UnknownTenant`]). A cap
    /// of 0 registers a tenant that is always denied (administrative
    /// suspension).
    pub fn new(caps: impl IntoIterator<Item = (TenantId, u64)>) -> TenantBudgets {
        TenantBudgets {
            lanes: caps
                .into_iter()
                .map(|(t, cap)| (t, Arc::new(Lane::new(cap))))
                .collect(),
        }
    }

    fn lane(&self, tenant: TenantId) -> Option<&Arc<Lane>> {
        self.lanes.get(&tenant)
    }

    /// Resolve `tenant`'s lane once, for callers that charge and credit
    /// the same tenant per task. An unregistered tenant is refused,
    /// exactly as [`charge`](Self::charge) would refuse it.
    pub fn lane_of(&self, tenant: TenantId) -> Result<BudgetLane, BudgetError> {
        if !tenant.is_tenant() {
            return Ok(BudgetLane(None));
        }
        match self.lane(tenant) {
            Some(lane) => Ok(BudgetLane(Some(Arc::clone(lane)))),
            None => Err(BudgetError::UnknownTenant),
        }
    }

    /// Reserve one in-flight slot for `tenant`. Must be paired with
    /// exactly one [`credit`](Self::credit) once the task retires (or
    /// immediately, if the downstream submit was itself rejected).
    /// [`TenantId::NONE`] always succeeds and is not accounted.
    pub fn charge(&self, tenant: TenantId) -> Result<(), BudgetError> {
        if !tenant.is_tenant() {
            return Ok(());
        }
        match self.lane(tenant) {
            Some(lane) => lane.charge(),
            None => Err(BudgetError::UnknownTenant),
        }
    }

    /// Release a slot reserved by a successful [`charge`](Self::charge).
    pub fn credit(&self, tenant: TenantId) {
        if !tenant.is_tenant() {
            return;
        }
        if let Some(lane) = self.lane(tenant) {
            lane.credit();
        }
    }

    /// Accounting snapshot for `tenant`; `None` if it has no lane.
    pub fn counts(&self, tenant: TenantId) -> Option<TenantCounts> {
        self.lane(tenant).map(|lane| lane.counts())
    }

    /// Snapshot every registered lane.
    pub fn all_counts(&self) -> Vec<(TenantId, TenantCounts)> {
        let mut v: Vec<(TenantId, TenantCounts)> = self
            .lanes
            .iter()
            .map(|(t, lane)| (*t, lane.counts()))
            .collect();
        v.sort_by_key(|(t, _)| *t);
        v
    }

    /// The registered tenants, sorted.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut v: Vec<TenantId> = self.lanes.keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_lane_shares_the_ledger_with_lookups_by_id() {
        let b = TenantBudgets::new([(TenantId(1), 2), (TenantId(7), 1)]);
        let lane = b.lane_of(TenantId(1)).unwrap();
        assert!(lane.charge().is_ok());
        assert!(b.charge(TenantId(1)).is_ok());
        assert!(lane.at_cap());
        assert_eq!(lane.charge(), Err(BudgetError::AtCap { cap: 2 }));
        lane.credit();
        assert!(!lane.at_cap());
        let c = b.counts(TenantId(1)).unwrap();
        assert_eq!((c.in_flight, c.denied), (1, 1), "a look is not a denial");
        // NONE stays unmetered; another tenant's lane is its own ledger
        // whichever way it is reached; a stranger is refused.
        let none = b.lane_of(TenantId::NONE).unwrap();
        assert!((0..10).all(|_| none.charge().is_ok() && !none.at_cap()));
        none.credit();
        assert!(b.lane_of(TenantId(7)).unwrap().charge().is_ok());
        assert_eq!(b.charge(TenantId(7)), Err(BudgetError::AtCap { cap: 1 }));
        assert!(matches!(
            b.lane_of(TenantId(9)),
            Err(BudgetError::UnknownTenant)
        ));
    }

    #[test]
    fn charges_up_to_cap_then_denies_until_credited() {
        let b = TenantBudgets::new([(TenantId(1), 2)]);
        assert!(b.charge(TenantId(1)).is_ok());
        assert!(b.charge(TenantId(1)).is_ok());
        assert_eq!(b.charge(TenantId(1)), Err(BudgetError::AtCap { cap: 2 }));
        b.credit(TenantId(1));
        assert!(b.charge(TenantId(1)).is_ok());
        let c = b.counts(TenantId(1)).unwrap();
        assert_eq!((c.admitted, c.denied, c.in_flight, c.peak), (3, 1, 2, 2));
    }

    #[test]
    fn tenants_are_isolated_ledgers() {
        let b = TenantBudgets::new([(TenantId(1), 1), (TenantId(2), 4)]);
        assert!(b.charge(TenantId(1)).is_ok());
        assert!(b.charge(TenantId(1)).is_err());
        // Tenant 1 being at cap must not affect tenant 2 at all.
        for _ in 0..4 {
            assert!(b.charge(TenantId(2)).is_ok());
        }
        assert_eq!(b.counts(TenantId(2)).unwrap().denied, 0);
    }

    #[test]
    fn none_is_unmetered_and_unknown_is_refused() {
        let b = TenantBudgets::new([(TenantId(1), 1)]);
        for _ in 0..100 {
            assert!(b.charge(TenantId::NONE).is_ok());
        }
        assert_eq!(b.charge(TenantId(9)), Err(BudgetError::UnknownTenant));
        assert!(b.counts(TenantId(9)).is_none());
    }

    #[test]
    fn zero_cap_suspends_a_tenant() {
        let b = TenantBudgets::new([(TenantId(3), 0)]);
        assert_eq!(b.charge(TenantId(3)), Err(BudgetError::AtCap { cap: 0 }));
    }

    #[test]
    fn concurrent_charge_credit_never_exceeds_cap() {
        let b = Arc::new(TenantBudgets::new([(TenantId(1), 8)]));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut held = 0u64;
                    for _ in 0..10_000 {
                        if b.charge(TenantId(1)).is_ok() {
                            held += 1;
                            let c = b.counts(TenantId(1)).unwrap();
                            assert!(c.in_flight <= c.cap, "cap violated: {c:?}");
                            if held > 1 {
                                b.credit(TenantId(1));
                                held -= 1;
                            }
                        }
                    }
                    for _ in 0..held {
                        b.credit(TenantId(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let c = b.counts(TenantId(1)).unwrap();
        assert_eq!(c.in_flight, 0);
        assert!(c.peak <= c.cap);
        assert_eq!(c.admitted + c.denied, 4 * 10_000);
    }
}
