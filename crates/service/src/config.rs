//! Service construction parameters.

use nexuspp_core::{ShardCapacity, TenantId};

/// Everything a [`ResolverService`](crate::ResolverService) is built
/// from: the wrapped runtime's shape plus the tenant roster. The builder
/// methods are the one way to set a field, so their clamps hold.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the wrapped runtime.
    pub(crate) workers: usize,
    /// Dependency-resolution shards.
    pub(crate) shards: usize,
    /// Per-shard residency bound. Bounded capacity is what makes the
    /// ingress retry slot earn its keep; unbounded never rejects.
    pub(crate) capacity: ShardCapacity,
    /// Bound of each tenant's ingress lane (queued, not yet admitted).
    /// A full lane is client-visible backpressure.
    pub(crate) lane_capacity: usize,
    /// Max tasks one admission pass takes from a lane before giving
    /// the lane up — for the ingress thread, before moving to the next
    /// lane (round-robin fairness quantum).
    pub(crate) sweep_batch: usize,
    pub(crate) tenants: Vec<(TenantId, u64)>,
}

impl ServiceConfig {
    /// A config with `workers` workers and `shards` shards, unbounded
    /// shard capacity, and no tenants yet (add with
    /// [`tenant`](Self::tenant)).
    pub fn new(workers: usize, shards: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            shards,
            capacity: ShardCapacity::Unbounded,
            lane_capacity: 256,
            sweep_batch: 32,
            tenants: Vec::new(),
        }
    }

    /// Register a tenant with an in-flight budget (tasks admitted into
    /// the runtime but not yet retired). Only registered tenants get a
    /// [`SubmissionHandle`](crate::SubmissionHandle).
    pub fn tenant(mut self, id: TenantId, budget: u64) -> Self {
        self.tenants.push((id, budget));
        self
    }

    /// Bound each shard's resident tasks (exercises the capacity-retry
    /// ingress path).
    pub fn capacity(mut self, cap: ShardCapacity) -> Self {
        self.capacity = cap;
        self
    }

    /// Bound each tenant's ingress lane (at least 1).
    pub fn lane_capacity(mut self, cap: usize) -> Self {
        self.lane_capacity = cap.max(1);
        self
    }

    /// Set the per-lane fairness quantum (at least 1).
    pub fn sweep_batch(mut self, batch: usize) -> Self {
        self.sweep_batch = batch.max(1);
        self
    }

    /// The registered tenants, in registration order.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, u64)> + '_ {
        self.tenants.iter().copied()
    }
}
