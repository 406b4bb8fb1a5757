//! Service construction parameters.

use nexuspp_core::{NexusConfig, ShardCapacity, TenantId};

/// Everything a [`ResolverService`](crate::ResolverService) is built
/// from: the wrapped runtime's shape plus the tenant roster. The builder
/// methods are the one way to set a field, so their clamps hold.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the wrapped runtime.
    pub(crate) workers: usize,
    /// Dependency-resolution shards.
    pub(crate) shards: usize,
    /// Per-shard residency bound: Table IV's Task Pool unless set. A
    /// submission that finds a shard full parks in its lane's retry
    /// slot.
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
    /// A config with `workers` workers and `shards` shards, each shard
    /// holding at most a Table IV Task Pool of resident tasks
    /// (`NexusConfig::default().task_pool_entries`, 1024, as
    /// [`Runtime::new`](nexuspp_runtime::Runtime::new)), and no tenants
    /// yet (add with [`tenant`](Self::tenant)).
    pub fn new(workers: usize, shards: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            shards,
            capacity: ShardCapacity::Bounded(NexusConfig::default().task_pool_entries),
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

    /// Set each shard's residency bound ([`ShardCapacity::Unbounded`]
    /// never rejects a submission).
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
    pub(crate) fn tenants(&self) -> impl Iterator<Item = (TenantId, u64)> + '_ {
        self.tenants.iter().copied()
    }
}
