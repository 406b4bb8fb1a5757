//! The unified submission surface: one error enum for every `submit*`
//! entry point, plus the builder-style task constructor.
//!
//! The single engine's step-wise path reports [`PoolError`], which
//! converts into [`SubmitError`]; the sharded engine and the dispatcher's
//! `try_submit` report [`SubmitError`] directly (a full shard is
//! `CapacityFull`, named), and a malformed parameter list is a real
//! error rather than a `debug_assert`. One enum, uniform retry
//! semantics; [`TaskBuilder`] is the one blessed way to construct a
//! [`Submission`] — it normalizes duplicate addresses away, so
//! builder-made submissions can never trip the bad-params path.

use crate::pool::PoolError;
use crate::priority::Priority;
use nexuspp_desim::SimTime;
use nexuspp_trace::normalize::normalize_params;
use nexuspp_trace::{MemCost, Param, TaskRecord};
use std::fmt;

/// Why a submission was not accepted — the single error surface shared
/// by the single engine, the sharded engine and the concurrent
/// dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// An involved shard's residency bound
    /// ([`ShardCapacity`](crate::ShardCapacity)) is exhausted. Retryable:
    /// a slot frees on that shard's next finish report.
    CapacityFull {
        /// The first full shard (in the task's first-touch order).
        shard: u32,
        /// The residency bound that was hit.
        limit: usize,
    },
    /// The Task Pool lacks free descriptors. Retryable: descriptors
    /// return to the free list as tasks finish.
    PoolFull {
        /// The full shard, when the rejection came from a sharded layer
        /// (`None` from the single engine).
        shard: Option<u32>,
        /// Descriptors the task needs (its dummy chain included).
        needed: usize,
        /// Descriptors currently free.
        free: usize,
    },
    /// The task needs more descriptors than an *empty* pool holds. Never
    /// retryable — resubmitting can only fail again.
    TaskTooLarge {
        /// The rejecting shard, when sharded (`None` from the single
        /// engine).
        shard: Option<u32>,
        /// Descriptors the task needs.
        needed: usize,
        /// Total pool capacity.
        capacity: usize,
    },
    /// The parameter list names one address twice ("bad params"). The
    /// resolution protocol requires normalized parameter lists — merge
    /// duplicate-address accesses first ([`TaskBuilder`] and
    /// [`normalize_params`] both do). Never retryable as-is.
    DuplicateAddress {
        /// The repeated address.
        addr: u64,
    },
}

impl SubmitError {
    /// Attach or override shard attribution.
    #[cfg(test)]
    pub(crate) fn on_shard(self, shard: u32) -> Self {
        match self {
            SubmitError::CapacityFull { limit, .. } => SubmitError::CapacityFull { shard, limit },
            SubmitError::PoolFull { needed, free, .. } => SubmitError::PoolFull {
                shard: Some(shard),
                needed,
                free,
            },
            SubmitError::TaskTooLarge {
                needed, capacity, ..
            } => SubmitError::TaskTooLarge {
                shard: Some(shard),
                needed,
                capacity,
            },
            e @ SubmitError::DuplicateAddress { .. } => e,
        }
    }

    /// The shard the rejection is attributed to, if any — the shard whose
    /// next finish report a retrying front-end should park on.
    pub fn shard(&self) -> Option<u32> {
        match self {
            SubmitError::CapacityFull { shard, .. } => Some(*shard),
            SubmitError::PoolFull { shard, .. } | SubmitError::TaskTooLarge { shard, .. } => *shard,
            SubmitError::DuplicateAddress { .. } => None,
        }
    }

    /// True if resubmitting the same task can succeed after completions
    /// free space (`CapacityFull`, `PoolFull`); false for structural
    /// rejections (`TaskTooLarge`, `DuplicateAddress`).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SubmitError::CapacityFull { .. } | SubmitError::PoolFull { .. }
        )
    }
}

impl From<PoolError> for SubmitError {
    fn from(e: PoolError) -> Self {
        match e {
            PoolError::PoolFull { needed, free } => SubmitError::PoolFull {
                shard: None,
                needed,
                free,
            },
            PoolError::TaskTooLarge { needed, capacity } => SubmitError::TaskTooLarge {
                shard: None,
                needed,
                capacity,
            },
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = |shard: &Option<u32>| match shard {
            Some(s) => format!(" on shard {s}"),
            None => String::new(),
        };
        match self {
            SubmitError::CapacityFull { shard, limit } => write!(
                f,
                "shard {shard} is at its residency bound ({limit}); retry after its next finish"
            ),
            SubmitError::PoolFull {
                shard,
                needed,
                free,
            } => write!(
                f,
                "task pool full{}: task needs {needed} descriptor(s), {free} free; \
                 retry after a completion",
                at(shard)
            ),
            SubmitError::TaskTooLarge {
                shard,
                needed,
                capacity,
            } => write!(
                f,
                "task too large{}: needs {needed} descriptor(s) but the pool holds {capacity}",
                at(shard)
            ),
            SubmitError::DuplicateAddress { addr } => write!(
                f,
                "parameter list names address {addr:#x} twice; \
                 merge duplicate accesses (normalize_params / TaskBuilder)"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Which tenant a submission belongs to — admission-control metadata for
/// the multi-client service layer. Resolution semantics ignore it
/// entirely (dependencies are by address, never by tenant); it exists so
/// ingress layers can meter per-tenant in-flight budgets and label
/// per-tenant metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The "no tenant" sentinel — what direct (non-service) submissions
    /// carry. Admission layers treat it as unmetered.
    pub const NONE: TenantId = TenantId(u32::MAX);

    /// True unless this is the [`NONE`](TenantId::NONE) sentinel.
    pub fn is_tenant(&self) -> bool {
        *self != TenantId::NONE
    }
}

impl Default for TenantId {
    fn default() -> TenantId {
        TenantId::NONE
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_tenant() {
            write!(f, "tenant{}", self.0)
        } else {
            f.write_str("tenant-none")
        }
    }
}

/// A fully-specified task submission: what every `submit*` entry point
/// consumes, and what [`TaskBuilder::build`] produces.
///
/// The fields are exactly the positional `(fptr, tag, params)` tuple the
/// resolvers have always taken, plus the scheduling
/// [`Priority`] the ready-task handoff layers consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Function pointer / task-type tag (`*f` in the Task Pool layout).
    pub fptr: u64,
    /// Caller tag, round-tripped through finish reports.
    pub tag: u64,
    /// Scheduling class once ready (ignored by pure resolvers).
    pub priority: Priority,
    /// Admission-control tenant label (ignored by pure resolvers;
    /// metered by the service layer). [`TenantId::NONE`] for direct
    /// submissions.
    pub tenant: TenantId,
    /// Parameter list. Must be normalized (no duplicate addresses) before
    /// it reaches a resolver; [`Submission::validate`] checks, the
    /// builder guarantees it.
    pub params: Vec<Param>,
}

/// The precondition every resolver relies on, stated once: no address
/// may appear twice in a parameter list. Returns the smallest address
/// that does. A list that fits one Task Descriptor is scanned pairwise,
/// in place; a longer one is sorted in a copy.
pub fn duplicate_address(params: &[Param]) -> Option<u64> {
    if params.len() > PAIRWISE_MAX {
        return duplicate_address_sorted(params);
    }
    params
        .iter()
        .enumerate()
        .filter(|&(i, p)| params[..i].iter().any(|q| q.addr == p.addr))
        .map(|(_, p)| p.addr)
        .min()
}

/// The longest list [`duplicate_address`] scans pairwise (at most 28
/// comparisons): a Task Descriptor's width in the paper's Table IV.
const PAIRWISE_MAX: usize = 8;

fn duplicate_address_sorted(params: &[Param]) -> Option<u64> {
    let mut addrs: Vec<u64> = params.iter().map(|p| p.addr).collect();
    addrs.sort_unstable();
    addrs.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

impl Submission {
    /// Check the resolver precondition ([`duplicate_address`]).
    pub fn validate(&self) -> Result<(), SubmitError> {
        match duplicate_address(&self.params) {
            Some(addr) => Err(SubmitError::DuplicateAddress { addr }),
            None => Ok(()),
        }
    }

    /// Decompose into the positional wire format the batch front-ends
    /// consume (dropping the priority).
    pub fn into_parts(self) -> (u64, u64, Vec<Param>) {
        (self.fptr, self.tag, self.params)
    }

    /// Turn the submission into a trace record (the tag becomes the
    /// record id), for feeding the simulators and analysis passes.
    pub fn into_record(self, exec: SimTime, read: MemCost, write: MemCost) -> TaskRecord {
        TaskRecord {
            id: self.tag,
            fptr: self.fptr,
            params: self.params,
            exec,
            read,
            write,
        }
    }
}

impl From<(u64, u64, Vec<Param>)> for Submission {
    fn from((fptr, tag, params): (u64, u64, Vec<Param>)) -> Self {
        Submission {
            fptr,
            tag,
            priority: Priority::Normal,
            tenant: TenantId::NONE,
            params,
        }
    }
}

impl From<Submission> for (u64, u64, Vec<Param>) {
    fn from(s: Submission) -> Self {
        s.into_parts()
    }
}

/// Builder-style constructor for a [`Submission`] — the blessed way to
/// put a task together, replacing hand-assembled positional tuples.
///
/// `build` normalizes the parameter list (duplicate-address accesses
/// merge into the most conservative mode, first-occurrence order is
/// kept), so builder output always satisfies [`Submission::validate`].
///
/// ```
/// use nexuspp_core::TaskBuilder;
///
/// let sub = TaskBuilder::new(0xF00D)
///     .tag(7)
///     .reads(0x1000, 64)
///     .writes(0x2000, 64)
///     .high_priority()
///     .build();
/// assert_eq!(sub.tag, 7);
/// assert_eq!(sub.params.len(), 2);
/// assert!(sub.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    fptr: u64,
    tag: u64,
    priority: Priority,
    tenant: TenantId,
    params: Vec<Param>,
}

impl TaskBuilder {
    /// Start a task with function pointer `fptr` (tag 0, normal
    /// priority, no tenant, no parameters).
    pub fn new(fptr: u64) -> Self {
        TaskBuilder {
            fptr,
            tag: 0,
            priority: Priority::Normal,
            tenant: TenantId::NONE,
            params: Vec::new(),
        }
    }

    /// Set the caller tag round-tripped through finish reports.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Label the submission with an admission-control tenant (service
    /// ingress layers meter budgets per tenant; resolvers ignore it).
    pub fn tenant(mut self, t: TenantId) -> Self {
        self.tenant = t;
        self
    }

    /// Set the scheduling class explicitly.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Mark the task high priority (the StarSs `highpriority` clause).
    pub fn high_priority(self) -> Self {
        self.priority(Priority::High)
    }

    /// Declare a read-only parameter (`input(...)`).
    pub fn reads(self, addr: u64, size: u32) -> Self {
        self.param(Param::input(addr, size))
    }

    /// Declare a write-only parameter (`output(...)`).
    pub fn writes(self, addr: u64, size: u32) -> Self {
        self.param(Param::output(addr, size))
    }

    /// Declare a read-write parameter (`inout(...)`).
    pub fn read_writes(self, addr: u64, size: u32) -> Self {
        self.param(Param::inout(addr, size))
    }

    /// Append an already-built [`Param`].
    pub fn param(mut self, p: Param) -> Self {
        self.params.push(p);
        self
    }

    /// Finish: normalize the parameter list and produce the
    /// [`Submission`].
    pub fn build(self) -> Submission {
        Submission {
            fptr: self.fptr,
            tag: self.tag,
            priority: self.priority,
            tenant: self.tenant,
            params: normalize_params(&self.params),
        }
    }

    /// Finish as a trace record (see [`Submission::into_record`]).
    pub fn record(self, exec: SimTime, read: MemCost, write: MemCost) -> TaskRecord {
        self.build().into_record(exec, read, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_trace::AccessMode;
    use proptest::prelude::*;

    proptest! {
        /// The pairwise scan and the sort agree on the smallest duplicate,
        /// below and above the cutoff (addresses drawn from a small space,
        /// so most long lists repeat one).
        #[test]
        fn pairwise_and_sorted_scans_name_the_same_duplicate(
            addrs in prop::collection::vec(0u64..24, 0..2 * PAIRWISE_MAX),
        ) {
            let params: Vec<Param> = addrs.iter().map(|&a| Param::input(a * 8, 4)).collect();
            prop_assert_eq!(duplicate_address(&params), duplicate_address_sorted(&params));
        }
    }

    #[test]
    fn builder_normalizes_duplicate_addresses() {
        let sub = TaskBuilder::new(1)
            .reads(0x10, 4)
            .writes(0x10, 4)
            .reads(0x20, 4)
            .build();
        assert_eq!(sub.params.len(), 2);
        assert_eq!(sub.params[0].mode, AccessMode::InOut);
        assert!(sub.validate().is_ok());
    }

    #[test]
    fn validate_reports_the_duplicated_address() {
        let sub = Submission {
            fptr: 1,
            tag: 0,
            priority: Priority::Normal,
            tenant: TenantId::NONE,
            params: vec![Param::input(0x40, 4), Param::output(0x40, 4)],
        };
        assert_eq!(
            sub.validate(),
            Err(SubmitError::DuplicateAddress { addr: 0x40 })
        );
    }

    #[test]
    fn tenant_defaults_to_none_and_round_trips() {
        let sub = TaskBuilder::new(1).reads(0x10, 4).build();
        assert_eq!(sub.tenant, TenantId::NONE);
        assert!(!sub.tenant.is_tenant());
        let sub = TaskBuilder::new(1).tenant(TenantId(3)).build();
        assert_eq!(sub.tenant, TenantId(3));
        assert!(sub.tenant.is_tenant());
        assert_eq!(sub.tenant.to_string(), "tenant3");
        assert_eq!(TenantId::default(), TenantId::NONE);
    }

    #[test]
    fn tuple_round_trip_keeps_fields() {
        let sub: Submission = (9u64, 42u64, vec![Param::input(0x8, 4)]).into();
        assert_eq!(sub.priority, Priority::Normal);
        let (fptr, tag, params) = sub.into_parts();
        assert_eq!((fptr, tag, params.len()), (9, 42, 1));
    }

    #[test]
    fn record_uses_tag_as_id() {
        let rec = TaskBuilder::new(0xABCD).tag(5).writes(0x100, 16).record(
            SimTime::from_ns(10),
            MemCost::None,
            MemCost::Bytes(64),
        );
        assert_eq!(rec.id, 5);
        assert_eq!(rec.fptr, 0xABCD);
        assert_eq!(rec.exec, SimTime::from_ns(10));
    }

    #[test]
    fn retryability_split() {
        assert!(SubmitError::PoolFull {
            shard: None,
            needed: 1,
            free: 0
        }
        .is_retryable());
        assert!(SubmitError::CapacityFull { shard: 0, limit: 2 }.is_retryable());
        assert!(!SubmitError::TaskTooLarge {
            shard: Some(1),
            needed: 9,
            capacity: 4
        }
        .is_retryable());
        assert!(!SubmitError::DuplicateAddress { addr: 1 }.is_retryable());
    }

    #[test]
    fn shard_attribution() {
        let e: SubmitError = PoolError::PoolFull { needed: 2, free: 1 }.into();
        assert_eq!(e.shard(), None);
        let e = e.on_shard(3);
        assert_eq!(e.shard(), Some(3));
        assert_eq!(
            e,
            SubmitError::PoolFull {
                shard: Some(3),
                needed: 2,
                free: 1
            }
        );
    }

    #[test]
    fn display_messages_name_the_cause() {
        let msgs = [
            SubmitError::CapacityFull { shard: 2, limit: 8 }.to_string(),
            SubmitError::PoolFull {
                shard: Some(1),
                needed: 3,
                free: 0,
            }
            .to_string(),
            SubmitError::TaskTooLarge {
                shard: None,
                needed: 99,
                capacity: 4,
            }
            .to_string(),
            SubmitError::DuplicateAddress { addr: 0xAB }.to_string(),
        ];
        assert!(msgs[0].contains("residency bound"));
        assert!(msgs[1].contains("shard 1"));
        assert!(msgs[2].contains("too large"));
        assert!(msgs[3].contains("0xab"));
    }
}
