//! The sharded engine: N address-partitioned [`DependencyEngine`]s
//! composed into one logically-equivalent resolver.
//!
//! ## Protocol
//!
//! * **Routing** — every parameter address belongs to exactly one shard,
//!   chosen by [`shard_of_addr`] (high bits of the table's own hash
//!   family, so the assignment is stable and statistically independent of
//!   in-shard bucketing).
//! * **Admit** — a task's parameter list is split into per-shard slices;
//!   each involved shard admits a *sub-descriptor* holding its slice. The
//!   home record (the [`TaskId`] slot here; a home-shard row in hardware)
//!   keeps the slice list and a **remote dependence counter**: the number
//!   of shards whose slice still has unresolved conflicts. Admission is
//!   atomic across shards: capacities are pre-checked so a rejection
//!   ([`PoolError::PoolFull`]) never leaves a partial admission behind.
//! * **Check** — each shard runs the paper's Listing 2 loop over its own
//!   slice against its own Dependence Table. A shard slice found
//!   conflict-free decrements the remote counter. A Dependence-Table-full
//!   stall parks the whole check exactly like the single engine's
//!   `check_cursor` (the stall is resumable per shard *and* per
//!   parameter).
//! * **Finish** — every involved shard releases its slice and wakes its
//!   local kick-off waiters; each woken sub-descriptor sends a *remote
//!   decrement* to its task's home record; a task whose counter reaches
//!   zero (with its check complete) is newly ready. Since wake-ups only
//!   ever travel finish→home, the per-shard wakes of one completion
//!   commute and the aggregate is order-insensitive.
//!
//! Equivalence with the single engine is structural: distinct addresses
//! impose independent constraints in the Dependence Table, so splitting
//! the table by address partitions both the state and the wake-up traffic
//! without changing either. `tests/sharded_differential.rs` checks it the
//! hard way (against the single engine *and* the oracle DAG, for
//! N ∈ {1, 2, 4, 8}, including pool-full and table-full paths).

use nexuspp_core::engine::CheckProgress;
use nexuspp_core::pool::PoolError;
use nexuspp_core::{
    shard_of_addr, DependencyEngine, NexusConfig, OpCost, ShardCapacity, Submission, SubmitError,
    TdIndex,
};
use nexuspp_trace::Param;
use std::fmt;

/// An admission rejection attributed to the shard that caused it, so a
/// stalling front-end (the multi-Maestro master, the batched submitter)
/// knows which shard's next finish report to park on.
///
/// This is the positional-tuple path's error type; it folds a residency
/// rejection into `PoolFull { needed: 1, free: 0 }`. The
/// [`Submission`]-based entry points ([`ShardedEngine::submit_task`],
/// [`ShardedEngine::try_admit_task`]) report the richer
/// [`SubmitError`], which keeps capacity-full distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRejection {
    /// The first shard (in the task's first-touch order) that could not
    /// hold its slice.
    pub shard: u32,
    /// The underlying pool/capacity error (`PoolFull` is retryable).
    pub error: PoolError,
}

impl From<ShardRejection> for SubmitError {
    fn from(r: ShardRejection) -> Self {
        SubmitError::from(r.error).on_shard(r.shard)
    }
}

/// A task's identity in the sharded engine: its home-record slot index.
/// Slots are reused after `finish`, like Task Pool indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Per-shard cost breakdown of one sharded operation. Shards can service
/// their portions concurrently, so the modeled latency of the operation
/// is the *maximum* per-shard cost while the energy/occupancy is the sum
/// ([`OpBreakdown::total`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpBreakdown {
    /// `(shard, cost)` for every shard the operation touched.
    pub per_shard: Vec<(u32, OpCost)>,
}

impl OpBreakdown {
    /// Accumulate `cost` against `shard`.
    pub fn add(&mut self, shard: u32, cost: OpCost) {
        match self.per_shard.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, c)) => *c += cost,
            None => self.per_shard.push((shard, cost)),
        }
    }

    /// Total accesses across all shards (the serialized-equivalent work).
    pub fn total(&self) -> OpCost {
        self.per_shard
            .iter()
            .fold(OpCost::ZERO, |acc, (_, c)| acc + *c)
    }

    /// Number of distinct shards touched.
    pub fn shards_touched(&self) -> usize {
        self.per_shard.len()
    }
}

/// Progress of a (possibly resumed) sharded dependency check.
#[derive(Debug, Clone)]
pub enum ShardedCheck {
    /// Every shard slice processed. `ready` is true if no slice recorded a
    /// dependence.
    Done {
        /// Task has no outstanding dependencies on any shard.
        ready: bool,
        /// Work performed, by shard.
        cost: OpBreakdown,
    },
    /// `shard`'s Dependence Table was full mid-slice; call `check` again
    /// after a completion frees space there.
    Stalled {
        /// The shard that stalled.
        shard: u32,
        /// Work performed this attempt, by shard.
        cost: OpBreakdown,
    },
}

/// Result of finishing a task through the sharded engine.
#[derive(Debug, Clone, Default)]
pub struct ShardedFinish {
    /// Tasks whose remote dependence counter reached zero (check complete)
    /// thanks to this completion, in wake order (the concatenation of
    /// [`wakes_by_shard`](Self::wakes_by_shard)).
    pub newly_ready: Vec<TaskId>,
    /// The same wake set attributed to the shard whose slice release
    /// completed each task. The timing models treat each entry as one
    /// shard's kick-off FIFO traffic
    /// (`nexuspp_taskmachine::multimaestro`).
    pub wakes_by_shard: Vec<(u32, Vec<TaskId>)>,
    /// The finished task's caller tag.
    pub tag: u64,
    /// Work performed, by shard.
    pub cost: OpBreakdown,
}

/// The routing policy shared by every shard consumer: split a parameter
/// list into per-shard slices by [`shard_of_addr`], preserving parameter
/// order inside each slice and first-touch order across shards.
pub(crate) fn route_params(params: &[Param], n_shards: usize) -> Vec<(u32, Vec<Param>)> {
    let mut groups: Vec<(u32, Vec<Param>)> = Vec::new();
    for p in params {
        let s = shard_of_addr(p.addr, n_shards) as u32;
        match groups.iter_mut().find(|(g, _)| *g == s) {
            Some((_, v)) => v.push(*p),
            None => groups.push((s, vec![*p])),
        }
    }
    groups
}

/// One shard slice of a task: the sub-descriptor holding the parameters
/// this shard owns.
#[derive(Debug, Clone, Copy)]
struct Part {
    shard: u32,
    td: TdIndex,
}

/// The home record of a live task.
#[derive(Debug, Clone)]
struct TaskState {
    tag: u64,
    parts: Vec<Part>,
    /// Resume cursor over `parts` for stalled checks.
    next_check: usize,
    /// Remote dependence counter: shards whose slice is not yet
    /// conflict-free. Decremented at slice-check completion (if already
    /// free) or by a remote wake from the owning shard's `finish`.
    pending: u32,
    /// All slices checked (the cross-shard scheduling gate).
    checked: bool,
}

#[derive(Debug, Clone)]
enum TaskSlot {
    Free,
    Live(TaskState),
}

/// N address-partitioned dependency engines behind one engine-shaped API.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    shards: Vec<DependencyEngine>,
    growable: bool,
    capacity: ShardCapacity,
    /// Live tasks holding a residency slot on each shard (one slot per
    /// involved shard per task, regardless of slice width).
    resident: Vec<usize>,
    tasks: Vec<TaskSlot>,
    free: Vec<u32>,
    /// Per shard: sub-descriptor index → owning task (reverse map for the
    /// remote-decrement path).
    owner: Vec<Vec<Option<TaskId>>>,
    in_flight: usize,
}

impl ShardedEngine {
    /// Build `n_shards` engines, each with the capacities in `cfg`
    /// (capacities are per shard, mirroring hardware where each shard is
    /// its own SRAM bank set).
    pub fn new(n_shards: usize, cfg: &NexusConfig) -> Self {
        ShardedEngine::with_capacity(n_shards, cfg, ShardCapacity::Unbounded)
    }

    /// Build a bounded engine: on top of `cfg`'s table capacities, each
    /// shard holds at most `capacity` resident tasks; a submission that
    /// would exceed that on any involved shard is rejected whole
    /// (atomically) with the full shard identified, for stall/retry.
    pub fn with_capacity(n_shards: usize, cfg: &NexusConfig, capacity: ShardCapacity) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        capacity.validate();
        ShardedEngine {
            shards: (0..n_shards).map(|_| DependencyEngine::new(cfg)).collect(),
            growable: cfg.growable,
            capacity,
            resident: vec![0; n_shards],
            tasks: Vec::new(),
            free: Vec::new(),
            owner: vec![Vec::new(); n_shards],
            in_flight: 0,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's engine (reports, tests).
    pub fn shard(&self, i: usize) -> &DependencyEngine {
        &self.shards[i]
    }

    /// Tasks admitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The per-shard residency bound this engine enforces.
    pub fn capacity(&self) -> ShardCapacity {
        self.capacity
    }

    /// Live tasks currently holding a residency slot on shard `s`.
    pub fn resident_on(&self, s: usize) -> usize {
        self.resident[s]
    }

    /// Which shard owns `addr` under this engine's partition.
    pub fn shard_of(&self, addr: u64) -> usize {
        shard_of_addr(addr, self.shards.len())
    }

    /// Caller tag of a live task.
    pub fn tag_of(&self, id: TaskId) -> u64 {
        self.state(id).tag
    }

    fn state(&self, id: TaskId) -> &TaskState {
        match &self.tasks[id.0 as usize] {
            TaskSlot::Live(s) => s,
            TaskSlot::Free => panic!("{id} is not live"),
        }
    }

    fn state_mut(&mut self, id: TaskId) -> &mut TaskState {
        match &mut self.tasks[id.0 as usize] {
            TaskSlot::Live(s) => s,
            TaskSlot::Free => panic!("{id} is not live"),
        }
    }

    /// Split a parameter list into per-shard slices (see
    /// [`route_params`]).
    fn partition(&self, params: &[Param]) -> Vec<(u32, Vec<Param>)> {
        route_params(params, self.shards.len())
    }

    fn alloc_slot(&mut self) -> TaskId {
        match self.free.pop() {
            Some(i) => TaskId(i),
            None => {
                self.tasks.push(TaskSlot::Free);
                TaskId(self.tasks.len() as u32 - 1)
            }
        }
    }

    fn set_owner(&mut self, shard: u32, td: TdIndex, id: TaskId) {
        let map = &mut self.owner[shard as usize];
        let i = td.0 as usize;
        if i >= map.len() {
            map.resize(i + 1, None);
        }
        map[i] = Some(id);
    }

    /// Pre-check that every involved shard can hold its slice — table
    /// space under a fixed `cfg`, and a residency slot under a bounded
    /// [`ShardCapacity`] — so the multi-shard admission below never
    /// partially commits. The rejection names the first failing shard.
    fn capacity_check(&self, groups: &[(u32, Vec<Param>)]) -> Result<(), SubmitError> {
        for (s, sub) in groups {
            if !self.capacity.admits(self.resident[*s as usize]) {
                return Err(SubmitError::CapacityFull {
                    shard: *s,
                    limit: self.capacity.limit().expect("unbounded always admits"),
                });
            }
            if self.growable {
                continue;
            }
            let pool = self.shards[*s as usize].pool();
            let needed = pool.tds_needed(sub.len());
            if needed > pool.capacity() {
                return Err(SubmitError::TaskTooLarge {
                    shard: Some(*s),
                    needed,
                    capacity: pool.capacity(),
                });
            }
            if needed > pool.free_count() {
                return Err(SubmitError::PoolFull {
                    shard: Some(*s),
                    needed,
                    free: pool.free_count(),
                });
            }
        }
        Ok(())
    }

    /// Downgrade a unified rejection to the positional path's
    /// [`ShardRejection`] (residency-full folds into `PoolFull`, exactly
    /// the legacy encoding).
    fn downgrade(e: SubmitError) -> ShardRejection {
        let shard = e
            .shard()
            .expect("capacity_check attributes every rejection");
        let error = match e {
            SubmitError::CapacityFull { .. } => PoolError::PoolFull { needed: 1, free: 0 },
            SubmitError::PoolFull { needed, free, .. } => PoolError::PoolFull { needed, free },
            SubmitError::TaskTooLarge {
                needed, capacity, ..
            } => PoolError::TaskTooLarge { needed, capacity },
            SubmitError::DuplicateAddress { .. } => {
                unreachable!("capacity_check never reports bad params")
            }
        };
        ShardRejection { shard, error }
    }

    /// Admit a task: allocate a sub-descriptor on every shard that owns at
    /// least one of its parameters. Fails retryably (and atomically — no
    /// shard is modified) when any involved shard's pool lacks space.
    pub fn admit(
        &mut self,
        fptr: u64,
        tag: u64,
        params: Vec<Param>,
    ) -> Result<(TaskId, OpBreakdown), PoolError> {
        self.try_admit(fptr, tag, params).map_err(|r| r.error)
    }

    /// [`admit`](Self::admit) with the rejecting shard identified, for
    /// front-ends that park on a specific shard's finish stream.
    pub fn try_admit(
        &mut self,
        fptr: u64,
        tag: u64,
        params: Vec<Param>,
    ) -> Result<(TaskId, OpBreakdown), ShardRejection> {
        let groups = self.partition(&params);
        self.capacity_check(&groups).map_err(Self::downgrade)?;
        Ok(self.admit_routed(fptr, tag, groups))
    }

    /// [`try_admit`](Self::try_admit) over the unified surface: consume a
    /// [`Submission`] and report rejections as [`SubmitError`] —
    /// including [`SubmitError::CapacityFull`] (which the positional path
    /// folds into `PoolFull`) and [`SubmitError::DuplicateAddress`] for
    /// malformed parameter lists.
    pub fn try_admit_task(
        &mut self,
        sub: Submission,
    ) -> Result<(TaskId, OpBreakdown), SubmitError> {
        sub.validate()?;
        let (fptr, tag, params) = sub.into_parts();
        let groups = self.partition(&params);
        self.capacity_check(&groups)?;
        Ok(self.admit_routed(fptr, tag, groups))
    }

    /// The shared multi-shard admission body (capacity already cleared).
    fn admit_routed(
        &mut self,
        fptr: u64,
        tag: u64,
        groups: Vec<(u32, Vec<Param>)>,
    ) -> (TaskId, OpBreakdown) {
        let id = self.alloc_slot();
        let mut cost = OpBreakdown::default();
        let mut parts = Vec::with_capacity(groups.len());
        for (s, sub) in groups {
            let (td, c) = self.shards[s as usize]
                .admit(fptr, tag, sub)
                .expect("capacity pre-checked");
            self.set_owner(s, td, id);
            self.resident[s as usize] += 1;
            parts.push(Part { shard: s, td });
            cost.add(s, c);
        }
        let pending = parts.len() as u32;
        self.tasks[id.0 as usize] = TaskSlot::Live(TaskState {
            tag,
            parts,
            next_check: 0,
            pending,
            checked: false,
        });
        self.in_flight += 1;
        (id, cost)
    }

    /// Check the task's shard slices, resuming from the last stall point
    /// if any. Slices already woken by intervening completions are
    /// accounted through the remote counter, so resuming after a stall is
    /// race-free even when other tasks finished in between.
    pub fn check(&mut self, id: TaskId) -> ShardedCheck {
        let mut cost = OpBreakdown::default();
        loop {
            let part = {
                let st = self.state(id);
                if st.next_check >= st.parts.len() {
                    break;
                }
                st.parts[st.next_check]
            };
            match self.shards[part.shard as usize].check(part.td) {
                CheckProgress::Done { ready, cost: c } => {
                    cost.add(part.shard, c);
                    let st = self.state_mut(id);
                    st.next_check += 1;
                    if ready {
                        debug_assert!(st.pending > 0);
                        st.pending -= 1;
                    }
                }
                CheckProgress::Stalled { cost: c } => {
                    cost.add(part.shard, c);
                    return ShardedCheck::Stalled {
                        shard: part.shard,
                        cost,
                    };
                }
            }
        }
        let st = self.state_mut(id);
        st.checked = true;
        ShardedCheck::Done {
            ready: st.pending == 0,
            cost,
        }
    }

    /// Finish a ready task: every involved shard releases its slice and
    /// wakes its local waiters; remote decrements are aggregated at each
    /// woken task's home record. A task whose counter reaches zero is
    /// reported as newly ready, attributed to the shard whose slice
    /// release completed it, in slice order. Never stalls.
    pub fn finish(&mut self, id: TaskId) -> ShardedFinish {
        let st = match std::mem::replace(&mut self.tasks[id.0 as usize], TaskSlot::Free) {
            TaskSlot::Live(s) => s,
            TaskSlot::Free => panic!("finish({id}) on a free slot"),
        };
        debug_assert!(
            st.checked,
            "finishing a task that never completed its check"
        );
        debug_assert_eq!(st.pending, 0, "finishing a task with unresolved deps");
        let mut out = ShardedFinish {
            tag: st.tag,
            ..Default::default()
        };
        for part in &st.parts {
            let fin = self.shards[part.shard as usize].finish(part.td);
            out.cost.add(part.shard, fin.cost);
            self.owner[part.shard as usize][part.td.0 as usize] = None;
            self.resident[part.shard as usize] -= 1;
            let mut woken_here = Vec::new();
            for woken in fin.newly_ready {
                let wid = self.owner[part.shard as usize][woken.0 as usize]
                    .expect("woken sub-descriptor must have an owner");
                let wst = self.state_mut(wid);
                debug_assert!(wst.pending > 0, "remote decrement below zero");
                wst.pending -= 1;
                if wst.pending == 0 && wst.checked {
                    woken_here.push(wid);
                }
            }
            if !woken_here.is_empty() {
                out.newly_ready.extend(woken_here.iter().copied());
                out.wakes_by_shard.push((part.shard, woken_here));
            }
        }
        self.free.push(id.0);
        self.in_flight -= 1;
        out
    }

    /// Convenience: admit + check in one call. With a growable
    /// configuration this never stalls; a mid-check stall on a fixed
    /// configuration panics — use the step-wise API with retry there.
    pub fn submit(
        &mut self,
        fptr: u64,
        tag: u64,
        params: Vec<Param>,
    ) -> Result<(TaskId, bool), PoolError> {
        let (id, _) = self.admit(fptr, tag, params)?;
        match self.check(id) {
            ShardedCheck::Done { ready, .. } => Ok((id, ready)),
            ShardedCheck::Stalled { shard, .. } => panic!(
                "submit(): dependence table full on shard {shard}; \
                 use admit()/check() with retry for fixed configs"
            ),
        }
    }

    /// [`submit`](Self::submit) over the unified surface: admit + check a
    /// [`Submission`], reporting any rejection as a [`SubmitError`] with
    /// the failing shard attributed (capacity-full, pool-full and
    /// bad-params all surface as errors; only the fixed-config mid-check
    /// table stall keeps the step-wise-API panic).
    pub fn submit_task(&mut self, sub: Submission) -> Result<(TaskId, bool), SubmitError> {
        let (id, _) = self.try_admit_task(sub)?;
        match self.check(id) {
            ShardedCheck::Done { ready, .. } => Ok((id, ready)),
            ShardedCheck::Stalled { shard, .. } => panic!(
                "submit_task(): dependence table full on shard {shard}; \
                 use admit()/check() with retry for fixed configs"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_trace::Param;

    fn engine(n: usize) -> ShardedEngine {
        ShardedEngine::new(n, &NexusConfig::unbounded())
    }

    fn submit(e: &mut ShardedEngine, tag: u64, params: Vec<Param>) -> (TaskId, bool) {
        e.submit(1, tag, params).unwrap()
    }

    #[test]
    fn chain_spanning_shards_executes_in_order() {
        for n in [1, 2, 4, 8] {
            let mut e = engine(n);
            // t0 writes A,B; t1 reads A writes C; t2 reads B,C. The
            // addresses hash to different shards for most n.
            let (t0, r0) = submit(
                &mut e,
                0,
                vec![Param::output(0xA0, 4), Param::output(0xB0, 4)],
            );
            let (t1, r1) = submit(
                &mut e,
                1,
                vec![Param::input(0xA0, 4), Param::output(0xC0, 4)],
            );
            let (t2, r2) = submit(
                &mut e,
                2,
                vec![Param::input(0xB0, 4), Param::input(0xC0, 4)],
            );
            assert!(r0 && !r1 && !r2, "n={n}");
            let f = e.finish(t0);
            assert_eq!(f.newly_ready, vec![t1], "n={n}");
            assert_eq!(f.tag, 0);
            let f = e.finish(t1);
            assert_eq!(f.newly_ready, vec![t2], "n={n}");
            let f = e.finish(t2);
            assert!(f.newly_ready.is_empty());
            assert_eq!(e.in_flight(), 0);
            for s in 0..n {
                assert_eq!(e.shard(s).table().occupied(), 0, "n={n} shard {s}");
            }
        }
    }

    #[test]
    fn diamond_joins_across_shards() {
        let mut e = engine(4);
        let (t0, _) = submit(
            &mut e,
            0,
            vec![Param::output(0x10, 4), Param::output(0x20, 4)],
        );
        let (t1, _) = submit(
            &mut e,
            1,
            vec![Param::input(0x10, 4), Param::output(0x30, 4)],
        );
        let (t2, _) = submit(
            &mut e,
            2,
            vec![Param::input(0x20, 4), Param::output(0x40, 4)],
        );
        let (t3, r3) = submit(
            &mut e,
            3,
            vec![Param::input(0x30, 4), Param::input(0x40, 4)],
        );
        assert!(!r3);
        let f = e.finish(t0);
        let mut woken = f.newly_ready.clone();
        woken.sort();
        assert_eq!(woken, vec![t1, t2]);
        assert!(e.finish(t1).newly_ready.is_empty(), "t3 still waits on t2");
        assert_eq!(e.finish(t2).newly_ready, vec![t3]);
        e.finish(t3);
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn parameterless_task_is_trivially_ready() {
        let mut e = engine(4);
        let (t, ready) = submit(&mut e, 0, vec![]);
        assert!(ready);
        let f = e.finish(t);
        assert!(f.newly_ready.is_empty());
        assert_eq!(f.cost.shards_touched(), 0);
    }

    #[test]
    fn cost_breakdown_covers_involved_shards_only() {
        let mut e = engine(4);
        let params = vec![Param::output(0x100, 4), Param::output(0x200, 4)];
        let shards: std::collections::BTreeSet<usize> =
            params.iter().map(|p| e.shard_of(p.addr)).collect();
        let (id, cost) = e.admit(1, 0, params).unwrap();
        assert_eq!(cost.shards_touched(), shards.len());
        assert!(cost.total().pool_accesses >= shards.len() as u64);
        match e.check(id) {
            ShardedCheck::Done { ready, cost } => {
                assert!(ready);
                assert_eq!(cost.shards_touched(), shards.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        let f = e.finish(id);
        assert_eq!(f.cost.shards_touched(), shards.len());
    }

    #[test]
    fn admit_rejection_is_atomic_across_shards() {
        // Shards with 2-entry pools: a task whose slices both fit
        // individually must not partially admit when one shard is full.
        let cfg = NexusConfig {
            task_pool_entries: 2,
            ..Default::default()
        };
        let mut e = ShardedEngine::new(2, &cfg);
        // Fill one shard (shard of 0x0.. addresses) with single-param tasks.
        let mut fillers = Vec::new();
        let mut a = 0u64;
        while fillers.len() < 2 {
            let addr = 0x1000 + a * 64;
            a += 1;
            if e.shard_of(addr) == 0 {
                fillers.push(submit(&mut e, fillers.len() as u64, vec![Param::output(addr, 4)]).0);
            }
        }
        assert_eq!(e.shard(0).pool().free_count(), 0);
        let before_s1 = e.shard(1).pool().in_use();
        // A task with one param on each shard: shard 0 is full.
        let mut p0 = None;
        let mut p1 = None;
        let mut b = 0u64;
        while p0.is_none() || p1.is_none() {
            let addr = 0x9000 + b * 64;
            b += 1;
            match e.shard_of(addr) {
                0 if p0.is_none() => p0 = Some(Param::output(addr, 4)),
                1 if p1.is_none() => p1 = Some(Param::output(addr, 4)),
                _ => {}
            }
        }
        let res = e.admit(1, 99, vec![p0.unwrap(), p1.unwrap()]);
        assert!(matches!(res, Err(PoolError::PoolFull { .. })));
        assert_eq!(
            e.shard(1).pool().in_use(),
            before_s1,
            "rejected admission must not touch the other shard"
        );
        // Retry succeeds after a completion frees shard 0.
        e.finish(fillers[0]);
        assert!(e.admit(1, 99, vec![p0.unwrap(), p1.unwrap()]).is_ok());
    }

    #[test]
    fn stalled_check_resumes_after_space_frees() {
        // Tiny per-shard tables force a mid-check table-full stall.
        let cfg = NexusConfig {
            dep_table_entries: 2,
            ..Default::default()
        };
        let mut e = ShardedEngine::new(2, &cfg);
        // Two addresses on the same shard fill its 2-entry table.
        let mut addrs = Vec::new();
        let mut a = 0u64;
        while addrs.len() < 3 {
            let addr = 0x4000 + a * 64;
            a += 1;
            if e.shard_of(addr) == 0 {
                addrs.push(addr);
            }
        }
        let (t0, _) = e
            .admit(
                1,
                0,
                vec![Param::output(addrs[0], 4), Param::output(addrs[1], 4)],
            )
            .unwrap();
        assert!(matches!(
            e.check(t0),
            ShardedCheck::Done { ready: true, .. }
        ));
        // Next task needs a third entry on the full shard → stall.
        let (t1, _) = e
            .admit(
                1,
                1,
                vec![Param::input(addrs[0], 4), Param::output(addrs[2], 4)],
            )
            .unwrap();
        match e.check(t1) {
            ShardedCheck::Stalled { shard, .. } => assert_eq!(shard, 0),
            other => panic!("expected stall, got {other:?}"),
        }
        let f = e.finish(t0);
        assert!(
            f.newly_ready.is_empty(),
            "t1's check is incomplete; it must not schedule"
        );
        match e.check(t1) {
            ShardedCheck::Done { ready, .. } => assert!(ready),
            other => panic!("expected completion, got {other:?}"),
        }
        e.finish(t1);
        assert_eq!(e.shard(0).table().occupied(), 0);
    }

    /// Find an address homed on `target` under an `n`-shard partition.
    fn addr_on(n: usize, target: usize, salt: u64) -> u64 {
        let mut a = 0u64;
        loop {
            let addr = 0x7_0000 + salt * 0x10_0000 + a * 64;
            a += 1;
            if shard_of_addr(addr, n) == target {
                return addr;
            }
        }
    }

    #[test]
    fn bounded_admit_stalls_on_the_full_shard_and_retries() {
        let mut e =
            ShardedEngine::with_capacity(2, &NexusConfig::unbounded(), ShardCapacity::Bounded(1));
        assert_eq!(e.capacity(), ShardCapacity::Bounded(1));
        let (t0, r0) = e
            .submit(1, 0, vec![Param::output(addr_on(2, 0, 0), 4)])
            .unwrap();
        assert!(r0);
        assert_eq!(e.resident_on(0), 1);
        // Shard 0 is full; a task spanning both shards must reject whole.
        let params = vec![
            Param::output(addr_on(2, 0, 1), 4),
            Param::output(addr_on(2, 1, 1), 4),
        ];
        let rej = e.try_admit(1, 1, params.clone()).unwrap_err();
        assert_eq!(rej.shard, 0);
        assert!(matches!(rej.error, PoolError::PoolFull { .. }));
        assert_eq!(e.resident_on(1), 0, "rejection must not touch shard 1");
        // The retry succeeds once shard 0's resident finishes.
        e.finish(t0);
        assert_eq!(e.resident_on(0), 0);
        let (t1, r1) = e.submit(1, 1, params).unwrap();
        assert!(r1);
        assert_eq!((e.resident_on(0), e.resident_on(1)), (1, 1));
        e.finish(t1);
        assert_eq!((e.resident_on(0), e.resident_on(1)), (0, 0));
    }

    #[test]
    fn capacity_one_chain_drains_with_caller_retry() {
        // A strict inout chain through one capacity-1 shard set: every
        // admission after the first stalls until the previous task
        // finishes, and the chain still executes exactly once, in order.
        let mut e =
            ShardedEngine::with_capacity(2, &NexusConfig::unbounded(), ShardCapacity::Bounded(1));
        let cell = addr_on(2, 0, 2);
        let mut done = Vec::new();
        let mut live: Option<TaskId> = None;
        for tag in 0..16u64 {
            let id = loop {
                match e.try_admit(1, tag, vec![Param::inout(cell, 4)]) {
                    Ok((id, _)) => break id,
                    Err(rej) => {
                        assert_eq!(rej.shard, 0);
                        let prev = live.take().expect("stall with nothing resident");
                        done.push(e.finish(prev).tag);
                    }
                }
            };
            match e.check(id) {
                ShardedCheck::Done { ready, .. } => {
                    // With capacity 1 the predecessor always finished first.
                    assert!(ready, "tag {tag}");
                }
                other => panic!("unexpected {other:?}"),
            }
            live = Some(id);
        }
        done.push(e.finish(live.unwrap()).tag);
        assert_eq!(done, (0..16).collect::<Vec<u64>>());
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn unified_errors_attribute_the_shard_and_keep_capacity_distinct() {
        use nexuspp_core::TaskBuilder;
        let mut e =
            ShardedEngine::with_capacity(2, &NexusConfig::unbounded(), ShardCapacity::Bounded(1));
        // Bad params are a real error on the Submission path.
        let dup = Submission {
            fptr: 1,
            tag: 0,
            priority: nexuspp_core::Priority::Normal,
            tenant: nexuspp_core::TenantId::NONE,
            params: vec![Param::input(0x40, 4), Param::output(0x40, 4)],
        };
        assert_eq!(
            e.submit_task(dup),
            Err(SubmitError::DuplicateAddress { addr: 0x40 })
        );
        // Fill shard 0, then watch a spanning task reject as CapacityFull
        // with the shard named — where the tuple path reports PoolFull.
        let a0 = addr_on(2, 0, 20);
        let (t0, _) = e
            .submit_task(TaskBuilder::new(1).tag(0).writes(a0, 4).build())
            .unwrap();
        let spanning = TaskBuilder::new(1)
            .tag(1)
            .writes(addr_on(2, 0, 21), 4)
            .writes(addr_on(2, 1, 21), 4)
            .build();
        assert_eq!(
            e.submit_task(spanning.clone()),
            Err(SubmitError::CapacityFull { shard: 0, limit: 1 })
        );
        let rej = e.try_admit(1, 1, spanning.params.clone()).unwrap_err();
        assert!(matches!(rej.error, PoolError::PoolFull { .. }));
        assert_eq!(SubmitError::from(rej).shard(), Some(0));
        // Retry succeeds after the resident finishes.
        e.finish(t0);
        let (t1, ready) = e.submit_task(spanning).unwrap();
        assert!(ready);
        e.finish(t1);
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn fixed_pool_rejections_surface_through_submit_task() {
        use nexuspp_core::TaskBuilder;
        let cfg = NexusConfig {
            task_pool_entries: 2,
            ..Default::default()
        };
        let mut e = ShardedEngine::new(1, &cfg);
        e.submit_task(TaskBuilder::new(1).writes(0x40, 4).build())
            .unwrap();
        e.submit_task(TaskBuilder::new(1).writes(0x80, 4).build())
            .unwrap();
        match e.submit_task(TaskBuilder::new(1).writes(0xC0, 4).build()) {
            Err(SubmitError::PoolFull {
                shard: Some(0),
                needed: 1,
                ..
            }) => {}
            other => panic!("expected attributed PoolFull, got {other:?}"),
        }
        // A task larger than the whole pool is structurally rejected.
        let mut big = TaskBuilder::new(1);
        for i in 0..64u64 {
            big = big.writes(0x1000 + i * 64, 4);
        }
        match e.try_admit_task(big.build()) {
            Err(e) => assert!(!e.is_retryable()),
            Ok(_) => panic!("expected TaskTooLarge"),
        }
    }

    #[test]
    fn task_slots_are_reused() {
        let mut e = engine(2);
        let (a, _) = submit(&mut e, 0, vec![Param::output(0x40, 4)]);
        e.finish(a);
        let (b, _) = submit(&mut e, 1, vec![Param::output(0x80, 4)]);
        assert_eq!(a, b, "freed home-record slots are recycled");
        e.finish(b);
    }
}
