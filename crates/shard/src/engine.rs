//! The sharded engine: N address-partitioned [`DependencyEngine`]s
//! composed into one logically-equivalent resolver.
//!
//! This is the single-threaded driver of the sharded protocol written
//! down in `crates/shard/src/protocol.rs` (route, reserve, admit and
//! check, remote count, finish); [`ShardDispatcher`](crate::ShardDispatcher)
//! is the threaded one. What it adds is what the timing models need:
//! reusable [`TaskId`] home-record slots, like Task Pool indices, and the
//! per-shard [`OpBreakdown`] cost of every operation.

use crate::protocol::{Few, Remote, Residency, Route, Slices};
use nexuspp_core::{
    DependencyEngine, NexusConfig, OpCost, ShardCapacity, Submission, SubmitError, TdIndex,
};
use std::fmt;

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
/// ([`OpBreakdown::total`]). The shards are held in place: a breakdown
/// of an operation on at most four shards needs no heap block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpBreakdown {
    per_shard: Few<(u32, OpCost)>,
}

impl OpBreakdown {
    /// Accumulate `cost` against `shard`.
    pub fn add(&mut self, shard: u32, cost: OpCost) {
        let seen = self.per_shard.iter_mut().find(|(s, _)| *s == shard);
        match seen {
            Some((_, c)) => *c += cost,
            None => self.per_shard.push((shard, cost)),
        }
    }

    /// `(shard, cost)` for every shard the operation touched, in the
    /// order it first touched them.
    pub fn per_shard(&self) -> impl Iterator<Item = (u32, OpCost)> + '_ {
        self.per_shard.iter()
    }

    /// Total accesses across all shards (the serialized-equivalent work).
    pub fn total(&self) -> OpCost {
        self.per_shard().fold(OpCost::ZERO, |acc, (_, c)| acc + c)
    }

    /// Number of distinct shards touched.
    #[cfg(test)]
    pub(crate) fn shards_touched(&self) -> usize {
        self.per_shard.len()
    }
}

/// Result of finishing a task through the sharded engine. A caller that
/// keeps one across finishes ([`ShardedEngine::finish_into`]) allocates
/// nothing once its buffers have grown to the widest wake set.
#[derive(Debug, Clone, Default)]
pub struct ShardedFinish {
    /// Tasks whose remote dependence counter reached zero thanks to this
    /// completion, in wake order (the concatenation of
    /// [`wakes_by_shard`](Self::wakes_by_shard)).
    pub newly_ready: Vec<TaskId>,
    /// `(shard, count)` runs over `newly_ready`, one per shard whose
    /// slice release woke any.
    wake_runs: Vec<(u32, usize)>,
    /// The finished task's caller tag.
    pub tag: u64,
    /// Work performed, by shard.
    pub cost: OpBreakdown,
}

impl ShardedFinish {
    /// The wake set attributed to the shard whose slice release
    /// completed each task, in slice order; shards that woke nothing are
    /// left out. The timing models treat each entry as one shard's
    /// kick-off FIFO traffic (`nexuspp_taskmachine::multimaestro`).
    pub fn wakes_by_shard(&self) -> impl Iterator<Item = (u32, &[TaskId])> + '_ {
        let mut rest = self.newly_ready.as_slice();
        self.wake_runs.iter().map(move |&(s, n)| {
            let (run, tail) = rest.split_at(n);
            rest = tail;
            (s, run)
        })
    }
}

/// The home record of a live task.
#[derive(Debug)]
struct TaskState {
    tag: u64,
    /// `(shard, sub-descriptor)` per involved shard, in route order.
    parts: Few<(u32, TdIndex)>,
    remote: Remote,
}

/// N address-partitioned dependency engines behind one engine-shaped API.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Slices<TaskId>>,
    residency: Residency,
    tasks: Vec<Option<TaskState>>,
    free: Vec<u32>,
    in_flight: usize,
    /// The home records one slice release kicked off, reused across
    /// finishes; empty between calls.
    woken: Vec<TaskId>,
}

impl ShardedEngine {
    /// Build `n_shards` engines, each with the capacities in `cfg`
    /// (capacities are per shard, mirroring hardware where each shard is
    /// its own SRAM bank set).
    pub fn new(n_shards: usize, cfg: &NexusConfig) -> Self {
        ShardedEngine::with_capacity(n_shards, cfg, ShardCapacity::Unbounded)
    }

    /// Build a bounded engine: each shard holds at most `capacity`
    /// resident tasks; a submission that would exceed that on any
    /// involved shard is rejected whole with the full shard identified,
    /// for stall/retry. `cfg` must be growable: the residency bound is
    /// the finite-hardware bound, the tables themselves never fill.
    pub fn with_capacity(n_shards: usize, cfg: &NexusConfig, capacity: ShardCapacity) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(
            cfg.growable,
            "the sharded engine submits whole tasks and cannot stall mid-admission; \
             use a growable config (bound residency via ShardCapacity)"
        );
        ShardedEngine {
            shards: (0..n_shards).map(|_| Slices::new(cfg)).collect(),
            residency: Residency::new(n_shards, capacity),
            tasks: Vec::new(),
            free: Vec::new(),
            in_flight: 0,
            woken: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's engine (reports, tests).
    pub fn shard(&self, i: usize) -> &DependencyEngine {
        self.shards[i].engine()
    }

    /// Tasks submitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The per-shard residency bound this engine enforces.
    pub fn capacity(&self) -> ShardCapacity {
        self.residency.capacity()
    }

    /// Live tasks holding a residency slot on shard `s` (always 0 when
    /// unbounded).
    pub fn resident_on(&self, s: usize) -> usize {
        self.residency.resident(s)
    }

    /// Which shard owns `addr` under this engine's partition.
    #[cfg(test)]
    pub(crate) fn shard_of(&self, addr: u64) -> usize {
        nexuspp_core::shard_of_addr(addr, self.shards.len())
    }

    /// Caller tag of a live task.
    pub fn tag_of(&self, id: TaskId) -> u64 {
        self.state(id).tag
    }

    fn state(&self, id: TaskId) -> &TaskState {
        self.tasks[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("{id} is not live"))
    }

    fn alloc_slot(&mut self) -> TaskId {
        match self.free.pop() {
            Some(i) => TaskId(i),
            None => {
                self.tasks.push(None);
                TaskId(self.tasks.len() as u32 - 1)
            }
        }
    }

    /// Submit a task: validate its parameter list, reserve a residency
    /// slot on every involved shard (all or nothing), admit and check
    /// every slice, then release the submission guard. Returns the task,
    /// whether it is ready now, and the admit+check work by shard. The
    /// parameter list is read in place; a rejected submission can be
    /// retried as it is.
    ///
    /// The only rejections are [`SubmitError::DuplicateAddress`] and,
    /// under a bounded capacity, the retryable
    /// [`SubmitError::CapacityFull`] naming the first full shard; either
    /// leaves the engine untouched.
    pub fn submit(&mut self, sub: &Submission) -> Result<(TaskId, bool, OpBreakdown), SubmitError> {
        sub.validate()?;
        let route = Route::new(&sub.params, self.shards.len());
        if let Err(shard) = self.residency.try_reserve(&route) {
            let limit = self.capacity().limit().expect("unbounded always reserves");
            return Err(SubmitError::CapacityFull { shard, limit });
        }
        let id = self.alloc_slot();
        let remote = Remote::new(route.len());
        let mut parts = Few::default();
        let mut cost = OpBreakdown::default();
        for (s, len, slice) in route.slices() {
            let (td, slice_ready, c) =
                self.shards[s as usize].submit(sub.fptr, sub.tag, len, slice, |_| id);
            cost.add(s, c);
            parts.push((s, td));
            if slice_ready {
                remote.release();
            }
        }
        let ready = remote.release();
        self.tasks[id.0 as usize] = Some(TaskState {
            tag: sub.tag,
            parts,
            remote,
        });
        self.in_flight += 1;
        Ok((id, ready, cost))
    }

    /// Finish a ready task: every involved shard releases its slice and
    /// wakes its local waiters; remote decrements are aggregated at each
    /// woken task's home record. A task whose counter reaches zero is
    /// reported as newly ready, attributed to the shard whose slice
    /// release completed it, in slice order. Never stalls.
    pub fn finish(&mut self, id: TaskId) -> ShardedFinish {
        let mut out = ShardedFinish::default();
        self.finish_into(id, &mut out);
        out
    }

    /// [`finish`](Self::finish) into a report the caller keeps: `out` is
    /// overwritten, its buffers reused.
    pub fn finish_into(&mut self, id: TaskId, out: &mut ShardedFinish) {
        let st = self.tasks[id.0 as usize]
            .take()
            .unwrap_or_else(|| panic!("finish({id}) on a free slot"));
        debug_assert!(st.remote.is_zero(), "finishing a task with unresolved deps");
        out.newly_ready.clear();
        out.wake_runs.clear();
        out.tag = st.tag;
        out.cost.per_shard.clear();
        for (s, td) in st.parts.iter() {
            let cost = self.shards[s as usize].release(td, &mut self.woken);
            out.cost.add(s, cost);
            self.residency.release(s);
            let before = out.newly_ready.len();
            for w in self.woken.drain(..) {
                let home = self.tasks[w.0 as usize]
                    .as_ref()
                    .unwrap_or_else(|| panic!("{w} is not live"));
                if home.remote.release() {
                    out.newly_ready.push(w);
                }
            }
            let woke = out.newly_ready.len() - before;
            if woke > 0 {
                out.wake_runs.push((s, woke));
            }
        }
        self.free.push(id.0);
        self.in_flight -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_core::{shard_of_addr, TaskBuilder};
    use nexuspp_trace::Param;

    fn engine(n: usize) -> ShardedEngine {
        ShardedEngine::new(n, &NexusConfig::unbounded())
    }

    fn try_submit(
        e: &mut ShardedEngine,
        tag: u64,
        params: Vec<Param>,
    ) -> Result<(TaskId, bool), SubmitError> {
        let (id, ready, _) = e.submit(&Submission::from((1, tag, params)))?;
        Ok((id, ready))
    }

    fn submit(e: &mut ShardedEngine, tag: u64, params: Vec<Param>) -> (TaskId, bool) {
        try_submit(e, tag, params).unwrap()
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
        let (id, ready, cost) = e.submit(&Submission::from((1, 0, params))).unwrap();
        assert!(ready);
        assert_eq!(cost.shards_touched(), shards.len());
        assert!(cost.total().pool_accesses >= shards.len() as u64);
        let f = e.finish(id);
        assert_eq!(f.cost.shards_touched(), shards.len());
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
        let (t0, r0) = submit(&mut e, 0, vec![Param::output(addr_on(2, 0, 0), 4)]);
        assert!(r0);
        assert_eq!(e.resident_on(0), 1);
        // Shard 0 is full; a task spanning both shards must reject whole.
        let params = vec![
            Param::output(addr_on(2, 0, 1), 4),
            Param::output(addr_on(2, 1, 1), 4),
        ];
        assert_eq!(
            try_submit(&mut e, 1, params.clone()),
            Err(SubmitError::CapacityFull { shard: 0, limit: 1 })
        );
        assert_eq!(e.resident_on(1), 0, "rejection must not touch shard 1");
        assert_eq!(e.shard(1).pool().in_use(), 0);
        // The retry succeeds once shard 0's resident finishes.
        e.finish(t0);
        assert_eq!(e.resident_on(0), 0);
        let (t1, r1) = submit(&mut e, 1, params);
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
            let (id, ready) = loop {
                match try_submit(&mut e, tag, vec![Param::inout(cell, 4)]) {
                    Ok(v) => break v,
                    Err(rej) => {
                        assert_eq!(rej.shard(), Some(0));
                        let prev = live.take().expect("stall with nothing resident");
                        done.push(e.finish(prev).tag);
                    }
                }
            };
            // With capacity 1 the predecessor always finished first.
            assert!(ready, "tag {tag}");
            live = Some(id);
        }
        done.push(e.finish(live.unwrap()).tag);
        assert_eq!(done, (0..16).collect::<Vec<u64>>());
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn unified_errors_attribute_the_shard_and_keep_capacity_distinct() {
        let mut e =
            ShardedEngine::with_capacity(2, &NexusConfig::unbounded(), ShardCapacity::Bounded(1));
        // Bad params are a real error, and reserve nothing.
        let dup = Submission {
            fptr: 1,
            tag: 0,
            priority: nexuspp_core::Priority::Normal,
            tenant: nexuspp_core::TenantId::NONE,
            params: vec![Param::input(0x40, 4), Param::output(0x40, 4)],
        };
        assert_eq!(
            e.submit(&dup),
            Err(SubmitError::DuplicateAddress { addr: 0x40 })
        );
        assert_eq!((e.resident_on(0), e.resident_on(1)), (0, 0));
        // Fill shard 0, then watch a spanning task reject as CapacityFull
        // with the shard named.
        let a0 = addr_on(2, 0, 20);
        let (t0, _, _) = e
            .submit(&TaskBuilder::new(1).tag(0).writes(a0, 4).build())
            .unwrap();
        let spanning = TaskBuilder::new(1)
            .tag(1)
            .writes(addr_on(2, 0, 21), 4)
            .writes(addr_on(2, 1, 21), 4)
            .build();
        let rej = e.submit(&spanning).unwrap_err();
        assert_eq!(rej, SubmitError::CapacityFull { shard: 0, limit: 1 });
        assert!(rej.is_retryable());
        assert_eq!(rej.shard(), Some(0));
        // Retry succeeds after the resident finishes.
        e.finish(t0);
        let (t1, ready, _) = e.submit(&spanning).unwrap();
        assert!(ready);
        e.finish(t1);
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn finish_into_a_kept_report_reads_like_finish() {
        // Two engines fed the same fan-out/fan-in stream over 4 shards:
        // one retires through `finish`, the other through one report
        // reused by every `finish_into`. Every report must agree.
        let (mut a, mut b) = (engine(4), engine(4));
        let mut live = Vec::new();
        let mut ready = std::collections::VecDeque::new();
        for tag in 0..64u64 {
            let cell = |i: u64| 0x1000 + 0x40 * (i % 24);
            let params = if tag % 8 == 0 {
                (0..6).map(|i| Param::output(cell(tag + i), 4)).collect()
            } else {
                vec![Param::input(cell(tag), 4), Param::inout(cell(tag + 5), 4)]
            };
            let sub = Submission::from((1, tag, params));
            let (ia, ra, ca) = a.submit(&sub).unwrap();
            let (ib, rb, cb) = b.submit(&sub).unwrap();
            assert_eq!((ia, ra, &ca), (ib, rb, &cb), "tag {tag}");
            live.push(ia);
            if ra {
                ready.push_back(ia);
            }
        }
        let mut kept = ShardedFinish::default();
        let mut finished = 0;
        let mut wakes_seen = 0;
        while let Some(id) = ready.pop_front() {
            let fresh = a.finish(id);
            b.finish_into(id, &mut kept);
            assert_eq!(kept.tag, fresh.tag);
            assert_eq!(kept.newly_ready, fresh.newly_ready, "task {id}");
            assert_eq!(kept.cost, fresh.cost);
            let runs = |f: &ShardedFinish| -> Vec<(u32, Vec<TaskId>)> {
                f.wakes_by_shard().map(|(s, w)| (s, w.to_vec())).collect()
            };
            assert_eq!(runs(&kept), runs(&fresh));
            let concat: Vec<TaskId> = runs(&kept).into_iter().flat_map(|(_, w)| w).collect();
            assert_eq!(concat, kept.newly_ready, "runs cover newly_ready in order");
            wakes_seen += kept.newly_ready.len();
            ready.extend(fresh.newly_ready);
            finished += 1;
        }
        assert_eq!(finished, live.len());
        assert!(wakes_seen > 0, "the stream must exercise wakes");
        assert_eq!((a.in_flight(), b.in_flight()), (0, 0));
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
