//! The dependency engine: Task Pool + Dependence Table under the Task
//! Maestro's protocol.
//!
//! Three operations mirror the Maestro blocks:
//!
//! * [`DependencyEngine::admit`] — `Write TP`: allocate the descriptor
//!   chain and store the task,
//! * [`DependencyEngine::check`] — `Check Deps`: run the Listing 2 loop
//!   over the task's parameters, resumable after a Dependence-Table-full
//!   stall (the per-task resume point is the `check_cursor` the paper's
//!   `busy` flag protects),
//! * [`DependencyEngine::finish`] — `Handle Finished`: release every
//!   parameter, wake kick-off waiters, decrement their Dependence
//!   Counters, collect the newly ready, and retire the descriptor chain
//!   back to the `TP Free indices` list.
//!
//! The engine is deliberately untimed: each call reports an [`OpCost`]
//! that the Task Machine converts into Nexus++ cycles, and that the
//! threaded runtime ignores.

use crate::config::NexusConfig;
use crate::cost::OpCost;
use crate::pool::{PoolError, TaskPool, TdEntry, TdIndex};
use crate::submit::{Submission, SubmitError};
use crate::table::{CheckParamOutcome, DepTable, TableFull, Waiter};
use nexuspp_trace::Param;

/// Progress of a (possibly resumed) dependency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckProgress {
    /// All parameters processed. `ready` is true if the task has no
    /// outstanding dependencies and can be scheduled.
    Done { ready: bool, cost: OpCost },
    /// The Dependence Table was full mid-check; call `check` again after a
    /// completion frees space. `cost` covers the work done this attempt.
    Stalled { cost: OpCost },
}

/// Result of finishing a task.
#[derive(Debug, Clone, Default)]
pub struct FinishResult {
    /// Tasks whose Dependence Counter reached zero (with their check
    /// complete) thanks to this completion — they go to the Global Ready
    /// Tasks list.
    pub newly_ready: Vec<TdIndex>,
    /// Total pool+table accesses.
    pub cost: OpCost,
    /// The finished task's caller tag.
    pub tag: u64,
}

/// The Nexus++ dependency engine.
#[derive(Debug, Clone)]
pub struct DependencyEngine {
    pool: TaskPool,
    table: DepTable,
    /// Tasks admitted whose check has completed (scheduling gate).
    checked: Vec<bool>,
    /// Tasks currently in flight (admitted, not yet finished).
    in_flight: usize,
    /// The waiters one parameter release wakes, reused across releases.
    woken: Vec<Waiter>,
}

impl DependencyEngine {
    /// Build an engine from a configuration.
    pub fn new(cfg: &NexusConfig) -> Self {
        DependencyEngine {
            pool: TaskPool::new(cfg),
            table: DepTable::new(cfg),
            checked: vec![false; cfg.task_pool_entries],
            in_flight: 0,
            woken: Vec::new(),
        }
    }

    /// The Task Pool (read access for reports).
    pub fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// The Dependence Table (read access for reports).
    pub fn table(&self) -> &DepTable {
        &self.table
    }

    /// Tasks admitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn set_checked(&mut self, td: TdIndex, v: bool) {
        let i = td.0 as usize;
        if i >= self.checked.len() {
            self.checked.resize(i + 1, false);
        }
        self.checked[i] = v;
    }

    /// True once `check` has processed every parameter of `td` (the
    /// scheduling gate: a task whose Dependence Counter reaches zero
    /// mid-check must not run until the check completes).
    pub fn is_checked(&self, td: TdIndex) -> bool {
        self.checked.get(td.0 as usize).copied().unwrap_or(false)
    }

    /// Caller tag of a live descriptor. Lets a composing layer (e.g. the
    /// sharded engine) map the indices in [`FinishResult::newly_ready`]
    /// back to its own task handles without retiring the descriptor.
    pub fn tag_of(&self, td: TdIndex) -> u64 {
        self.pool.get(td).tag
    }

    /// Unresolved dependence count of a live descriptor.
    pub fn dc_of(&self, td: TdIndex) -> u32 {
        self.pool.get(td).dc
    }

    /// True if `td` could run right now: its check is complete and it has
    /// no outstanding dependencies.
    pub fn is_ready(&self, td: TdIndex) -> bool {
        self.is_checked(td) && self.pool.get(td).dc == 0
    }

    /// `Write TP`: admit a task into the pool. The parameter list may be
    /// arbitrarily long; descriptor chaining (dummy tasks) is handled
    /// internally. Fails retryably when the pool is full.
    pub fn admit(
        &mut self,
        fptr: u64,
        tag: u64,
        params: Vec<Param>,
    ) -> Result<(TdIndex, OpCost), PoolError> {
        debug_assert!(
            crate::submit::duplicate_address(&params).is_none(),
            "duplicate addresses in a parameter list must be normalized first"
        );
        let (td, cost) = self.pool.admit(fptr, tag, params)?;
        self.set_checked(td, false);
        self.in_flight += 1;
        Ok((td, cost))
    }

    /// Fast path for dependency-free tasks (the paper's future-work note:
    /// "it contains hardware queues that can be used for low-latency
    /// retrieval of independent tasks"): a task with no parameters cannot
    /// interact with the Dependence Table, so it may bypass `Check Deps`
    /// entirely and go straight to the ready list.
    pub fn mark_trivially_ready(&mut self, td: TdIndex) {
        assert!(
            self.pool.get(td).params.is_empty(),
            "only parameterless tasks may bypass dependency checking"
        );
        self.set_checked(td, true);
    }

    /// `Check Deps`: process the task's parameters against the Dependence
    /// Table, resuming from the last stall point if any.
    pub fn check(&mut self, td: TdIndex) -> CheckProgress {
        let mut cost = OpCost::ZERO;
        loop {
            let (cursor, param) = {
                let e = self.pool.get(td);
                let c = e.check_cursor as usize;
                if c >= e.params.len() {
                    break;
                }
                (c, e.params[c])
            };
            match self
                .table
                .check_param(td, param.addr, param.size, param.mode)
            {
                Ok((outcome, c)) => {
                    cost += c;
                    let e = self.pool.get_mut(td);
                    e.check_cursor = cursor as u32 + 1;
                    if outcome == CheckParamOutcome::Dependent {
                        e.dc += 1;
                        cost += OpCost::pool(1);
                    }
                }
                Err(TableFull) => return CheckProgress::Stalled { cost },
            }
        }
        self.set_checked(td, true);
        let ready = self.pool.get(td).dc == 0;
        CheckProgress::Done { ready, cost }
    }

    /// `Handle Finished`: release the task's parameters, wake waiters,
    /// retire the descriptor chain. Never stalls.
    pub fn finish(&mut self, td: TdIndex) -> FinishResult {
        let mut result = FinishResult::default();
        let (cost, entry) = self.finish_into(td, &mut result.newly_ready);
        result.cost = cost;
        result.tag = entry.tag;
        result
    }

    /// [`finish`](Self::finish), appending the newly ready to
    /// `newly_ready` instead of returning a fresh list. Returns the
    /// pool+table accesses and the retired descriptor, whose parameter
    /// list the caller may keep for its next admission. Allocates nothing
    /// once the caller's buffer and the engine have grown to the stream's
    /// widest wake.
    pub fn finish_into(
        &mut self,
        td: TdIndex,
        newly_ready: &mut Vec<TdIndex>,
    ) -> (OpCost, TdEntry) {
        debug_assert!(
            self.is_checked(td),
            "finishing a task that never completed its check"
        );
        debug_assert_eq!(
            self.pool.get(td).dc,
            0,
            "finishing a task with unresolved deps"
        );
        // Read the descriptor's I/O list (walking its dummy chain) and
        // retire it: nothing is admitted before this call returns, so the
        // list is read off the retired entry rather than copied.
        let read_cost = self.pool.read_params_cost(td);
        let (entry, retire_cost) = self.pool.retire(td);
        self.set_checked(td, false);
        self.in_flight -= 1;
        let mut cost = read_cost + retire_cost;
        for p in &entry.params {
            self.woken.clear();
            cost += self
                .table
                .finish_param_into(p.addr, p.mode, &mut self.woken)
                .1;
            for w in &self.woken {
                let e = self.pool.get_mut(w.td);
                debug_assert!(e.dc > 0, "waking a task with DC == 0");
                e.dc -= 1;
                cost += OpCost::pool(1);
                if e.dc == 0 && self.is_checked(w.td) {
                    newly_ready.push(w.td);
                }
            }
        }
        (cost, entry)
    }

    /// Convenience for the threaded runtime and for tests: admit + check in
    /// one call. With a growable configuration this never stalls; with a
    /// fixed configuration a mid-check stall is surfaced as `Err(PoolFull)`
    /// semantics via panic — use the step-wise API for hardware modeling.
    pub fn submit(
        &mut self,
        fptr: u64,
        tag: u64,
        params: Vec<Param>,
    ) -> Result<(TdIndex, bool), PoolError> {
        let (td, _) = self.admit(fptr, tag, params)?;
        match self.check(td) {
            CheckProgress::Done { ready, .. } => Ok((td, ready)),
            CheckProgress::Stalled { .. } => panic!(
                "submit(): dependence table full; use admit()/check() with retry for fixed configs"
            ),
        }
    }

    /// [`submit`](Self::submit) over the unified surface: consume a
    /// [`Submission`] (typically from a
    /// [`TaskBuilder`](crate::TaskBuilder)) and report any rejection as a
    /// [`SubmitError`]. Unlike the positional path — where a duplicated
    /// parameter address is only a `debug_assert` — a malformed parameter
    /// list is a real [`SubmitError::DuplicateAddress`] error here.
    pub fn try_submit(&mut self, sub: Submission) -> Result<(TdIndex, bool), SubmitError> {
        sub.validate()?;
        let (fptr, tag, params) = sub.into_parts();
        self.submit(fptr, tag, params).map_err(SubmitError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_trace::Param;

    fn engine() -> DependencyEngine {
        DependencyEngine::new(&NexusConfig::default())
    }

    #[test]
    fn independent_tasks_all_ready() {
        let mut e = engine();
        for i in 0..10u64 {
            let (_, ready) = e
                .submit(
                    1,
                    i,
                    vec![Param::input(i * 64, 4), Param::output(i * 64 + 32, 4)],
                )
                .unwrap();
            assert!(ready, "task {i} has no conflicts");
        }
        assert_eq!(e.in_flight(), 10);
    }

    #[test]
    fn chain_executes_in_order() {
        let mut e = engine();
        // t0 writes A; t1 reads A writes B; t2 reads B.
        let (t0, r0) = e.submit(1, 0, vec![Param::output(0xA, 4)]).unwrap();
        let (t1, r1) = e
            .submit(1, 1, vec![Param::input(0xA, 4), Param::output(0xB, 4)])
            .unwrap();
        let (t2, r2) = e.submit(1, 2, vec![Param::input(0xB, 4)]).unwrap();
        assert!(r0 && !r1 && !r2);
        let f = e.finish(t0);
        assert_eq!(f.newly_ready, vec![t1]);
        let f = e.finish(t1);
        assert_eq!(f.newly_ready, vec![t2]);
        let f = e.finish(t2);
        assert!(f.newly_ready.is_empty());
        assert_eq!(e.in_flight(), 0);
        assert_eq!(e.table().occupied(), 0);
    }

    #[test]
    fn diamond_joins() {
        let mut e = engine();
        // t0 writes A,B; t1 reads A writes C; t2 reads B writes D;
        // t3 reads C,D.
        let (t0, _) = e
            .submit(1, 0, vec![Param::output(0xA, 4), Param::output(0xB, 4)])
            .unwrap();
        let (t1, r1) = e
            .submit(1, 1, vec![Param::input(0xA, 4), Param::output(0xC, 4)])
            .unwrap();
        let (t2, r2) = e
            .submit(1, 2, vec![Param::input(0xB, 4), Param::output(0xD, 4)])
            .unwrap();
        let (t3, r3) = e
            .submit(1, 3, vec![Param::input(0xC, 4), Param::input(0xD, 4)])
            .unwrap();
        assert!(!r1 && !r2 && !r3);
        let f = e.finish(t0);
        assert_eq!(f.newly_ready, vec![t1, t2]);
        let f = e.finish(t1);
        assert!(f.newly_ready.is_empty(), "t3 still waits on t2");
        let f = e.finish(t2);
        assert_eq!(f.newly_ready, vec![t3]);
        e.finish(t3);
        assert_eq!(e.table().occupied(), 0);
    }

    #[test]
    fn dc_counts_each_dependent_param_once() {
        let mut e = engine();
        let (t0, _) = e
            .submit(1, 0, vec![Param::output(0x10, 4), Param::output(0x20, 4)])
            .unwrap();
        // t1 depends on t0 via BOTH addresses.
        let (t1, ready) = e
            .submit(1, 1, vec![Param::input(0x10, 4), Param::input(0x20, 4)])
            .unwrap();
        assert!(!ready);
        assert_eq!(e.pool().get(t1).dc, 2);
        let f = e.finish(t0);
        // Both wakes arrive in one finish; t1 becomes ready exactly once.
        assert_eq!(f.newly_ready, vec![t1]);
    }

    #[test]
    fn admit_rejects_when_pool_full_then_recovers() {
        let cfg = NexusConfig {
            task_pool_entries: 2,
            ..Default::default()
        };
        let mut e = DependencyEngine::new(&cfg);
        let (t0, _) = e.submit(1, 0, vec![Param::output(0x1, 4)]).unwrap();
        e.submit(1, 1, vec![Param::output(0x2, 4)]).unwrap();
        assert!(matches!(
            e.admit(1, 2, vec![Param::output(0x3, 4)]),
            Err(PoolError::PoolFull { .. })
        ));
        e.finish(t0);
        assert!(e.admit(1, 2, vec![Param::output(0x3, 4)]).is_ok());
    }

    #[test]
    fn check_stall_and_resume() {
        // Table with 2 slots; first task occupies both with 2 params.
        let cfg = NexusConfig {
            dep_table_entries: 2,
            ..Default::default()
        };
        let mut e = DependencyEngine::new(&cfg);
        let (t0, _) = e
            .admit(1, 0, vec![Param::output(0x111, 4), Param::output(0x222, 4)])
            .unwrap();
        assert!(matches!(
            e.check(t0),
            CheckProgress::Done { ready: true, .. }
        ));
        // Second task: first param hits an existing entry (dependent), the
        // second needs a fresh entry → stall.
        let (t1, _) = e
            .admit(1, 1, vec![Param::input(0x111, 4), Param::output(0x333, 4)])
            .unwrap();
        assert!(matches!(e.check(t1), CheckProgress::Stalled { .. }));
        // t0 finishing frees entries and wakes t1's first param; the resumed
        // check completes and the task becomes ready only then.
        let f = e.finish(t0);
        assert!(
            f.newly_ready.is_empty(),
            "t1's check is incomplete; DC hitting 0 must not schedule it"
        );
        match e.check(t1) {
            CheckProgress::Done { ready, .. } => assert!(ready),
            other => panic!("expected completion, got {other:?}"),
        }
        e.finish(t1);
        assert_eq!(e.table().occupied(), 0);
    }

    #[test]
    fn many_param_task_uses_dummy_descriptors() {
        let mut e = engine();
        let params: Vec<Param> = (0..20).map(|i| Param::output(0x1000 + i * 8, 4)).collect();
        let (td, ready) = e.submit(1, 0, params).unwrap();
        assert!(ready);
        assert_eq!(e.pool().get(td).n_dummies(), 2); // 20 params → 7+7+8(≥6)
        let f = e.finish(td);
        assert!(f.newly_ready.is_empty());
        assert_eq!(e.pool().in_use(), 0);
        assert_eq!(e.table().occupied(), 0);
    }

    #[test]
    fn inout_behaves_as_reader_and_writer() {
        let mut e = engine();
        let (t0, _) = e.submit(1, 0, vec![Param::inout(0xAB, 4)]).unwrap();
        let (t1, r1) = e.submit(1, 1, vec![Param::inout(0xAB, 4)]).unwrap();
        assert!(!r1);
        let f = e.finish(t0);
        assert_eq!(f.newly_ready, vec![t1]);
        let f = e.finish(t1);
        assert!(f.newly_ready.is_empty());
        assert_eq!(e.table().occupied(), 0);
    }

    #[test]
    fn introspection_hooks_track_lifecycle() {
        let mut e = engine();
        let (t0, _) = e.admit(1, 77, vec![Param::output(0x5, 4)]).unwrap();
        assert_eq!(e.tag_of(t0), 77);
        assert!(!e.is_checked(t0) && !e.is_ready(t0));
        assert!(matches!(
            e.check(t0),
            CheckProgress::Done { ready: true, .. }
        ));
        assert!(e.is_checked(t0) && e.is_ready(t0));
        let (t1, _) = e.admit(1, 78, vec![Param::input(0x5, 4)]).unwrap();
        e.check(t1);
        assert_eq!(e.dc_of(t1), 1);
        assert!(e.is_checked(t1) && !e.is_ready(t1));
        let fin = e.finish(t0);
        // Newly-ready indices can be mapped to tags without retiring them.
        assert_eq!(
            fin.newly_ready.iter().map(|&t| e.tag_of(t)).sum::<u64>(),
            78
        );
        assert!(e.is_ready(t1));
        e.finish(t1);
    }

    #[test]
    fn try_submit_reports_unified_errors() {
        use crate::submit::{SubmitError, TaskBuilder};
        let cfg = NexusConfig {
            task_pool_entries: 2,
            ..Default::default()
        };
        let mut e = DependencyEngine::new(&cfg);
        // Bad params surface as a real error, not a debug_assert.
        let dup = crate::submit::Submission {
            fptr: 1,
            tag: 0,
            priority: crate::Priority::Normal,
            tenant: crate::TenantId::NONE,
            params: vec![Param::input(0x8, 4), Param::output(0x8, 4)],
        };
        assert_eq!(
            e.try_submit(dup),
            Err(SubmitError::DuplicateAddress { addr: 0x8 })
        );
        // Builder-made submissions are normalized and admit cleanly.
        let (t0, ready) = e
            .try_submit(
                TaskBuilder::new(1)
                    .tag(7)
                    .reads(0x8, 4)
                    .writes(0x8, 4)
                    .build(),
            )
            .unwrap();
        assert!(ready);
        // Pool exhaustion maps into the unified enum, unattributed.
        e.try_submit(TaskBuilder::new(1).writes(0x10, 4).build())
            .unwrap();
        match e.try_submit(TaskBuilder::new(1).writes(0x18, 4).build()) {
            Err(SubmitError::PoolFull { shard: None, .. }) => {}
            other => panic!("expected PoolFull, got {other:?}"),
        }
        assert_eq!(e.finish(t0).tag, 7);
    }

    #[test]
    fn tags_round_trip_through_finish() {
        let mut e = engine();
        let (t0, _) = e.submit(9, 1234, vec![Param::output(0x1, 4)]).unwrap();
        let f = e.finish(t0);
        assert_eq!(f.tag, 1234);
    }
}
