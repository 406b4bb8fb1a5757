//! What a task body and a caller see of a run, apart from the
//! [`Runtime`](crate::Runtime) itself: the [`TaskCtx`] handed to every
//! closure and the [`ShutdownReport`] an explicit shutdown returns.

use crate::region::{ReadGuard, Region, RegionId, WriteGuard};
use nexuspp_sched::SchedCounts;
use nexuspp_trace::AccessMode;

pub(crate) type Job = Box<dyn FnOnce(&TaskCtx) + Send + 'static>;
/// Access grants attached to a task (region, declared mode). Moved from
/// the spawn into the task's context, never shared; empty for a lowered
/// spawn, whose body sees no context.
pub(crate) type Grants = Vec<(RegionId, AccessMode)>;

/// What an explicit [`Runtime::shutdown`](crate::Runtime::shutdown)
/// hands back: whether the drain stayed graceful, and the
/// executed/cancelled split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// `true` if every task ran to completion within the deadline;
    /// `false` if the hard-deadline abort path cancel-finished queued
    /// tasks.
    pub graceful: bool,
    /// Tasks whose bodies ran (including panicking ones).
    pub executed: u64,
    /// Tasks cancel-finished without running (abort path only).
    pub cancelled: u64,
}

/// Render a caught task-panic payload for barrier re-raising.
pub(crate) fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Execution context handed to every task closure. Grants access to the
/// regions the task declared, in the declared modes.
pub struct TaskCtx {
    grants: Grants,
}

impl TaskCtx {
    pub(crate) fn from_grants(grants: Grants) -> TaskCtx {
        TaskCtx { grants }
    }

    fn mode_of(&self, id: RegionId) -> Option<AccessMode> {
        self.grants.iter().find(|(g, _)| *g == id).map(|(_, m)| *m)
    }

    /// Read a region declared `input` (or `inout`).
    pub fn read<'r, T>(&self, region: &'r Region<T>) -> ReadGuard<'r, T> {
        match self.mode_of(region.id()) {
            Some(m) if m.reads() => region.begin_read(),
            Some(_) => panic!("region {:?} declared write-only; use write()", region.id()),
            None => panic!("undeclared access to region {:?}", region.id()),
        }
    }

    /// Write a region declared `output` or `inout`.
    pub fn write<'r, T>(&self, region: &'r Region<T>) -> WriteGuard<'r, T> {
        match self.mode_of(region.id()) {
            Some(m) if m.writes() => region.begin_write(),
            Some(_) => panic!("region {:?} declared read-only; use read()", region.id()),
            None => panic!("undeclared access to region {:?}", region.id()),
        }
    }
}

/// Flatten a [`SchedCounts`] snapshot into registry rows.
pub(crate) fn sched_counters(c: &SchedCounts) -> Vec<(String, u64)> {
    vec![
        ("submitted".into(), c.submitted),
        ("local_pushes".into(), c.local_pushes),
        ("local_pops".into(), c.local_pops),
        ("injector_pops".into(), c.injector_pops),
        ("high_pops".into(), c.high_pops),
        ("steals".into(), c.steals),
        ("parks".into(), c.parks),
        ("unparks".into(), c.unparks),
        ("wake_batches".into(), c.wake_batches),
        ("dispatched".into(), c.dispatched()),
    ]
}
