//! The Task Pool: Nexus++'s main task storage table.
//!
//! "Inside Nexus++, a task is identified by its Task Pool index. This is
//! important to directly address a specific entry in the table, rather than
//! searching the table for that entry." Free indices live in the FIFO
//! `TP Free indices` list; the `Write TP` block allocates from it and the
//! `Handle Finished` block returns completed tasks' indices to it.
//!
//! ## Dummy tasks (§II-C)
//!
//! A Task Descriptor holds at most `params_per_td` parameters (8 in
//! Table IV). "If Tx has 2n outputs, and a Task Descriptor can only store n
//! of them, then dummy tasks are created having their inputs/outputs as
//! those that did not fit in the parent's Task Descriptor. A dummy task is
//! simply a pointer that replaces the last entry of an input/output list."
//! So a task with `P > params_per_td` parameters occupies
//! `1 + ceil((P - p) / (p - 1))` pool entries (each non-final descriptor
//! sacrifices its last slot to the chain pointer), and the `nD` field of
//! the parent records the count. Dummy tasks are never scheduled; they are
//! storage. This module models the chain structurally (dummy slots are
//! allocated, counted, cost-accounted and freed) while keeping the logical
//! parameter list on the primary entry for O(1) access by the simulator.

use crate::config::NexusConfig;
use crate::cost::OpCost;
use nexuspp_trace::Param;
use std::collections::VecDeque;
use std::fmt;

/// A task's identity inside Nexus++: its Task Pool index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TdIndex(pub u32);

impl fmt::Display for TdIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "td{}", self.0)
    }
}

/// Why an allocation could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// Not enough free descriptors right now; retry after completions.
    PoolFull {
        /// Descriptors the task needs (1 + dummies).
        needed: usize,
        /// Descriptors currently free.
        free: usize,
    },
    /// The task can never fit: it needs more descriptors than the whole
    /// pool ("the maximum number of inputs/outputs is still bounded by the
    /// size of the Task Pool").
    TaskTooLarge {
        /// Descriptors the task would need.
        needed: usize,
        /// Total pool capacity.
        capacity: usize,
    },
}

/// A primary Task Descriptor (the `Task Pool` row of Table I, plus the
/// bookkeeping the Maestro blocks keep per task).
#[derive(Debug, Clone)]
pub struct TdEntry {
    /// Function pointer (`*f`).
    pub fptr: u64,
    /// Caller tag — the trace task id this descriptor was built from.
    pub tag: u64,
    /// Dependence Counter (`DC`): unresolved input dependencies.
    pub dc: u32,
    /// The logical parameter list (spanning the dummy chain).
    pub params: Vec<Param>,
    /// Pool indices of chained dummy descriptors (`nD` = their count).
    pub dummies: Vec<TdIndex>,
    /// Exclusive-access flag ("whether this Task Descriptor is currently
    /// under processing by one of the blocks of the Task Maestro").
    pub busy: bool,
    /// Parameters already processed by `Check Deps` (resume point after a
    /// Dependence-Table-full stall).
    pub check_cursor: u32,
}

impl TdEntry {
    /// Number of chained dummy descriptors (the `nD` column).
    pub fn n_dummies(&self) -> usize {
        self.dummies.len()
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Free,
    Primary(TdEntry),
    /// A dummy task: parameter overflow storage belonging to `parent`.
    Dummy {
        parent: TdIndex,
    },
}

/// Pool statistics for the evaluation reports.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Tasks successfully admitted.
    pub tasks_admitted: u64,
    /// Dummy descriptors allocated over the run.
    pub dummy_tds_allocated: u64,
    /// Allocation attempts rejected because the pool was full.
    pub full_rejections: u64,
    /// Peak number of occupied descriptors (primaries + dummies).
    pub peak_occupancy: usize,
}

/// The Task Pool.
#[derive(Debug, Clone)]
pub struct TaskPool {
    params_per_td: usize,
    growable: bool,
    slots: Vec<Slot>,
    /// The `TP Free indices` FIFO: "stores initially all indices of the
    /// Task Pool"; completed tasks' indices are written back to it.
    free: VecDeque<TdIndex>,
    in_use: usize,
    stats: PoolStats,
}

impl TaskPool {
    /// Build a pool from a configuration.
    pub fn new(cfg: &NexusConfig) -> Self {
        cfg.validate();
        let n = cfg.task_pool_entries;
        TaskPool {
            params_per_td: cfg.params_per_td,
            growable: cfg.growable,
            slots: vec![Slot::Free; n],
            free: (0..n as u32).map(TdIndex).collect(),
            in_use: 0,
            stats: PoolStats::default(),
        }
    }

    /// Total descriptor capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Free descriptors.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Occupied descriptors (primaries + dummies).
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Statistics so far.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Number of descriptors a task with `n_params` parameters occupies:
    /// 1 if it fits, otherwise a chain where every non-final descriptor
    /// holds `params_per_td - 1` parameters plus the chain pointer.
    pub fn tds_needed(&self, n_params: usize) -> usize {
        let p = self.params_per_td;
        if n_params <= p {
            1
        } else {
            1 + (n_params - p).div_ceil(p - 1)
        }
    }

    fn grow(&mut self) {
        let old = self.slots.len();
        let add = old.max(1);
        self.slots
            .extend(std::iter::repeat_with(|| Slot::Free).take(add));
        self.free
            .extend((old..old + add).map(|i| TdIndex(i as u32)));
    }

    /// Admit a task (the `Write TP` block): allocate its descriptor chain
    /// and store the entry. Returns the primary index and the write cost
    /// (one access per descriptor written).
    pub fn admit(
        &mut self,
        fptr: u64,
        tag: u64,
        params: Vec<Param>,
    ) -> Result<(TdIndex, OpCost), PoolError> {
        let needed = self.tds_needed(params.len());
        if needed > self.capacity() && !self.growable {
            return Err(PoolError::TaskTooLarge {
                needed,
                capacity: self.capacity(),
            });
        }
        while self.growable && self.free.len() < needed {
            self.grow();
        }
        if self.free.len() < needed {
            self.stats.full_rejections += 1;
            return Err(PoolError::PoolFull {
                needed,
                free: self.free.len(),
            });
        }
        let primary = self.free.pop_front().expect("checked above");
        let dummies: Vec<TdIndex> = (1..needed)
            .map(|_| self.free.pop_front().expect("checked above"))
            .collect();
        for &d in &dummies {
            self.slots[d.0 as usize] = Slot::Dummy { parent: primary };
        }
        self.stats.dummy_tds_allocated += dummies.len() as u64;
        self.slots[primary.0 as usize] = Slot::Primary(TdEntry {
            fptr,
            tag,
            dc: 0,
            params,
            dummies,
            busy: false,
            check_cursor: 0,
        });
        self.in_use += needed;
        if self.in_use > self.stats.peak_occupancy {
            self.stats.peak_occupancy = self.in_use;
        }
        self.stats.tasks_admitted += 1;
        Ok((primary, OpCost::pool(needed as u64)))
    }

    /// Shared access to a primary descriptor.
    pub fn get(&self, td: TdIndex) -> &TdEntry {
        match &self.slots[td.0 as usize] {
            Slot::Primary(e) => e,
            other => panic!("{td} is not a primary descriptor: {other:?}"),
        }
    }

    /// Exclusive access to a primary descriptor.
    pub fn get_mut(&mut self, td: TdIndex) -> &mut TdEntry {
        match &mut self.slots[td.0 as usize] {
            Slot::Primary(e) => e,
            other => panic!("{td} is not a primary descriptor: {other:?}"),
        }
    }

    /// True if `td` currently names a primary descriptor.
    pub fn is_live(&self, td: TdIndex) -> bool {
        matches!(self.slots.get(td.0 as usize), Some(Slot::Primary(_)))
    }

    /// Cost of reading a task's full parameter list (one access per
    /// descriptor in its chain) — paid by `Send TDs` and `Handle Finished`.
    pub fn read_params_cost(&self, td: TdIndex) -> OpCost {
        OpCost::pool(1 + self.get(td).n_dummies() as u64)
    }

    /// Retire a completed task (the tail of `Handle Finished`): free its
    /// descriptor chain, returning the entry and the cost (one access per
    /// freed descriptor). The indices go back to the `TP Free indices`
    /// FIFO in primary-then-dummies order.
    pub fn retire(&mut self, td: TdIndex) -> (TdEntry, OpCost) {
        let entry = match std::mem::replace(&mut self.slots[td.0 as usize], Slot::Free) {
            Slot::Primary(e) => e,
            other => panic!("retire({td}) on non-primary slot {other:?}"),
        };
        self.free.push_back(td);
        for &d in &entry.dummies {
            debug_assert!(
                matches!(self.slots[d.0 as usize], Slot::Dummy { parent } if parent == td)
            );
            self.slots[d.0 as usize] = Slot::Free;
            self.free.push_back(d);
        }
        let freed = 1 + entry.dummies.len();
        self.in_use -= freed;
        (entry, OpCost::pool(freed as u64))
    }

    /// Iterate live primary descriptors (diagnostics).
    pub fn iter_live(&self) -> impl Iterator<Item = (TdIndex, &TdEntry)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Primary(e) => Some((TdIndex(i as u32), e)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_trace::Param;

    fn cfg(entries: usize, params: usize) -> NexusConfig {
        NexusConfig {
            task_pool_entries: entries,
            params_per_td: params,
            ..Default::default()
        }
    }

    fn params(n: usize) -> Vec<Param> {
        (0..n)
            .map(|i| Param::input(0x1000 + i as u64 * 8, 4))
            .collect()
    }

    #[test]
    fn tds_needed_matches_paper_example() {
        let pool = TaskPool::new(&cfg(16, 8));
        // "The Task Descriptor at index 98 has 10 inputs/outputs […] this
        // task occupies in total 2 Task Descriptors."
        assert_eq!(pool.tds_needed(10), 2);
        assert_eq!(pool.tds_needed(8), 1);
        assert_eq!(pool.tds_needed(0), 1);
        assert_eq!(pool.tds_needed(15), 2); // 7 + 8
        assert_eq!(pool.tds_needed(16), 3); // 7 + 7 + 8 capacity 22
        assert_eq!(pool.tds_needed(22), 3);
        assert_eq!(pool.tds_needed(23), 4);
    }

    #[test]
    fn admit_and_retire_roundtrip() {
        let mut pool = TaskPool::new(&cfg(4, 8));
        let (td, cost) = pool.admit(0xABCD, 7, params(3)).unwrap();
        assert_eq!(cost, OpCost::pool(1));
        assert_eq!(pool.in_use(), 1);
        assert_eq!(pool.get(td).tag, 7);
        assert_eq!(pool.get(td).fptr, 0xABCD);
        assert_eq!(pool.get(td).n_dummies(), 0);
        let (entry, cost) = pool.retire(td);
        assert_eq!(entry.tag, 7);
        assert_eq!(cost, OpCost::pool(1));
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.free_count(), 4);
    }

    #[test]
    fn dummy_chain_allocation_and_free() {
        let mut pool = TaskPool::new(&cfg(8, 8));
        let (td, cost) = pool.admit(1, 0, params(10)).unwrap();
        assert_eq!(cost, OpCost::pool(2));
        assert_eq!(pool.get(td).n_dummies(), 1);
        assert_eq!(pool.in_use(), 2);
        assert_eq!(pool.read_params_cost(td), OpCost::pool(2));
        let (_, cost) = pool.retire(td);
        assert_eq!(cost, OpCost::pool(2));
        assert_eq!(pool.free_count(), 8);
        assert_eq!(pool.stats().dummy_tds_allocated, 1);
    }

    #[test]
    fn pool_full_is_retryable() {
        let mut pool = TaskPool::new(&cfg(2, 8));
        let (a, _) = pool.admit(1, 0, params(1)).unwrap();
        let (_b, _) = pool.admit(1, 1, params(1)).unwrap();
        assert_eq!(
            pool.admit(1, 2, params(1)),
            Err(PoolError::PoolFull { needed: 1, free: 0 })
        );
        assert_eq!(pool.stats().full_rejections, 1);
        pool.retire(a);
        assert!(pool.admit(1, 2, params(1)).is_ok());
    }

    #[test]
    fn task_too_large_is_permanent() {
        let mut pool = TaskPool::new(&cfg(2, 8));
        // 16 params → 3 descriptors > 2-entry pool.
        assert_eq!(
            pool.admit(1, 0, params(16)),
            Err(PoolError::TaskTooLarge {
                needed: 3,
                capacity: 2
            })
        );
    }

    #[test]
    fn fifo_free_list_reuses_indices_in_completion_order() {
        let mut pool = TaskPool::new(&cfg(3, 8));
        let (a, _) = pool.admit(1, 0, params(1)).unwrap();
        let (b, _) = pool.admit(1, 1, params(1)).unwrap();
        let (c, _) = pool.admit(1, 2, params(1)).unwrap();
        pool.retire(b);
        pool.retire(a);
        pool.retire(c);
        // Free FIFO order is b, a, c.
        let (x, _) = pool.admit(1, 3, params(1)).unwrap();
        let (y, _) = pool.admit(1, 4, params(1)).unwrap();
        let (z, _) = pool.admit(1, 5, params(1)).unwrap();
        assert_eq!((x, y, z), (b, a, c));
    }

    #[test]
    fn growable_pool_never_rejects() {
        let mut pool = TaskPool::new(&NexusConfig::unbounded());
        let mut tds = Vec::new();
        for i in 0..10_000 {
            tds.push(pool.admit(1, i, params(2)).unwrap().0);
        }
        assert!(pool.capacity() >= 10_000);
        assert_eq!(pool.stats().tasks_admitted, 10_000);
        // Unbounded params_per_td → never any dummies.
        assert_eq!(pool.stats().dummy_tds_allocated, 0);
        for td in tds {
            pool.retire(td);
        }
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn peak_occupancy_tracks_dummies() {
        let mut pool = TaskPool::new(&cfg(8, 4));
        // 6 params at 4/TD → 1 + ceil(2/3) = 2 descriptors.
        let (a, _) = pool.admit(1, 0, params(6)).unwrap();
        let (_b, _) = pool.admit(1, 1, params(6)).unwrap();
        assert_eq!(pool.stats().peak_occupancy, 4);
        pool.retire(a);
        assert_eq!(pool.stats().peak_occupancy, 4);
        assert_eq!(pool.in_use(), 2);
    }

    #[test]
    fn live_iteration_and_liveness() {
        let mut pool = TaskPool::new(&cfg(4, 8));
        let (a, _) = pool.admit(1, 10, params(1)).unwrap();
        let (b, _) = pool.admit(1, 11, params(1)).unwrap();
        assert!(pool.is_live(a) && pool.is_live(b));
        pool.retire(a);
        assert!(!pool.is_live(a));
        let tags: Vec<u64> = pool.iter_live().map(|(_, e)| e.tag).collect();
        assert_eq!(tags, vec![11]);
    }
}
