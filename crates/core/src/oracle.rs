//! Reference dependency resolver for differential testing.
//!
//! Builds the explicit task DAG the way a software StarSs runtime would:
//! per address, a reader of `A` depends on the last unfinished writer of
//! `A`; a writer depends on the last writer *and* every active reader
//! (RAW, WAW, WAR). A task is ready exactly when all its predecessors have
//! finished.
//!
//! The hardware protocol (Dependence Table + Kick-Off Lists + `Rdrs`/`ww`)
//! encodes the same constraints with constant-size state; the property
//! tests in this crate and in `tests/` drive both implementations through
//! random workloads and arbitrary completion orders and require their
//! ready sets to be identical at every step.

use nexuspp_trace::Param;
use std::collections::{BTreeSet, HashMap};

/// Oracle-side task identity (submission order index).
pub(crate) type OracleId = usize;

#[derive(Debug, Default, Clone)]
struct AddrState {
    /// Last submitted writer of this address still relevant for ordering.
    last_writer: Option<OracleId>,
    /// Tasks submitted after `last_writer` that read this address.
    readers_since_write: Vec<OracleId>,
}

/// The reference resolver.
#[derive(Debug, Default)]
pub struct OracleResolver {
    addr_state: HashMap<u64, AddrState>,
    /// Outstanding predecessor count per task.
    pending: Vec<usize>,
    /// Reverse edges: task → dependents.
    dependents: Vec<Vec<OracleId>>,
    /// Submitted & unfinished.
    live: Vec<bool>,
    ready: BTreeSet<OracleId>,
    finished_count: usize,
}

impl OracleResolver {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks submitted so far.
    pub fn submitted(&self) -> usize {
        self.pending.len()
    }

    /// Number of tasks finished so far.
    pub fn finished(&self) -> usize {
        self.finished_count
    }

    /// Submit the next task (IDs are assigned densely in submission
    /// order). Returns its ID and whether it is immediately ready.
    pub fn submit(&mut self, params: &[Param]) -> (OracleId, bool) {
        let id = self.pending.len();
        self.pending.push(0);
        self.dependents.push(Vec::new());
        self.live.push(true);

        let mut preds: BTreeSet<OracleId> = BTreeSet::new();
        for p in params {
            let st = self.addr_state.entry(p.addr).or_default();
            if p.mode.is_read_only() {
                if let Some(w) = st.last_writer {
                    preds.insert(w);
                }
                st.readers_since_write.push(id);
            } else {
                if let Some(w) = st.last_writer {
                    preds.insert(w);
                }
                for &r in &st.readers_since_write {
                    preds.insert(r);
                }
                st.last_writer = Some(id);
                st.readers_since_write.clear();
            }
        }
        // Only unfinished predecessors constrain the task.
        let active_preds: Vec<OracleId> = preds
            .into_iter()
            .filter(|&p| self.live[p] && p != id)
            .collect();
        self.pending[id] = active_preds.len();
        for p in active_preds {
            self.dependents[p].push(id);
        }
        let ready = self.pending[id] == 0;
        if ready {
            self.ready.insert(id);
        }
        (id, ready)
    }

    /// Finish a ready task, returning the tasks that became ready.
    pub fn finish(&mut self, id: OracleId) -> Vec<OracleId> {
        assert!(self.ready.remove(&id), "finishing a non-ready task {id}");
        self.live[id] = false;
        self.finished_count += 1;
        let mut newly = Vec::new();
        for &d in &self.dependents[id] {
            self.pending[d] -= 1;
            if self.pending[d] == 0 {
                self.ready.insert(d);
                newly.push(d);
            }
        }
        // Retire address bookkeeping that can no longer matter: a finished
        // writer stays as `last_writer` until superseded, but ordering-wise
        // it is inert (filtered at submit by liveness).
        newly
    }

    /// Current ready set (submitted, unfinished, no pending predecessors).
    pub fn ready_set(&self) -> Vec<OracleId> {
        self.ready.iter().copied().collect()
    }

    /// True if every submitted task has finished.
    pub fn all_done(&self) -> bool {
        self.finished_count == self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexuspp_trace::Param;

    #[test]
    fn raw_waw_war_edges() {
        let mut o = OracleResolver::new();
        let (w1, r) = o.submit(&[Param::output(0xA, 4)]);
        assert!(r);
        let (r1, r) = o.submit(&[Param::input(0xA, 4)]);
        assert!(!r, "RAW");
        let (w2, r) = o.submit(&[Param::output(0xA, 4)]);
        assert!(!r, "WAW + WAR");
        assert_eq!(o.finish(w1), vec![r1]);
        assert_eq!(o.finish(r1), vec![w2]);
        assert_eq!(o.finish(w2), Vec::<OracleId>::new());
        assert!(o.all_done());
    }

    #[test]
    fn finished_writer_does_not_constrain() {
        let mut o = OracleResolver::new();
        let (w1, _) = o.submit(&[Param::output(0xB, 4)]);
        o.finish(w1);
        let (_r1, ready) = o.submit(&[Param::input(0xB, 4)]);
        assert!(ready, "writer already finished");
    }

    #[test]
    fn readers_share() {
        let mut o = OracleResolver::new();
        let (_a, ra) = o.submit(&[Param::input(0xC, 4)]);
        let (_b, rb) = o.submit(&[Param::input(0xC, 4)]);
        assert!(ra && rb);
        let (_w, rw) = o.submit(&[Param::inout(0xC, 4)]);
        assert!(!rw, "WAR on both readers");
    }

    #[test]
    fn ready_set_tracks_order() {
        let mut o = OracleResolver::new();
        let (t0, _) = o.submit(&[Param::output(1, 4)]);
        let (t1, _) = o.submit(&[Param::output(2, 4)]);
        let (t2, _) = o.submit(&[Param::input(1, 4), Param::input(2, 4)]);
        assert_eq!(o.ready_set(), vec![t0, t1]);
        o.finish(t0);
        assert_eq!(o.ready_set(), vec![t1]);
        o.finish(t1);
        assert_eq!(o.ready_set(), vec![t2]);
    }

    #[test]
    #[should_panic]
    fn finishing_unready_task_panics() {
        let mut o = OracleResolver::new();
        o.submit(&[Param::output(1, 4)]);
        let (t1, _) = o.submit(&[Param::input(1, 4)]);
        o.finish(t1);
    }
}
