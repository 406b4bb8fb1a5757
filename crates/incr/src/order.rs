//! Pearce–Kelly dynamic topological ordering with online cycle
//! detection.
//!
//! [`DynamicTopo`] maintains a total order over the nodes of a DAG that
//! stays topologically valid while nodes and edges are inserted and
//! deleted **online** — the algorithm of Pearce & Kelly, *"A Dynamic
//! Topological Sort Algorithm for Directed Acyclic Graphs"* (JEA 2007),
//! the same algorithm behind the `incremental-topo` crate that PIE's
//! dependency-graph store builds on.
//!
//! The key property: inserting an edge `(x → y)` that already respects
//! the current order (`ord(x) < ord(y)`) costs **O(1)** — no
//! traversal, no reordering. Only a *violating* insertion
//! (`ord(y) < ord(x)`) triggers work, and that work is bounded by the
//! **affected region** — the nodes whose order index lies between
//! `ord(y)` and `ord(x)` and are actually connected to the new edge —
//! never the whole graph. Edge and node deletions never reorder at
//! all. A cycle-creating insertion is detected during the (read-only)
//! discovery phase and rejected with the structure untouched.
//!
//! The cumulative work performed by order maintenance is surfaced via
//! [`ops`](DynamicTopo::ops) (nodes visited during discovery plus nodes
//! shifted during reordering), which the incremental layer reports as
//! `order_maintenance_ops` so tests and experiments can *see* that
//! edits stay local.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;

/// Errors surfaced by [`DynamicTopo`] mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderError<K> {
    /// An edge endpoint was never added (or was removed).
    MissingNode(K),
    /// Inserting the edge would close a cycle; the structure is
    /// unchanged.
    Cycle {
        /// Source of the rejected edge.
        from: K,
        /// Target of the rejected edge.
        to: K,
    },
}

impl<K: fmt::Debug> fmt::Display for OrderError<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderError::MissingNode(k) => write!(f, "node {k:?} is not in the order"),
            OrderError::Cycle { from, to } => {
                write!(f, "edge {from:?} -> {to:?} would close a cycle")
            }
        }
    }
}

impl<K: fmt::Debug> std::error::Error for OrderError<K> {}

/// A DAG with an incrementally maintained topological order
/// (Pearce–Kelly). See the [module docs](self) for the algorithm and
/// its cost model.
///
/// ```
/// use nexuspp_incr::order::DynamicTopo;
///
/// let mut t = DynamicTopo::new();
/// for k in [1u64, 2, 3] {
///     t.add_node(k);
/// }
/// t.add_edge(1, 2).unwrap();
/// // A violating insertion (3 currently sits after 2) reorders only
/// // the affected region...
/// t.add_edge(3, 2).unwrap();
/// assert!(t.is_before(3, 2));
/// // ...and a cycle-creating one is rejected, order intact.
/// assert!(t.add_edge(2, 1).is_err());
/// assert!(t.is_before(1, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynamicTopo<K> {
    /// Node → unique order index. Lower index = earlier in the order.
    ord: HashMap<K, u64>,
    /// Outgoing adjacency (edge from → {to}).
    out: HashMap<K, BTreeSet<K>>,
    /// Incoming adjacency (edge to → {from}).
    inn: HashMap<K, BTreeSet<K>>,
    /// Next fresh order index for new nodes.
    next: u64,
    /// Cumulative order-maintenance work (see [`ops`](Self::ops)).
    ops: u64,
}

impl<K: Copy + Ord + Hash + fmt::Debug> DynamicTopo<K> {
    /// An empty order.
    pub fn new() -> Self {
        DynamicTopo {
            ord: HashMap::new(),
            out: HashMap::new(),
            inn: HashMap::new(),
            next: 0,
            ops: 0,
        }
    }

    /// Add a node at the end of the current order. Returns `false` if
    /// it already exists (a no-op).
    pub fn add_node(&mut self, k: K) -> bool {
        if self.ord.contains_key(&k) {
            return false;
        }
        self.ord.insert(k, self.next);
        self.next += 1;
        self.out.insert(k, BTreeSet::new());
        self.inn.insert(k, BTreeSet::new());
        true
    }

    /// Remove a node and all its incident edges. Returns `false` if it
    /// was not present. Never reorders the survivors.
    pub fn remove_node(&mut self, k: K) -> bool {
        if self.ord.remove(&k).is_none() {
            return false;
        }
        for succ in self.out.remove(&k).unwrap_or_default() {
            if let Some(inn) = self.inn.get_mut(&succ) {
                inn.remove(&k);
            }
        }
        for pred in self.inn.remove(&k).unwrap_or_default() {
            if let Some(out) = self.out.get_mut(&pred) {
                out.remove(&k);
            }
        }
        true
    }

    /// Insert the edge `from → to`, restoring topological order if the
    /// insertion violates it. Returns `Ok(false)` if the edge already
    /// exists. A cycle-creating insertion returns
    /// [`OrderError::Cycle`] with **nothing mutated** — discovery runs
    /// before any reordering, so a rejected edit cannot corrupt the
    /// order.
    pub fn add_edge(&mut self, from: K, to: K) -> Result<bool, OrderError<K>> {
        let &ub = self.ord.get(&from).ok_or(OrderError::MissingNode(from))?;
        let &lb = self.ord.get(&to).ok_or(OrderError::MissingNode(to))?;
        if from == to {
            return Err(OrderError::Cycle { from, to });
        }
        if self.out[&from].contains(&to) {
            return Ok(false);
        }
        if lb < ub {
            // The new edge points backwards in the current order:
            // discover the affected region, then reorder it.
            let delta_f = self
                .forward_from(to, ub)
                .ok_or(OrderError::Cycle { from, to })?;
            let delta_b = self.backward_from(from, lb);
            self.reorder(delta_b, delta_f);
        }
        // An order-respecting insertion (ub < lb) is O(1): record it.
        self.out.get_mut(&from).expect("from exists").insert(to);
        self.inn.get_mut(&to).expect("to exists").insert(from);
        Ok(true)
    }

    /// Remove the edge `from → to`. Returns `false` if absent. Never
    /// reorders: a valid order stays valid when constraints are
    /// dropped.
    pub fn remove_edge(&mut self, from: K, to: K) -> bool {
        let removed = self
            .out
            .get_mut(&from)
            .map(|s| s.remove(&to))
            .unwrap_or(false);
        if removed {
            self.inn.get_mut(&to).expect("to exists").remove(&from);
        }
        removed
    }

    /// Forward discovery: nodes reachable from `start` whose order
    /// index is `< ub`. Returns `None` if a node with index `ub` (the
    /// inserted edge's source) is reachable — a cycle.
    fn forward_from(&mut self, start: K, ub: u64) -> Option<Vec<K>> {
        let mut seen: BTreeSet<K> = BTreeSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(n) = stack.pop() {
            self.ops += 1;
            for &m in &self.out[&n] {
                let om = self.ord[&m];
                if om == ub {
                    return None; // reached the edge source: cycle
                }
                if om < ub && seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        Some(seen.into_iter().collect())
    }

    /// Backward discovery: nodes that reach `start` whose order index
    /// is `> lb`.
    fn backward_from(&mut self, start: K, lb: u64) -> Vec<K> {
        let mut seen: BTreeSet<K> = BTreeSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(n) = stack.pop() {
            self.ops += 1;
            for &m in &self.inn[&n] {
                let om = self.ord[&m];
                if om > lb && seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Reorder the affected region: everything that must move *up*
    /// (δB, the nodes reaching the edge source) is placed before
    /// everything that must move *down* (δF, the nodes the edge target
    /// reaches), reusing the union of their existing index slots in
    /// sorted order — all other nodes keep their indices.
    fn reorder(&mut self, delta_b: Vec<K>, delta_f: Vec<K>) {
        let mut b: Vec<(u64, K)> = delta_b.into_iter().map(|k| (self.ord[&k], k)).collect();
        let mut f: Vec<(u64, K)> = delta_f.into_iter().map(|k| (self.ord[&k], k)).collect();
        b.sort_unstable();
        f.sort_unstable();
        let mut slots: Vec<u64> = b.iter().chain(f.iter()).map(|&(o, _)| o).collect();
        slots.sort_unstable();
        for (slot, &(_, k)) in slots.iter().zip(b.iter().chain(f.iter())) {
            self.ord.insert(k, *slot);
            self.ops += 1;
        }
    }

    /// Does the order contain `k`?
    pub fn contains(&self, k: K) -> bool {
        self.ord.contains_key(&k)
    }

    /// The current order index of `k` (comparable, not dense).
    pub(crate) fn ord(&self, k: K) -> Option<u64> {
        self.ord.get(&k).copied()
    }

    /// Is `a` before `b` in the current order? `false` if either is
    /// missing.
    pub fn is_before(&self, a: K, b: K) -> bool {
        matches!((self.ord.get(&a), self.ord.get(&b)), (Some(x), Some(y)) if x < y)
    }

    /// All nodes, sorted by the maintained order.
    pub fn topo_order(&self) -> Vec<K> {
        let mut v: Vec<(u64, K)> = self.ord.iter().map(|(&k, &o)| (o, k)).collect();
        v.sort_unstable();
        v.into_iter().map(|(_, k)| k).collect()
    }

    /// All edges, sorted.
    pub fn edges(&self) -> Vec<(K, K)> {
        let mut v: Vec<(K, K)> = self
            .out
            .iter()
            .flat_map(|(&f, ts)| ts.iter().map(move |&t| (f, t)))
            .collect();
        v.sort_unstable();
        v
    }

    /// All nodes, sorted by key (not by order).
    pub fn nodes(&self) -> Vec<K> {
        let mut v: Vec<K> = self.ord.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ord.len()
    }

    /// No nodes at all?
    pub fn is_empty(&self) -> bool {
        self.ord.is_empty()
    }

    /// Cumulative order-maintenance work: one unit per node visited
    /// during violating-edge discovery and per node shifted during
    /// reordering. Order-respecting insertions and all deletions add
    /// **zero** — the counter is how tests prove maintenance stays
    /// proportional to the affected region, not the graph.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Does every edge respect the maintained order? (Test support —
    /// `true` is the structure's invariant.)
    pub fn is_valid(&self) -> bool {
        self.edges().iter().all(|&(f, t)| self.is_before(f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respecting_insertions_cost_zero_ops() {
        let mut t = DynamicTopo::new();
        for k in 0..100u64 {
            t.add_node(k);
        }
        for k in 0..99u64 {
            t.add_edge(k, k + 1).unwrap();
        }
        assert_eq!(t.ops(), 0, "in-order chain never triggers maintenance");
        assert!(t.is_valid());
    }

    #[test]
    fn violating_insertion_reorders_locally() {
        let mut t = DynamicTopo::new();
        for k in 0..50u64 {
            t.add_node(k);
        }
        // Node 49 must now precede node 0: affected region is just the
        // two endpoints (no other node is *connected* to either).
        t.add_edge(49, 0).unwrap();
        assert!(t.is_before(49, 0));
        assert!(t.is_valid());
        assert!(
            t.ops() <= 4,
            "disconnected in-between nodes must not be visited (ops {})",
            t.ops()
        );
    }

    #[test]
    fn cycle_rejection_leaves_everything_unchanged() {
        let mut t = DynamicTopo::new();
        for k in 0..4u64 {
            t.add_node(k);
        }
        t.add_edge(0, 1).unwrap();
        t.add_edge(1, 2).unwrap();
        t.add_edge(2, 3).unwrap();
        let before_edges = t.edges();
        let before_order = t.topo_order();
        assert_eq!(
            t.add_edge(3, 0).unwrap_err(),
            OrderError::Cycle { from: 3, to: 0 }
        );
        assert_eq!(t.edges(), before_edges);
        assert_eq!(t.topo_order(), before_order);
        // Self-edges are cycles too.
        assert!(t.add_edge(2, 2).is_err());
    }

    #[test]
    fn removals_never_reorder() {
        let mut t = DynamicTopo::new();
        for k in 0..6u64 {
            t.add_node(k);
        }
        t.add_edge(5, 0).unwrap(); // violating: forces one reorder
        let ops = t.ops();
        let order = t.topo_order();
        t.remove_edge(5, 0);
        t.remove_node(3);
        assert_eq!(t.ops(), ops, "deletions are free");
        let expect: Vec<u64> = order.into_iter().filter(|&k| k != 3).collect();
        assert_eq!(t.topo_order(), expect);
        assert!(t.is_valid());
    }

    #[test]
    fn missing_nodes_are_reported() {
        let mut t = DynamicTopo::new();
        t.add_node(1u64);
        assert_eq!(t.add_edge(1, 2).unwrap_err(), OrderError::MissingNode(2));
        assert_eq!(t.add_edge(9, 1).unwrap_err(), OrderError::MissingNode(9));
        assert!(!t.remove_edge(1, 2));
        assert!(!t.remove_node(7));
    }
}
