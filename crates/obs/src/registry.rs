//! The [`MetricsRegistry`]: one snapshot type over every layer's
//! counters.
//!
//! Each layer already keeps its own counters (`SchedCounts` in the
//! scheduler, `WakeCounts` and capacity stall/retry/stall-time in the
//! dispatcher, submission totals in the runtimes). The registry does
//! not replace them — it holds named *sources* (closures that snapshot
//! a layer's counters on demand) and flattens them into one
//! [`MetricsSnapshot`] that `repro` and the runtimes can render or
//! query uniformly.

use crate::sync::lock_unpoisoned;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

type Source = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

/// A registry of named counter groups, snapshotted on demand.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<(String, Source)>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let groups: Vec<String> = lock_unpoisoned(&self.sources)
            .iter()
            .map(|(g, _)| g.clone())
            .collect();
        f.debug_struct("MetricsRegistry")
            .field("groups", &groups)
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register `group`: `f` is called at every [`snapshot`] to
    /// produce the group's `(counter, value)` pairs.
    ///
    /// [`snapshot`]: MetricsRegistry::snapshot
    pub fn register<F>(&self, group: &str, f: F)
    where
        F: Fn() -> Vec<(String, u64)> + Send + Sync + 'static,
    {
        lock_unpoisoned(&self.sources).push((group.to_string(), Box::new(f)));
    }

    /// Snapshot every group, in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let sources = lock_unpoisoned(&self.sources);
        MetricsSnapshot {
            groups: sources
                .iter()
                .map(|(name, f)| MetricsGroup {
                    name: name.clone(),
                    counters: f(),
                })
                .collect(),
        }
    }
}

/// One live `u64` counter inside a [`CounterGroup`]. Cheap to clone
/// (an `Arc` around one atomic) and safe to bump from any thread.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrite with `v` (gauges).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named set of live counters that snapshots as one registry group —
/// the building block for *dynamic* metric groups (one per tenant in
/// `nexuspp-service`) where the counters exist before, and independently
/// of, any registry. Counter order is creation order.
pub struct CounterGroup {
    counters: Vec<(String, Counter)>,
}

impl CounterGroup {
    /// A group with one zeroed counter per name.
    pub fn new(names: &[&str]) -> CounterGroup {
        CounterGroup {
            counters: names
                .iter()
                .map(|n| (n.to_string(), Counter::default()))
                .collect(),
        }
    }

    /// The live handle for `name`, if it exists.
    pub fn counter(&self, name: &str) -> Option<Counter> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.clone())
    }

    /// Current `(name, value)` pairs, in creation order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }
}

/// One group of counters within a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsGroup {
    /// Group name (`"sched"`, `"wake"`, `"capacity"`, …).
    pub name: String,
    /// `(counter, value)` pairs in the source's order.
    pub counters: Vec<(String, u64)>,
}

/// A point-in-time flattening of every registered counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Groups in registration order.
    pub groups: Vec<MetricsGroup>,
}

impl MetricsSnapshot {
    /// Look up one counter.
    pub fn get(&self, group: &str, counter: &str) -> Option<u64> {
        self.groups
            .iter()
            .filter(|g| g.name == group)
            .flat_map(|g| g.counters.iter())
            .find(|(c, _)| c == counter)
            .map(|&(_, v)| v)
    }

    /// All `(group, counter, value)` triples, flattened.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.groups.iter().flat_map(|g| {
            g.counters
                .iter()
                .map(move |(c, v)| (g.name.as_str(), c.as_str(), *v))
        })
    }

    /// Render as aligned `group.counter = value` lines.
    pub fn render(&self) -> String {
        let rows: Vec<(String, u64)> = self
            .iter()
            .map(|(g, c, v)| (format!("{g}.{c}"), v))
            .collect();
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<width$} = {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn sources_are_live_not_cached() {
        let reg = MetricsRegistry::new();
        let n = Arc::new(AtomicU64::new(1));
        let n2 = Arc::clone(&n);
        reg.register("g", move || {
            vec![("n".to_string(), n2.load(Ordering::Relaxed))]
        });
        assert_eq!(reg.snapshot().get("g", "n"), Some(1));
        n.store(42, Ordering::Relaxed);
        assert_eq!(reg.snapshot().get("g", "n"), Some(42));
        assert_eq!(reg.snapshot().get("g", "missing"), None);
        assert_eq!(reg.snapshot().get("missing", "n"), None);
    }

    #[test]
    fn counter_groups_register_live_handles() {
        let reg = MetricsRegistry::new();
        let group = Arc::new(CounterGroup::new(&["submitted", "rejected", "peak"]));
        let g = Arc::clone(&group);
        reg.register("tenant1", move || g.snapshot());
        let submitted = group.counter("submitted").unwrap();
        let peak = group.counter("peak").unwrap();
        assert!(group.counter("missing").is_none());
        submitted.inc();
        submitted.add(2);
        peak.set(5);
        let snap = reg.snapshot();
        assert_eq!(snap.get("tenant1", "submitted"), Some(3));
        assert_eq!(snap.get("tenant1", "rejected"), Some(0));
        assert_eq!(snap.get("tenant1", "peak"), Some(5));
    }

    #[test]
    fn panicking_source_poisons_nothing_downstream() {
        // A metrics source that panics unwinds while the registry's
        // sources lock is held, poisoning it. The registry must keep
        // working afterwards — register, snapshot, and Debug all go
        // through the poison-tolerant lock.
        let reg = MetricsRegistry::new();
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let armed2 = Arc::clone(&armed);
        reg.register("bomb", move || {
            if armed2.swap(false, Ordering::SeqCst) {
                panic!("injected source panic");
            }
            vec![("ticks".to_string(), 1)]
        });
        reg.register("ok", || vec![("v".to_string(), 7)]);
        let snap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.snapshot()));
        assert!(snap.is_err());
        // The lock is now poisoned; everything must still work.
        reg.register("late", || vec![("w".to_string(), 9)]);
        let snap = reg.snapshot();
        assert_eq!(snap.get("bomb", "ticks"), Some(1));
        assert_eq!(snap.get("ok", "v"), Some(7));
        assert_eq!(snap.get("late", "w"), Some(9));
        assert!(format!("{reg:?}").contains("bomb"));
    }

    #[test]
    fn render_is_aligned_and_complete() {
        let reg = MetricsRegistry::new();
        reg.register("sched", || vec![("steals".to_string(), 3)]);
        reg.register("wake", || vec![("delivered".to_string(), 700)]);
        let snap = reg.snapshot();
        let text = snap.render();
        assert!(text.contains("sched.steals"));
        assert!(text.contains("= 700"));
        assert_eq!(snap.iter().count(), 2);
    }
}
