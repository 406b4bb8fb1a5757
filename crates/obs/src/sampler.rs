//! Metrics time series: periodic [`MetricsRegistry`] snapshots with
//! delta/rate derivation and JSONL export.
//!
//! The registry answers "what are the counters *now*"; the [`Sampler`]
//! turns that into a bounded history of timestamped snapshots so a
//! live consumer can ask the questions a single snapshot can't —
//! how fast are tasks finishing, is wake traffic accelerating, did
//! steals spike. The window is bounded at 256 snapshots (the oldest is
//! evicted), so a long-lived service can sample forever in constant
//! memory.
//!
//! Rates are derived between the two most recent snapshots: counters
//! here are monotonically increasing totals, so
//! `(new - old) / Δt` is the instantaneous rate per second. A counter
//! that moved backwards (a source was re-registered) yields a zero
//! rather than a negative rate.
//!
//! [`to_jsonl`](Sampler::to_jsonl) renders the retained window one
//! JSON object per line — the grep/`jq`-friendly export the watch
//! dashboard writes with `--csv`, validated by
//! [`validate_json`](crate::validate_json) per line in tests.

use crate::registry::{MetricsRegistry, MetricsSnapshot};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One timestamped registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledSnapshot {
    /// Nanoseconds since the sampler's construction.
    pub ts_ns: u64,
    /// The counters at that instant.
    pub snap: MetricsSnapshot,
}

/// Snapshots a [`Sampler`] retains.
const WINDOW: usize = 256;

/// A bounded time series of [`MetricsRegistry`] snapshots.
pub struct Sampler {
    reg: Arc<MetricsRegistry>,
    epoch: Instant,
    window: VecDeque<SampledSnapshot>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("samples", &self.window.len())
            .finish()
    }
}

impl Sampler {
    /// A sampler over `reg` retaining the most recent 256 snapshots.
    pub fn new(reg: Arc<MetricsRegistry>) -> Sampler {
        Sampler {
            reg,
            epoch: Instant::now(),
            window: VecDeque::with_capacity(WINDOW),
        }
    }

    /// Take one snapshot now. Returns a reference to it.
    pub fn tick(&mut self) -> &SampledSnapshot {
        let s = SampledSnapshot {
            ts_ns: self.epoch.elapsed().as_nanos() as u64,
            snap: self.reg.snapshot(),
        };
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(s);
        self.window.back().expect("just pushed")
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no snapshot has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The most recent snapshot.
    pub fn latest(&self) -> Option<&SampledSnapshot> {
        self.window.back()
    }

    /// Per-counter rates (`group.counter`, events/second) between the
    /// two most recent snapshots. Empty with fewer than two snapshots
    /// or a zero time delta; counters that moved backwards rate 0.
    pub fn rates(&self) -> Vec<(String, f64)> {
        let n = self.window.len();
        if n < 2 {
            return Vec::new();
        }
        let (old, new) = (&self.window[n - 2], &self.window[n - 1]);
        let dt = new.ts_ns.saturating_sub(old.ts_ns) as f64 / 1e9;
        if dt <= 0.0 {
            return Vec::new();
        }
        new.snap
            .iter()
            .map(|(g, c, v)| {
                let prev = old.snap.get(g, c).unwrap_or(0);
                (format!("{g}.{c}"), v.saturating_sub(prev) as f64 / dt)
            })
            .collect()
    }

    /// Render the retained window as JSONL: one
    /// `{"ts_ns": …, "groups": {"g": {"c": v}}}` object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.window {
            out.push_str(&jsonl_line(s));
            out.push('\n');
        }
        out
    }
}

/// One snapshot as a single-line JSON object (no trailing newline).
pub(crate) fn jsonl_line(s: &SampledSnapshot) -> String {
    let mut line = format!("{{\"ts_ns\": {}, \"groups\": {{", s.ts_ns);
    for (gi, g) in s.snap.groups.iter().enumerate() {
        if gi > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!("\"{}\": {{", escape(&g.name)));
        for (ci, (c, v)) in g.counters.iter().enumerate() {
            if ci > 0 {
                line.push_str(", ");
            }
            line.push_str(&format!("\"{}\": {}", escape(c), v));
        }
        line.push('}');
    }
    line.push_str("}}");
    line
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counting_registry() -> (Arc<MetricsRegistry>, Arc<AtomicU64>) {
        let reg = Arc::new(MetricsRegistry::new());
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        reg.register("tasks", move || {
            vec![("done".to_string(), n2.load(Ordering::Relaxed))]
        });
        (reg, n)
    }

    #[test]
    fn window_is_bounded_and_keeps_the_newest() {
        let (reg, n) = counting_registry();
        let mut s = Sampler::new(reg);
        for i in 0..WINDOW as u64 + 7 {
            n.store(i, Ordering::Relaxed);
            s.tick();
        }
        assert_eq!(s.len(), WINDOW);
        // The seven oldest were evicted, the rest kept in tick order.
        assert_eq!(s.window[0].snap.get("tasks", "done"), Some(7));
        assert!(s
            .window
            .iter()
            .zip(s.window.iter().skip(1))
            .all(|(a, b)| a.ts_ns <= b.ts_ns));
        assert_eq!(
            s.latest().unwrap().snap.get("tasks", "done"),
            Some(WINDOW as u64 + 6)
        );
    }

    #[test]
    fn rates_reflect_counter_deltas() {
        let (reg, n) = counting_registry();
        let mut s = Sampler::new(reg);
        assert!(s.rates().is_empty());
        s.tick();
        assert!(s.rates().is_empty());
        n.store(500, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.tick();
        let rates = s.rates();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, "tasks.done");
        assert!(rates[0].1 > 0.0, "rate = {}", rates[0].1);
        // 500 counts over >= 5ms: at most 100k/s.
        assert!(rates[0].1 <= 100_000.0, "rate = {}", rates[0].1);
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let (reg, n) = counting_registry();
        reg.register("odd \"names\"", || vec![("a\\b".to_string(), 7)]);
        let mut s = Sampler::new(reg);
        n.store(3, Ordering::Relaxed);
        s.tick();
        s.tick();
        let out = s.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            validate_json(line).expect(line);
            assert!(line.contains("\"tasks\""));
            assert!(line.contains("\"done\": 3"));
        }
    }
}
