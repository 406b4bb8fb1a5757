//! The benchmark's vocabulary: workload names, metric names and units.
//! `BENCHMARK.json` declares exactly these (a unit test compares the
//! two); later issues cite them, so they are stable.

use crate::stats;
use std::collections::BTreeMap;

/// Why each was chosen is in `README.md` and `BENCHMARK.json`.
pub const WORKLOADS: &[&str] = &[
    "stack_stream",
    "rt_gaussian",
    "rt_video_grain",
    "lower_batch",
    "incr_edits",
    "model_video",
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, bound }
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, 0.0)
}

/// What a user of the system sees; printed by an untraced run. Every
/// workload defines every one of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("tasks_per_s", "tasks/s", 0.25),
    e2e("cpu_us_per_task", "us", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// Single layers, printed by a traced run. A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    m("frontend.declare_ns_per_task", "ns"),
    m("frontend.lower_ns_per_task", "ns"),
    m("frontend.edges_per_task", "count"),
    m("service.try_submit_ns", "ns"),
    m("service.backpressure_ratio", "ratio"),
    m("service.budget_denied_per_task", "count"),
    m("service.capacity_retries_per_task", "count"),
    m("service.shutdown_ms", "ms"),
    m("service.self_ns_per_task", "ns"),
    m("service.task_latency_p50_us", "us"),
    m("service.task_latency_p99_us", "us"),
    m("runtime.spawn_ns_per_task", "ns"),
    m("runtime.submit_share", "ratio"),
    m("runtime.barrier_tail_ms", "ms"),
    m("runtime.self_ns_per_task", "ns"),
    m("runtime.submit_to_ready_ns_p50", "ns"),
    m("runtime.ready_to_start_ns_p50", "ns"),
    m("runtime.done_to_finish_ns_p50", "ns"),
    m("shard.submit_ns_per_task", "ns"),
    m("shard.finish_ns_per_task", "ns"),
    m("shard.wakes_per_finish", "count"),
    m("shard.ready_at_submit_ratio", "ratio"),
    m("shard.wake_delivery_ns_per_wake", "ns"),
    m("shard.delivery_lock_acquisitions", "count"),
    m("core.submit_ns_per_task", "ns"),
    m("core.finish_ns_per_task", "ns"),
    m("sched.submit_next_ns_per_item", "ns"),
    m("sched.steal_ratio", "ratio"),
    m("sched.parks_per_ktask", "count"),
    m("sched.unparks_per_ktask", "count"),
    m("sched.wake_batch_size", "count"),
    m("sched.parallel_efficiency", "ratio"),
    m("incr.rerun_scratch_ms", "ms"),
    m("incr.rerun_edit1_ms", "ms"),
    m("incr.rerun_edit10_ms", "ms"),
    m("incr.edit_batch_us_edit1", "us"),
    m("incr.rerun_us_edit1", "us"),
    m("incr.edit_batch_us_edit10", "us"),
    m("incr.rerun_us_edit10", "us"),
    m("incr.reran_edit1", "count"),
    m("incr.reran_edit10", "count"),
    m("incr.order_ops_per_edit", "count"),
    m("incr.reuse_ratio", "ratio"),
    m("obs.recording_overhead_ratio", "ratio"),
    m("obs.events_dropped", "count"),
    m("taskmachine.sim_makespan_us", "us"),
    m("taskmachine.host_ns_per_task", "ns"),
    m("taskmachine.host_ns_per_event", "ns"),
    m("taskmachine.multi_host_ns_per_task", "ns"),
    m("taskmachine.worker_utilization", "ratio"),
    m("taskmachine.check_deps_utilization", "ratio"),
    m("workloads.generate_ns_per_task", "ns"),
    m("bench.harness_ns_per_task", "ns"),
    m("bench.trace_overhead_ratio", "ratio"),
    m("bench.round_spread", "ratio"),
    m("bench.failed_share", "ratio"),
    m("ledger.frontend_ns_per_task", "ns"),
    m("ledger.service_ns_per_task", "ns"),
    m("ledger.runtime_ns_per_task", "ns"),
    m("ledger.shard_ns_per_task", "ns"),
    m("ledger.core_ns_per_task", "ns"),
    m("ledger.sched_ns_per_task", "ns"),
    m("ledger.body_ns_per_task", "ns"),
    m("ledger.residual_ns_per_task", "ns"),
    m("ledger.total_ns_per_task", "ns"),
];

/// The eight rows that sum to `ledger.total_ns_per_task`.
pub const LEDGER_ROWS: [&str; 8] = [
    "ledger.frontend_ns_per_task",
    "ledger.service_ns_per_task",
    "ledger.runtime_ns_per_task",
    "ledger.shard_ns_per_task",
    "ledger.core_ns_per_task",
    "ledger.sched_ns_per_task",
    "ledger.body_ns_per_task",
    "ledger.residual_ns_per_task",
];

/// One reported figure: the median of its samples with the quartiles
/// and the sample count beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Samples by metric name. A metric measured once per round gets one
/// sample per round; a count read at the end gets one sample.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a declared metric"
        );
        self.0.entry(name).or_default().push(value);
    }

    /// Replace whatever was sampled under `name` by one exact value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.remove(name);
        self.add(name, value);
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Median of the samples under `name`; 0 if the layer was bypassed.
    pub fn median(&self, name: &str) -> f64 {
        self.summary(name).value
    }

    pub fn summary(&self, name: &str) -> Summary {
        let v = self.0.get(name).map_or(&[][..], Vec::as_slice);
        let [q1, value, q3] = stats::quartiles(v);
        Summary {
            value,
            q1,
            q3,
            n: v.len(),
        }
    }
}

/// Fill the ledger: attribute `total_ns` of CPU per task to the layers'
/// self times, nested core ⊂ shard ⊂ runtime ⊂ service, and report what
/// is left (contention, parking, idle spinning, the harness) as the
/// residual rather than hiding it. The eight rows sum to the total by
/// construction; a negative residual means the single-thread replays
/// cost more than the same work did inside the threaded run.
pub fn fill_ledger(s: &mut Samples, total_ns: f64) {
    let core = s.median("core.submit_ns_per_task") + s.median("core.finish_ns_per_task");
    let shard = s.median("shard.submit_ns_per_task") + s.median("shard.finish_ns_per_task");
    let rows = [
        s.median("frontend.declare_ns_per_task") + s.median("frontend.lower_ns_per_task"),
        s.median("service.self_ns_per_task"),
        s.median("runtime.self_ns_per_task"),
        shard - core,
        core,
        s.median("sched.submit_next_ns_per_item"),
        s.median("ledger.body_ns_per_task"),
    ];
    let residual = total_ns - rows.iter().sum::<f64>();
    for (name, value) in LEDGER_ROWS.iter().zip(rows.into_iter().chain([residual])) {
        s.set(name, value);
    }
    s.set("ledger.total_ns_per_task", total_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(ok)
            && name.chars().next().unwrap().is_ascii_alphanumeric()
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w, 64), "{w}");
            assert!(seen.insert(*w), "{w} used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name, 64), "{}", d.name);
            assert!(seen.insert(d.name), "{} used twice", d.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(unit_ok));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// Names under `"key": [` in BENCHMARK.json, in order.
    fn declared(text: &str, key: &str) -> Vec<String> {
        let from = text.find(&format!("\"{key}\"")).expect(key);
        let section = &text[from..];
        let section = &section[..section.find(']').expect("closing bracket")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(declared(&text, "workloads"), WORKLOADS);
        assert_eq!(declared(&text, "end_to_end"), names(END_TO_END));
        assert_eq!(declared(&text, "per_layer"), names(PER_LAYER));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&entry), "unit of {} differs", d.name);
        }
        for d in END_TO_END {
            let entry = format!("\"name\": \"{}\"", d.name);
            let line = text
                .lines()
                .find(|l| l.contains(&entry))
                .expect("one metric per line");
            assert!(
                line.contains(&format!("\"bound\": {}}}", d.bound)),
                "bound of {}",
                d.name
            );
        }
    }

    #[test]
    fn ledger_rows_sum_to_the_total() {
        let mut s = Samples::default();
        for (name, v) in [
            ("frontend.declare_ns_per_task", 200.0),
            ("frontend.lower_ns_per_task", 300.0),
            ("service.self_ns_per_task", 1500.0),
            ("runtime.self_ns_per_task", 900.0),
            ("shard.submit_ns_per_task", 400.0),
            ("shard.finish_ns_per_task", 350.0),
            ("core.submit_ns_per_task", 150.0),
            ("core.finish_ns_per_task", 100.0),
            ("sched.submit_next_ns_per_item", 80.0),
            ("ledger.body_ns_per_task", 40.0),
        ] {
            s.add(name, v);
        }
        fill_ledger(&mut s, 7000.0);
        let sum: f64 = LEDGER_ROWS.iter().map(|r| s.median(r)).sum();
        assert!((sum - s.median("ledger.total_ns_per_task")).abs() < 1e-9);
        assert_eq!(s.median("ledger.shard_ns_per_task"), 500.0);
        assert_eq!(s.median("ledger.core_ns_per_task"), 250.0);
        assert_eq!(s.median("ledger.residual_ns_per_task"), 7000.0 - 3770.0);
        // Replays that cost more than the threaded run leave a negative
        // residual; the rows still sum to the total.
        fill_ledger(&mut s, 1000.0);
        let sum: f64 = LEDGER_ROWS.iter().map(|r| s.median(r)).sum();
        assert!((sum - 1000.0).abs() < 1e-9);
        assert!(s.median("ledger.residual_ns_per_task") < 0.0);
    }

    #[test]
    fn samples_summarise_to_median_and_quartiles() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.add("tasks_per_s", v);
        }
        let sum = s.summary("tasks_per_s");
        assert_eq!((sum.q1, sum.value, sum.q3, sum.n), (1.0, 2.0, 3.0, 3));
        assert_eq!(s.summary("setup_s").n, 0);
        assert_eq!(s.median("setup_s"), 0.0);
        s.set("tasks_per_s", 9.0);
        assert_eq!(s.summary("tasks_per_s").n, 1);
    }
}
