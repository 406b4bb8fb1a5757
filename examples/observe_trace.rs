//! Observing a run: attach a [`Recorder`] to the sharded runtime, run a
//! small dependent workload, and turn the lifecycle event stream into a
//! Chrome-trace file plus a per-task latency breakdown.
//!
//! ```sh
//! cargo run --release --example observe_trace
//! ```
//!
//! The trace lands in `observe_trace.json`; open it at
//! `chrome://tracing` (or <https://ui.perfetto.dev>) to see one row per
//! worker with an `exec` slice per task.

use nexuspp::core::ShardCapacity;
use nexuspp::obs::{self, GraphTracker, Recorder};
use nexuspp::runtime::Runtime;
use nexuspp::sched::SchedulerKind;
use nexuspp::shard::WakeMode;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let workers = 4;
    let rec = Arc::new(Recorder::new(workers));
    let rt = Runtime::with_recorder(
        workers,
        4,
        SchedulerKind::default(),
        ShardCapacity::Unbounded,
        WakeMode::default(),
        Arc::clone(&rec),
    );

    // Four dependence chains of eight tasks each (WAW on one region per
    // chain) plus eight independent tasks: enough structure for wake
    // edges and a non-trivial critical path, small enough to eyeball.
    let chains: Vec<_> = (0..4).map(|_| rt.region(vec![0u64])).collect();
    for _ in 0..8 {
        for r in &chains {
            rt.task().inout(r).spawn(|_| {
                std::thread::sleep(Duration::from_micros(200));
            });
        }
    }
    for _ in 0..8 {
        let r = rt.region(vec![0u64]);
        rt.task().output(&r).spawn(|_| {
            std::thread::sleep(Duration::from_micros(200));
        });
    }
    rt.barrier();

    let events = rec.drain();
    println!(
        "recorded {} events ({} dropped)",
        rec.recorded(),
        rec.dropped()
    );

    // One fold of the stream: per-stage latencies over every task's
    // lifecycle, and the critical path over the recorded wake edges.
    let mut tracker = GraphTracker::new();
    tracker.apply_batch(&events);
    let lat = tracker.snapshot().stages;
    for (stage, s) in [
        ("submit -> ready", &lat.submit_to_ready),
        ("ready  -> start", &lat.ready_to_start),
        ("start  -> done ", &lat.start_to_done),
        ("done   -> finish", &lat.done_to_finish),
    ] {
        println!(
            "{stage}: mean {:>9.0} ns  p50 {:>8} ns  max {:>8} ns  (n = {})",
            s.mean_ns, s.p50_ns, s.max_ns, s.count
        );
    }

    let cp = tracker.critical_path();
    println!("observed critical path: {} tasks", cp.length);

    // Chrome-trace export, validated before it hits disk.
    let json = obs::chrome_trace(&events);
    obs::validate_json(&json).expect("exporter emits valid JSON");
    std::fs::write("observe_trace.json", &json).expect("write observe_trace.json");
    println!(
        "wrote observe_trace.json ({} bytes) — open in chrome://tracing",
        json.len()
    );
}
