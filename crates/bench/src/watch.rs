//! `repro watch` — a live text dashboard over a streaming run.
//!
//! Drives a `Runtime` with a background [`Collector`] attached
//! (the online-introspection layer from `nexuspp-obs`), submits a
//! burst of dependent work each frame, and renders the collector's
//! live [`TrackerSnapshot`](nexuspp_obs::TrackerSnapshot) plus metric
//! rates between bursts — tasks
//! move through Stalled → Ready → Running on screen while the run is
//! still executing.
//!
//! On a terminal each frame repaints in place (ANSI clear); piped
//! output gets one plain frame after another, so CI logs stay
//! readable. `--csv DIR` additionally writes the sampler's full
//! time-series window to `DIR/metrics.jsonl` at exit.

use nexuspp_core::ShardCapacity;
use nexuspp_obs::{render_dashboard, Collector, Recorder};
use nexuspp_runtime::Runtime;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Knobs for one watch session.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// Frames to render before draining and exiting.
    pub frames: u32,
    /// Dwell time per frame.
    pub frame_interval: Duration,
    /// Repaint in place with ANSI escapes (terminal) vs append frames
    /// (pipe / CI log).
    pub ansi: bool,
    /// Also write the sampler window to `DIR/metrics.jsonl`.
    pub csv_dir: Option<PathBuf>,
    /// Worker threads for the driven runtime.
    pub workers: usize,
}

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            frames: 12,
            frame_interval: Duration::from_millis(150),
            ansi: false,
            csv_dir: None,
            workers: 4,
        }
    }
}

impl WatchOptions {
    /// Smoke-test shape: few short frames, still enough churn that
    /// every dashboard section renders nonzero at least once.
    pub fn quick() -> Self {
        WatchOptions {
            frames: 4,
            frame_interval: Duration::from_millis(60),
            ..WatchOptions::default()
        }
    }
}

/// What a finished session observed — returned so tests (and the CI
/// smoke step) can assert the dashboard actually watched a live run.
#[derive(Debug, Clone)]
pub struct WatchSummary {
    /// Frames rendered.
    pub frames: u32,
    /// Tasks the tracker saw over the whole session.
    pub tasks_seen: u64,
    /// Tasks that reached Finished by the final drain.
    pub finished: u64,
    /// Wake edges discovered.
    pub edges: u64,
    /// Illegal transitions (must be 0 on a healthy runtime).
    pub violations: u64,
    /// Frames whose snapshot showed in-flight (unfinished) tasks.
    pub live_frames: u32,
    /// Events dropped by the rings (0 unless the session outran them).
    pub events_dropped: u64,
}

/// Tasks submitted per frame burst: a few short dependence chains plus
/// independent work, each task parking briefly so the frame catches it
/// mid-flight.
const BURST_CHAINS: usize = 4;
const BURST_DEPTH: usize = 12;
const BURST_INDEPENDENT: usize = 8;
const TASK_SLEEP: Duration = Duration::from_micros(500);

fn submit_burst(rt: &Runtime) {
    let chains: Vec<_> = (0..BURST_CHAINS).map(|_| rt.region(vec![0u64])).collect();
    for _ in 0..BURST_DEPTH {
        for r in &chains {
            rt.task().inout(r).spawn(move |_| {
                std::thread::sleep(TASK_SLEEP);
            });
        }
    }
    for _ in 0..BURST_INDEPENDENT {
        let r = rt.region(vec![0u64]);
        rt.task().output(&r).spawn(move |_| {
            std::thread::sleep(TASK_SLEEP);
        });
    }
}

/// Run a watch session, rendering frames into `out`. Factored off the
/// binary so tests drive it against a buffer.
pub fn run_watch(opts: &WatchOptions, out: &mut dyn Write) -> std::io::Result<WatchSummary> {
    let collector = Collector::new(Arc::new(Recorder::new(opts.workers)));
    let rt = Runtime::with_observer(opts.workers, 4, ShardCapacity::Unbounded, &collector);

    let mut live_frames = 0u32;
    for frame in 0..opts.frames {
        submit_burst(&rt);
        // Snapshot while the burst is still draining (each chain's
        // serial sleep time exceeds this), then dwell out the rest of
        // the frame; the collector ticks every 2 ms in between.
        let mid_burst = Duration::from_millis(5).min(opts.frame_interval);
        std::thread::sleep(mid_burst);
        let snap = collector.tracker();
        if snap.in_flight() > 0 {
            live_frames += 1;
        }
        let rates = collector.with_sampler(|s| s.rates()).unwrap_or_default();
        let text = render_dashboard(frame as u64, &snap, &rates, &collector.stats());
        if opts.ansi {
            // Clear screen + home, then the frame.
            write!(out, "\x1b[2J\x1b[H{text}")?;
        } else {
            writeln!(out, "{text}")?;
        }
        out.flush()?;
        std::thread::sleep(opts.frame_interval.saturating_sub(mid_burst));
    }

    // Quiesce: finish the submitted work, then stop the collector so
    // its final poll drains everything.
    rt.barrier();
    drop(rt);
    let report = collector.finish();
    let jsonl = report.sampler.as_ref().map(|s| s.to_jsonl());

    let snap = report.tracker.snapshot();
    let rates: Vec<(String, f64)> = Vec::new();
    let text = render_dashboard(opts.frames as u64, &snap, &rates, &report.stream);
    if opts.ansi {
        write!(out, "\x1b[2J\x1b[H{text}")?;
    } else {
        writeln!(out, "{text}")?;
    }
    writeln!(
        out,
        "\n[watch] final: {} tasks, {} finished, {} edges, {} violations, {} events ({} dropped)",
        snap.tasks_seen,
        snap.count(nexuspp_obs::TaskState::Finished),
        snap.edges,
        snap.violations,
        report.stream.released,
        report.stream.dropped,
    )?;

    if let Some(dir) = &opts.csv_dir {
        if let Some(jsonl) = jsonl {
            std::fs::create_dir_all(dir)?;
            let path = dir.join("metrics.jsonl");
            std::fs::write(&path, jsonl)?;
            writeln!(out, "[watch] wrote {}", path.display())?;
        }
    }
    out.flush()?;

    Ok(WatchSummary {
        frames: opts.frames,
        tasks_seen: snap.tasks_seen,
        finished: snap.count(nexuspp_obs::TaskState::Finished),
        edges: snap.edges,
        violations: snap.violations,
        live_frames,
        events_dropped: report.stream.dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_session_watches_a_live_run() {
        let mut buf = Vec::new();
        let opts = WatchOptions {
            csv_dir: None,
            ..WatchOptions::quick()
        };
        let summary = run_watch(&opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // Every burst finished by the final drain.
        let per_burst = (BURST_CHAINS * BURST_DEPTH + BURST_INDEPENDENT) as u64;
        assert_eq!(summary.tasks_seen, per_burst * opts.frames as u64);
        assert_eq!(summary.finished, summary.tasks_seen);
        assert_eq!(summary.violations, 0);
        assert!(summary.edges > 0, "chains must produce wake edges");
        assert_eq!(summary.events_dropped, 0);
        // The session was live: at least one frame caught work in
        // flight (bursts outlast the frame interval by construction).
        assert!(summary.live_frames > 0);

        // Plain (non-ANSI) mode: one header per frame plus the final
        // one, and no escape sequences.
        assert_eq!(
            text.matches("== nexus++ live ==").count(),
            opts.frames as usize + 1
        );
        assert!(!text.contains('\x1b'));
        assert!(text.contains("[watch] final:"));
    }

    #[test]
    fn csv_dir_gets_a_valid_metrics_jsonl() {
        let dir = std::env::temp_dir().join(format!("watch-test-{}", std::process::id()));
        let opts = WatchOptions {
            frames: 2,
            frame_interval: Duration::from_millis(40),
            csv_dir: Some(dir.clone()),
            ..WatchOptions::quick()
        };
        let mut buf = Vec::new();
        run_watch(&opts, &mut buf).unwrap();
        let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        assert!(!jsonl.trim().is_empty());
        for line in jsonl.lines() {
            nexuspp_obs::validate_json(line).expect("each sampler line is valid JSON");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
