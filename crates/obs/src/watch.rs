//! Text dashboard rendering for `repro -- watch`.
//!
//! Pure functions from online-observability state
//! ([`TrackerSnapshot`], sampler rates, [`StreamStats`]) to a text
//! frame — no I/O, no timers, so the renderer is unit-testable and the
//! driver (in `nexuspp-bench`) owns all terminal concerns (ANSI clear
//! vs. plain append, frame pacing, duration bounds).

use crate::analyze::LatencyStats;
use crate::stream::StreamStats;
use crate::tracker::{TaskState, TrackerSnapshot};

/// Human-scale nanoseconds: `532ns`, `1.4us`, `12.0ms`, `3.1s`.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k/s", r / 1e3)
    } else {
        format!("{r:.0}/s")
    }
}

fn stage_row(out: &mut String, name: &str, s: &LatencyStats) {
    out.push_str(&format!(
        "  {name:<15} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
        s.count,
        fmt_ns(s.p50_ns),
        fmt_ns(s.p90_ns),
        fmt_ns(s.p99_ns),
        fmt_ns(s.max_ns),
    ));
}

/// Render one dashboard frame.
///
/// `frame` is a running frame counter, `rates` the sampler's
/// [`rates`](crate::Sampler::rates) output (empty slice before two
/// samples exist).
pub fn render_dashboard(
    frame: u64,
    snap: &TrackerSnapshot,
    rates: &[(String, f64)],
    stats: &StreamStats,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== nexus++ live == frame {frame} | events {} released, {} pending, {} dropped\n",
        stats.released, stats.pending, stats.dropped
    ));
    out.push_str(&format!(
        "   tasks {} seen, {} in flight | wake edges {} | idle workers {} | violations {}\n",
        snap.tasks_seen,
        snap.in_flight(),
        snap.edges,
        snap.idle_parked,
        snap.violations,
    ));

    out.push_str("  state       live\n");
    for s in TaskState::ALL {
        out.push_str(&format!("  {:<10} {:>6}\n", s.name(), snap.count(s)));
    }

    out.push_str("  stage             count       p50       p90       p99       max\n");
    let st = &snap.stages;
    stage_row(&mut out, "submit->ready", &st.submit_to_ready);
    stage_row(&mut out, "ready->start", &st.ready_to_start);
    stage_row(&mut out, "start->done", &st.start_to_done);
    stage_row(&mut out, "done->finish", &st.done_to_finish);

    if !snap.per_shard_inflight.is_empty() {
        out.push_str("  shard in-flight:");
        for (s, c) in &snap.per_shard_inflight {
            if *s == crate::event::NO_SHARD {
                out.push_str(&format!(" -:{c}"));
            } else {
                out.push_str(&format!(" {s}:{c}"));
            }
        }
        out.push('\n');
    }
    if !snap.per_worker_running.is_empty() {
        out.push_str("  worker running: ");
        for (w, c) in &snap.per_worker_running {
            out.push_str(&format!(" {w}:{c}"));
        }
        out.push('\n');
    }

    // Rates: show the busiest counters first, drop the zeros.
    let mut busy: Vec<&(String, f64)> = rates.iter().filter(|(_, r)| *r > 0.0).collect();
    busy.sort_by(|a, b| b.1.total_cmp(&a.1));
    if !busy.is_empty() {
        out.push_str("  rates:");
        for (name, r) in busy.iter().take(6) {
            out.push_str(&format!(" {name} {}", fmt_rate(*r)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_000_000), "2.0ms");
        assert_eq!(fmt_ns(3_100_000_000), "3.1s");
    }

    #[test]
    fn dashboard_renders_every_state_and_stage() {
        let mut state_counts = [0u64; 7];
        state_counts[TaskState::Running as usize] = 3;
        let snap = TrackerSnapshot {
            tasks_seen: 10,
            state_counts,
            per_shard_inflight: vec![(0, 2), (crate::event::NO_SHARD, 1)],
            per_worker_running: vec![(0, 1), (1, 2)],
            ..TrackerSnapshot::default()
        };
        let rates = vec![
            ("tasks.completed".to_string(), 1234.0),
            ("idle.zero".to_string(), 0.0),
        ];
        let stats = StreamStats {
            released: 50,
            pending: 2,
            recorded: 52,
            dropped: 0,
            history_len: 50,
        };
        let frame = render_dashboard(7, &snap, &rates, &stats);
        for s in TaskState::ALL {
            assert!(frame.contains(s.name()), "missing {}", s.name());
        }
        for stage in [
            "submit->ready",
            "ready->start",
            "start->done",
            "done->finish",
        ] {
            assert!(frame.contains(stage), "missing {stage}");
        }
        assert!(frame.contains("frame 7"));
        assert!(frame.contains("50 released"));
        assert!(frame.contains("tasks.completed 1.2k/s"));
        assert!(!frame.contains("idle.zero"));
        assert!(frame.contains(" -:1"), "NO_SHARD row renders as '-'");
    }
}
