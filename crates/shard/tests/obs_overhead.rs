//! The recording-overhead acceptance gates.
//!
//! 1. A **disabled** recorder threaded through the dispatcher must cost
//!    within noise of no recorder at all on the wake-stress workload —
//!    the no-op path is one branch on an `Option`, taken before any
//!    clock read or atomic. Gated at 5% (plus a small absolute slack so
//!    micro-runs on a noisy host don't flake the relative bound).
//! 2. **Enabled** recording observes the whole contended run: every
//!    event recorded, none dropped. (The dispatcher emits its events
//!    outside the shard locks, so a recorder adds no lock hold time.)
//! 3. A **live streaming collector** — a background thread draining the
//!    same rings while finishers emit — must cost ≤ 10% over enabled
//!    recording with a quiescent (post-run) drain. The producers' path
//!    is identical in both cases; the only added work is the collector
//!    thread's concurrent polling, so this bounds the price of *online*
//!    introspection relative to post-mortem recording. Measured with
//!    nonzero per-finish spin so the workload models real task bodies
//!    rather than a pure counter race.

use nexuspp_core::testsupport::with_watchdog;
use nexuspp_obs::{Collector, CollectorConfig, Recorder};
use nexuspp_shard::stress::{run_wake_stress_with, WakeStressSpec};
use std::sync::Arc;
use std::time::Duration;

const ROUNDS: usize = 5;

fn spec() -> WakeStressSpec {
    WakeStressSpec {
        finishers: 4,
        producers: 256,
        consumers_per: 64,
        shards: 4,
        spin_ns: 0,
    }
}

/// Best-of-N wall clock, interleaved with the competing configuration
/// by the caller so both see the same machine conditions.
fn timed(rec: Option<Arc<Recorder>>) -> Duration {
    run_wake_stress_with(&spec(), rec).elapsed
}

#[test]
fn disabled_recorder_overhead_within_five_percent() {
    let spec_check = spec();
    assert_eq!(spec_check.finishers, 4, "the gate is defined at 4 workers");
    // Warm-up: fault in both code paths before timing anything (the
    // harness asserts exactly-once retirement on each).
    timed(None);
    timed(Some(Arc::new(Recorder::disabled())));
    // Debug builds only exercise the path: the 5% bound is a wall-clock
    // ratio on optimized code — CI runs this gate with `--release` — and
    // tier-1 should fail on wrong, not on a slow neighbour.
    if cfg!(debug_assertions) {
        return;
    }
    let mut base = Duration::MAX;
    let mut with_disabled = Duration::MAX;
    for _ in 0..ROUNDS {
        base = base.min(timed(None));
        with_disabled = with_disabled.min(timed(Some(Arc::new(Recorder::disabled()))));
    }
    // 5% relative + 2ms absolute: the relative term is the gate, the
    // absolute term absorbs scheduler jitter when the whole run is a
    // few milliseconds.
    let bound = base.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        with_disabled <= bound,
        "disabled recorder overhead too high: baseline {base:?}, with disabled recorder \
         {with_disabled:?} (bound {bound:?})"
    );
}

#[test]
fn live_collector_overhead_within_ten_percent_of_quiescent_recording() {
    // Real task bodies: each finish spins for 25 µs, so the run is
    // dominated by work the collector cannot perturb and the bound
    // measures streaming overhead, not scheduler jitter amplified
    // through a microsecond-scale counter race. The tracker work the
    // collector performs is proportional to *events*, not wall time,
    // so on a single-CPU host (where its processing is pure added
    // serial time) the gate is a statement about task granularity:
    // tasks this coarse keep online introspection under 10%.
    let spec = WakeStressSpec {
        spin_ns: 25_000,
        ..spec()
    };
    let quiescent = || {
        let rec = Arc::new(Recorder::with_capacity(8, 1 << 17));
        let elapsed = run_wake_stress_with(&spec, Some(Arc::clone(&rec))).elapsed;
        let _ = rec.drain();
        elapsed
    };
    let live = || {
        // 5 ms polling: on a single-CPU host every collector wakeup
        // preempts a producer, so the poll cadence — not the event
        // volume — sets the overhead. 5 ms still gives tens of live
        // updates across the run.
        let collector = Collector::spawn(
            Arc::new(Recorder::with_capacity(8, 1 << 17)),
            CollectorConfig {
                interval: Duration::from_millis(5),
                ..CollectorConfig::default()
            },
        );
        let run = run_wake_stress_with(&spec, Some(collector.recorder()));
        let report = collector.finish();
        // The collector really streamed the run.
        assert!(report.stream.released > 0);
        run.elapsed
    };
    // Debug builds only exercise the path (the closures assert the
    // collector streamed): the 10%
    // bound is defined on optimized code — CI runs this gate with
    // `--release` — and an unoptimized tracker inflates the collector's
    // share of a single CPU far past what production runs pay.
    if cfg!(debug_assertions) {
        quiescent();
        live();
        return;
    }
    // Warm-up, then best-of-N interleaved so both configurations see
    // the same machine conditions.
    quiescent();
    live();
    let mut base = Duration::MAX;
    let mut streamed = Duration::MAX;
    for _ in 0..ROUNDS {
        base = base.min(quiescent());
        streamed = streamed.min(live());
    }
    // 10% relative + 3ms absolute: the relative term is the gate, the
    // absolute term absorbs thread spawn/join jitter on short runs.
    let bound = base.mul_f64(1.10) + Duration::from_millis(3);
    assert!(
        streamed <= bound,
        "live streaming collector overhead too high: quiescent recording {base:?}, \
         with live collector {streamed:?} (bound {bound:?})"
    );
}

#[test]
fn enabled_recording_drops_no_event() {
    with_watchdog(120, "recorded wake-stress storm", || {
        // Oversized rings: the submitting thread alone emits ~3 events
        // per task into one lane, and the gate below requires zero drops.
        let rec = Arc::new(Recorder::with_capacity(8, 1 << 17));
        run_wake_stress_with(&spec(), Some(Arc::clone(&rec)));
        // The run was actually observed: a live stream with no overflow.
        assert!(rec.recorded() > 0);
        assert_eq!(rec.dropped(), 0, "size the rings for the workload");
        let events = rec.drain();
        assert_eq!(events.len() as u64, rec.recorded());
    });
}
