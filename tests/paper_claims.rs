//! Cross-crate integration tests asserting the paper's claims as
//! reproducible properties. These are the "did we actually reproduce the
//! paper?" tests; README.md, "Reproducing the paper", lists each claim
//! beside the `repro` subcommand that renders it and its current reading.

use nexuspp::baseline::classic::classic_check_trace;
use nexuspp::baseline::ClassicLimits;
use nexuspp::hw::storage::{StorageBudget, StorageParams, TASK_SUPERSCALAR_BYTES};
use nexuspp::taskmachine::{simulate, simulate_trace, MachineConfig};
use nexuspp::workloads::{GaussianSpec, GridPattern, GridSpec};

/// §V headline: 54× / 143× / 221× within a ±40% band, with the right
/// ordering between the three configurations.
#[test]
fn headline_speedups_reproduce() {
    let trace = GridSpec::default().generate(GridPattern::Independent);
    let base = simulate_trace(MachineConfig::with_workers(1), &trace).unwrap();
    let s = |cfg: MachineConfig| {
        let r = simulate_trace(cfg, &trace).unwrap();
        base.makespan / r.makespan
    };
    let contended64 = s(MachineConfig::with_workers(64));
    let cf256 = s(MachineConfig::with_workers(256).contention_free());
    let noprep256 = s(MachineConfig::with_workers(256).contention_free().no_prep());

    assert!(
        (contended64 / 54.0 - 1.0).abs() < 0.4,
        "64-core contended speedup {contended64} vs paper 54"
    );
    assert!(
        (cf256 / 143.0 - 1.0).abs() < 0.4,
        "256-core contention-free speedup {cf256} vs paper 143"
    );
    assert!(
        (noprep256 / 221.0 - 1.0).abs() < 0.4,
        "no-prep speedup {noprep256} vs paper 221"
    );
    // Orderings the paper's argument depends on.
    assert!(cf256 > contended64 * 2.0, "contention must cap the curve");
    assert!(noprep256 > cf256 * 1.2, "task prep must limit the plateau");
}

/// §V: "double buffering increases the scalability of the system".
#[test]
fn double_buffering_wins() {
    let trace = GridSpec::default().generate(GridPattern::Wavefront);
    let mut single = MachineConfig::with_workers(16);
    single.buffering_depth = 1;
    let mut double = MachineConfig::with_workers(16);
    double.buffering_depth = 2;
    let r1 = simulate_trace(single, &trace).unwrap();
    let r2 = simulate_trace(double, &trace).unwrap();
    assert!(
        r1.makespan / r2.makespan > 1.2,
        "double buffering should hide the 7.5 µs memory time: {} vs {}",
        r1.makespan,
        r2.makespan
    );
}

/// Figure 7's qualitative content: horizontal ≪ vertical; the wavefront
/// is ramp-limited; independent scales furthest.
#[test]
fn figure7_shape() {
    let spec = GridSpec::default();
    let speedup_at = |pat: GridPattern, cores: usize| {
        let trace = spec.generate(pat);
        let base = simulate_trace(MachineConfig::with_workers(1), &trace).unwrap();
        let r = simulate_trace(MachineConfig::with_workers(cores), &trace).unwrap();
        base.makespan / r.makespan
    };
    let horizontal = speedup_at(GridPattern::Horizontal, 64);
    let vertical = speedup_at(GridPattern::Vertical, 64);
    let wavefront = speedup_at(GridPattern::Wavefront, 64);
    let independent = speedup_at(GridPattern::Independent, 64);

    assert!(
        vertical > horizontal * 2.0,
        "vertical ({vertical}) must dominate horizontal ({horizontal})"
    );
    assert!(
        horizontal < 20.0,
        "horizontal is window-limited: {horizontal}"
    );
    assert!(
        vertical > 30.0,
        "vertical scales well to 64 cores: {vertical}"
    );
    assert!(
        independent > wavefront,
        "the wavefront is ramp-limited vs independent"
    );
    // The ramp bound: 8160 / 306 ≈ 26.7 caps the wavefront.
    assert!(
        wavefront < 27.0,
        "wavefront cannot beat its avg parallelism"
    );
}

/// Figure 8's qualitative content: larger matrices scale further; small
/// ones saturate immediately (paper: 2.3× at 4 cores for n = 250).
#[test]
fn figure8_shape() {
    let speedup = |n: u32, cores: usize| {
        let spec = GaussianSpec::new(n);
        let mut src = spec.source();
        let base = simulate(MachineConfig::with_workers(1), &mut src).unwrap();
        let mut src = spec.source();
        let r = simulate(MachineConfig::with_workers(cores), &mut src).unwrap();
        base.makespan / r.makespan
    };
    let s250_4 = speedup(250, 4);
    let s250_64 = speedup(250, 64);
    let s1000_64 = speedup(1000, 64);
    assert!(
        (1.5..5.0).contains(&s250_4),
        "n=250 at 4 cores ≈ paper's 2.3×, got {s250_4}"
    );
    assert!(
        s250_64 < s250_4 * 1.5,
        "n=250 must saturate at few cores: {s250_4} → {s250_64}"
    );
    assert!(
        s1000_64 > s250_64 * 2.0,
        "bigger matrices scale further: {s1000_64} vs {s250_64}"
    );
}

/// §V storage: all tables and FIFO lists ≤ 210 KB; ≥ an order of
/// magnitude below Task Superscalar's 6.5 MB.
#[test]
fn storage_budget_claim() {
    let b = StorageBudget::compute(&StorageParams::default());
    assert!(b.total() <= 210 * 1024, "budget {} B", b.total());
    assert!(b.total() * 10 < TASK_SUPERSCALAR_BYTES);
}

/// §I/§V: Gaussian elimination cannot run on classic Nexus but runs on
/// Nexus++ — end to end through the Task Machine.
#[test]
fn gaussian_runs_on_nexuspp_not_on_classic() {
    // n = 500: the pivot-column fan-out reaches n−2 simultaneous waiters
    // when workers lag the master, far beyond any fixed kick-off list.
    let spec = GaussianSpec::new(500);
    // Classic rejects (kick-off fan-out exceeds any fixed list).
    let verdict = classic_check_trace(&spec.trace(), ClassicLimits::default(), 1024, 9);
    assert!(!verdict.supported);
    assert!(verdict.max_waiters_seen > 8);
    // Nexus++ executes it, absorbing the overflow with dummy entries.
    let mut src = spec.source();
    let r = simulate(MachineConfig::with_workers(8), &mut src).unwrap();
    assert_eq!(r.tasks, spec.task_count());
    assert!(
        r.table.ext_allocs > 100,
        "kick-off overflow must have required dummy entries (got {})",
        r.table.ext_allocs
    );
    assert_eq!(
        r.table.promotions, r.table.ext_allocs,
        "every dummy entry must eventually drain"
    );
    assert!(
        r.table.max_waiters_live > 100,
        "the fan-out should reach hundreds of waiters (got {})",
        r.table.max_waiters_live
    );
}

/// Table II, end to end: generated task counts equal the closed form and
/// the paper's numbers.
#[test]
fn table2_counts() {
    use nexuspp::trace::TraceSource;
    for (n, expect) in [(250u32, 31_374u64), (500, 125_249)] {
        let spec = GaussianSpec::new(n);
        assert_eq!(spec.task_count(), expect);
        let mut src = spec.source();
        let mut counted = 0;
        while src.next_task().is_some() {
            counted += 1;
        }
        assert_eq!(counted, expect);
    }
}

/// Figure 6's qualitative content: a 512-entry Task Pool already carries
/// 256 double-buffered cores; an undersized Dependence Table collapses.
#[test]
fn figure6_shape() {
    use nexuspp::core::NexusConfig;
    let trace = GridSpec::default().generate(GridPattern::Independent);
    let machine = |tp: usize, dt: usize| {
        let mut cfg = MachineConfig::with_workers(256).contention_free();
        cfg.nexus = NexusConfig {
            task_pool_entries: tp,
            dep_table_entries: dt,
            ..NexusConfig::default()
        };
        cfg
    };
    let base = simulate_trace(machine(8192, 8192), &trace).unwrap();
    let tp512 = simulate_trace(machine(512, 8192), &trace).unwrap();
    let tp128 = simulate_trace(machine(128, 8192), &trace).unwrap();
    let dt256 = simulate_trace(machine(8192, 256), &trace).unwrap();

    // TP = 512 ≈ full speed (cores × depth); TP = 128 clearly worse.
    let slow512 = tp512.makespan / base.makespan;
    assert!(slow512 < 1.10, "TP=512 should suffice: {slow512}");
    assert!(
        tp128.makespan > tp512.makespan,
        "TP=128 must throttle the window"
    );
    // A 256-entry DT cannot hold the live working set at full speed.
    assert!(
        dt256.makespan > base.makespan * 2,
        "DT=256 must collapse throughput: {} vs {}",
        dt256.makespan,
        base.makespan
    );
    assert!(dt256.check_deps.stalls > 0);
}
