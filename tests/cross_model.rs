//! Consistency between the independent models: the hardware simulation,
//! the ideal scheduler, the software-RTS model and the threaded runtime
//! must tell one coherent story.

use nexuspp::baseline::ideal::ideal_makespan_overlapped;
use nexuspp::baseline::{ideal_makespan, simulate_software_rts, SoftwareRtsConfig};
use nexuspp::desim::SimTime;
use nexuspp::hw::MemoryConfig;
use nexuspp::taskmachine::{simulate_trace, MachineConfig, SimError};
use nexuspp::trace::{format, MemCost, Param, TaskRecord, Trace};
use nexuspp::workloads::{GridPattern, GridSpec};
use nexuspp_bench::experiments::rts;
use nexuspp_bench::ExpOptions;

/// The overlapped ideal scheduler lower-bounds the hardware model's
/// makespan on every workload: perfect prefetching hides all memory time,
/// so no machine configuration can beat it.
#[test]
fn ideal_lower_bounds_machine() {
    for pat in GridPattern::all() {
        let trace = GridSpec::small(24, 16).generate(pat);
        for cores in [1usize, 4, 16] {
            let mut src = trace.clone().into_source();
            let bound = ideal_makespan_overlapped(&mut src, cores);
            let r = simulate_trace(MachineConfig::with_workers(cores).contention_free(), &trace)
                .unwrap();
            assert!(
                r.makespan >= bound,
                "{} at {cores} cores: machine {} < overlapped ideal {}",
                pat.name(),
                r.makespan,
                bound
            );
            // And the overhead is bounded: within 3× of the exec-only
            // bound for these coarse-grained tasks (dependency chains
            // expose the un-hideable wake + fetch latency).
            assert!(
                r.makespan < bound * 3,
                "{} at {cores} cores: overhead blew up ({} vs {})",
                pat.name(),
                r.makespan,
                bound
            );
        }
    }
}

/// Hardware task management beats the software RTS wherever the software
/// master is the bottleneck (the reason Nexus/Nexus++ exist): the
/// registry's `rts.sw-over-hw16` and `rts.sw-over-hw64` claims.
#[test]
fn hardware_beats_software_rts() {
    let e = rts(&ExpOptions {
        quick: true,
        ..ExpOptions::default()
    });
    assert!(e.failures.is_empty(), "{:#?}", e.failures);
    assert!(e.unevaluated().is_empty(), "{:?}", e.unevaluated());
}

/// A serial dependency chain bounds every model identically: makespan ≥
/// Σ exec along the chain, regardless of core count.
#[test]
fn chain_critical_path_respected_everywhere() {
    let n = 40u64;
    let exec = SimTime::from_us(2);
    let tasks: Vec<TaskRecord> = (0..n)
        .map(|i| {
            let mut p = vec![Param::output(0x1000 + i * 64, 8)];
            if i > 0 {
                p.push(Param::input(0x1000 + (i - 1) * 64, 8));
            }
            TaskRecord {
                id: i,
                fptr: 1,
                params: p,
                exec,
                read: MemCost::None,
                write: MemCost::None,
            }
        })
        .collect();
    let trace = Trace::from_tasks("chain", tasks);
    let bound = exec * n;

    let r = simulate_trace(MachineConfig::with_workers(8), &trace).unwrap();
    assert!(r.makespan >= bound);

    let mut src = trace.clone().into_source();
    assert!(ideal_makespan(&mut src, 8, &MemoryConfig::default()) >= bound);

    let mut src = trace.clone().into_source();
    assert!(
        simulate_software_rts(
            &mut src,
            8,
            &SoftwareRtsConfig::default(),
            &MemoryConfig::default()
        ) >= bound
    );
}

/// Traces survive serialization and simulate identically afterwards.
#[test]
fn trace_roundtrip_preserves_simulation() {
    let trace = GridSpec::small(12, 10).generate(GridPattern::Wavefront);
    let text = format::trace_to_string(&trace);
    let back = format::trace_from_str(&text).unwrap();
    assert_eq!(trace, back);
    let a = simulate_trace(MachineConfig::with_workers(4), &trace).unwrap();
    let b = simulate_trace(MachineConfig::with_workers(4), &back).unwrap();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
}

/// Full determinism across repeated runs of every model.
#[test]
fn everything_is_deterministic() {
    let trace = GridSpec::default().generate(GridPattern::Wavefront);
    let m1 = simulate_trace(MachineConfig::with_workers(32), &trace).unwrap();
    let m2 = simulate_trace(MachineConfig::with_workers(32), &trace).unwrap();
    assert_eq!(m1.makespan, m2.makespan);
    assert_eq!(m1.table.inserts, m2.table.inserts);

    let mem = MemoryConfig::default();
    let mut s1 = trace.clone().into_source();
    let mut s2 = trace.clone().into_source();
    assert_eq!(
        ideal_makespan(&mut s1, 32, &mem),
        ideal_makespan(&mut s2, 32, &mem)
    );
}

/// The error path is part of the contract: an impossible task is reported,
/// not silently mangled.
#[test]
fn oversized_task_reported_not_hung() {
    use nexuspp::core::NexusConfig;
    let params: Vec<Param> = (0..64).map(|i| Param::output(0x9000 + i * 64, 8)).collect();
    let trace = Trace::from_tasks(
        "huge",
        vec![TaskRecord {
            id: 0,
            fptr: 1,
            params,
            exec: SimTime::from_us(1),
            read: MemCost::None,
            write: MemCost::None,
        }],
    );
    let mut cfg = MachineConfig::with_workers(2);
    cfg.nexus = NexusConfig {
        task_pool_entries: 4,
        ..NexusConfig::default()
    };
    match simulate_trace(cfg, &trace) {
        Err(SimError::TaskTooLarge {
            needed, capacity, ..
        }) => {
            assert!(needed > capacity);
        }
        other => panic!("expected TaskTooLarge, got {other:?}"),
    }
}

/// Dummy-task descriptors flow through the whole machine: a >8-parameter
/// workload completes on the default configuration and allocates chained
/// descriptors.
#[test]
fn dummy_tasks_through_the_machine() {
    let trace = nexuspp::workloads::stress::wide_params(64, 20, 2_000);
    let r = simulate_trace(MachineConfig::with_workers(4), &trace).unwrap();
    assert_eq!(r.tasks, 64);
    assert_eq!(r.pool.dummy_tds_allocated, 2 * 64, "20 params → 3 TDs each");
}
