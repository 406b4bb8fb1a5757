//! Behavioral tests of the Task Machine: timing composition, pipelining,
//! buffering, contention, backpressure, determinism and error reporting.

use nexuspp_core::NexusConfig;
use nexuspp_desim::SimTime;
use nexuspp_hw::{MemoryConfig, MemoryMode};
use nexuspp_taskmachine::{simulate_trace, MachineConfig, SimError};
use nexuspp_trace::{MemCost, Param, TaskRecord, Trace};

fn task(id: u64, params: Vec<Param>, exec_us: u64) -> TaskRecord {
    TaskRecord {
        id,
        fptr: 0xF,
        params,
        exec: SimTime::from_us(exec_us),
        read: MemCost::None,
        write: MemCost::None,
    }
}

fn independent(n: u64, exec_us: u64) -> Trace {
    Trace::from_tasks(
        "ind",
        (0..n)
            .map(|i| task(i, vec![Param::inout(0x10_0000 + i * 64, 16)], exec_us))
            .collect(),
    )
}

fn chain(n: u64, exec_us: u64) -> Trace {
    Trace::from_tasks(
        "chain",
        (0..n)
            .map(|i| {
                let mut p = vec![Param::output(0x20_0000 + i * 64, 16)];
                if i > 0 {
                    p.push(Param::input(0x20_0000 + (i - 1) * 64, 16));
                }
                task(i, p, exec_us)
            })
            .collect(),
    )
}

#[test]
fn empty_trace_completes_instantly() {
    let r = simulate_trace(MachineConfig::with_workers(4), &Trace::new("empty")).unwrap();
    assert_eq!(r.tasks, 0);
    assert_eq!(r.makespan, SimTime::ZERO);
}

#[test]
fn single_task_timing_composition() {
    // One task, one worker: makespan = prep + submission + maestro
    // pipeline + exec (+ no memory). All components are deterministic.
    let tr = Trace::from_tasks("one", vec![task(0, vec![Param::inout(0x1000, 16)], 10)]);
    let r = simulate_trace(MachineConfig::with_workers(1), &tr).unwrap();
    assert_eq!(r.tasks, 1);
    // Lower bound: prep 30 ns + submission (6+1 cycles = 14 ns) + exec 10 µs.
    assert!(r.makespan > SimTime::from_us(10));
    assert!(
        r.makespan < SimTime::from_us(11),
        "pipeline overhead should be well under 1 µs: {}",
        r.makespan
    );
    assert_eq!(r.worker_exec, SimTime::from_us(10));
}

#[test]
fn independent_tasks_scale_almost_linearly() {
    let tr = independent(400, 10);
    let m1 = simulate_trace(MachineConfig::with_workers(1), &tr).unwrap();
    let m8 = simulate_trace(MachineConfig::with_workers(8), &tr).unwrap();
    let m32 = simulate_trace(MachineConfig::with_workers(32), &tr).unwrap();
    let s8 = m1.makespan / m8.makespan;
    let s32 = m1.makespan / m32.makespan;
    assert!(s8 > 7.2, "8-worker speedup {s8}");
    assert!(s32 > 24.0, "32-worker speedup {s32}");
}

#[test]
fn chains_do_not_scale() {
    let tr = chain(100, 10);
    let m1 = simulate_trace(MachineConfig::with_workers(1), &tr).unwrap();
    let m8 = simulate_trace(MachineConfig::with_workers(8), &tr).unwrap();
    let s = m1.makespan / m8.makespan;
    assert!(s < 1.1, "a serial chain cannot speed up: {s}");
}

#[test]
fn deterministic_across_runs() {
    let tr = independent(300, 7);
    let a = simulate_trace(MachineConfig::with_workers(16), &tr).unwrap();
    let b = simulate_trace(MachineConfig::with_workers(16), &tr).unwrap();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
}

#[test]
fn double_buffering_hides_memory_latency() {
    // Tasks with substantial input-fetch time: with depth 1 the core waits
    // for each fetch; with depth 2 fetches overlap execution.
    let tasks: Vec<TaskRecord> = (0..200)
        .map(|i| TaskRecord {
            id: i,
            fptr: 1,
            params: vec![Param::inout(0x1000 + i * 64, 16)],
            exec: SimTime::from_us(10),
            read: MemCost::Time(SimTime::from_us(8)),
            write: MemCost::None,
        })
        .collect();
    let tr = Trace::from_tasks("mem-heavy", tasks);
    let mut single = MachineConfig::with_workers(4);
    single.buffering_depth = 1;
    let mut double = MachineConfig::with_workers(4);
    double.buffering_depth = 2;
    let r1 = simulate_trace(single, &tr).unwrap();
    let r2 = simulate_trace(double, &tr).unwrap();
    let gain = r1.makespan / r2.makespan;
    assert!(
        gain > 1.5,
        "double buffering should overlap 8 µs fetches with 10 µs exec: {gain}"
    );
}

#[test]
fn memory_contention_throttles_many_cores() {
    // 64 workers × long memory phases vs 4 bank slots.
    let tasks: Vec<TaskRecord> = (0..600)
        .map(|i| TaskRecord {
            id: i,
            fptr: 1,
            params: vec![Param::inout(0x1000 + i * 64, 16)],
            exec: SimTime::from_us(2),
            read: MemCost::Time(SimTime::from_us(6)),
            write: MemCost::Time(SimTime::from_us(2)),
        })
        .collect();
    let tr = Trace::from_tasks("contended", tasks);
    let mut tight = MachineConfig::with_workers(64);
    tight.memory = MemoryConfig {
        mode: MemoryMode::Contended { slots: 4 },
        ..MemoryConfig::default()
    };
    let free = MachineConfig::with_workers(64).contention_free();
    let r_tight = simulate_trace(tight, &tr).unwrap();
    let r_free = simulate_trace(free, &tr).unwrap();
    assert!(
        r_tight.makespan > r_free.makespan * 2,
        "4 slots must throttle: {} vs {}",
        r_tight.makespan,
        r_free.makespan
    );
    assert!(r_tight.mem_queued > 0);
    assert_eq!(r_free.mem_queued, 0);
}

#[test]
fn task_too_large_is_reported() {
    let params: Vec<Param> = (0..100)
        .map(|i| Param::output(0x9000 + i * 64, 8))
        .collect();
    let tr = Trace::from_tasks("huge", vec![task(0, params, 1)]);
    let mut cfg = MachineConfig::with_workers(1);
    cfg.nexus = NexusConfig {
        task_pool_entries: 4,
        ..NexusConfig::default()
    };
    match simulate_trace(cfg, &tr) {
        Err(SimError::TaskTooLarge {
            task,
            needed,
            capacity,
        }) => {
            assert_eq!(task, 0);
            assert!(needed > capacity);
        }
        other => panic!("expected TaskTooLarge, got {other:?}"),
    }
}

#[test]
fn tiny_task_pool_backpressures_but_completes() {
    let tr = independent(200, 3);
    let mut cfg = MachineConfig::with_workers(4);
    cfg.nexus = NexusConfig {
        task_pool_entries: 8,
        ..NexusConfig::default()
    };
    let r = simulate_trace(cfg, &tr).unwrap();
    assert_eq!(r.tasks, 200);
    assert!(r.pool.peak_occupancy <= 8);
}

#[test]
fn tiny_dependence_table_stalls_but_completes() {
    // 3 live addresses at a time (chain of inout on rotating addresses):
    // a 4-entry table forces Check Deps stalls yet must not deadlock.
    let tasks: Vec<TaskRecord> = (0..100)
        .map(|i| {
            task(
                i,
                vec![
                    Param::inout(0x1000 + (i % 3) * 64, 16),
                    Param::input(0x5000 + (i % 2) * 64, 16),
                ],
                1,
            )
        })
        .collect();
    let tr = Trace::from_tasks("rotate", tasks);
    let mut cfg = MachineConfig::with_workers(2);
    cfg.nexus = NexusConfig {
        dep_table_entries: 4,
        ..NexusConfig::default()
    };
    let r = simulate_trace(cfg, &tr).unwrap();
    assert_eq!(r.tasks, 100);
}

#[test]
fn wavefront_order_respected_with_memory() {
    // A 2-wide dependency ladder with byte-volume memory costs exercises
    // the Bytes→time path end to end.
    let mut tasks = Vec::new();
    for i in 0..50u64 {
        let mut p = vec![Param::inout(0x1000 + i * 64, 64)];
        if i >= 2 {
            p.push(Param::input(0x1000 + (i - 2) * 64, 64));
        }
        tasks.push(TaskRecord {
            id: i,
            fptr: 1,
            params: p,
            exec: SimTime::from_ns(500),
            read: MemCost::Bytes(1024),
            write: MemCost::Bytes(512),
        });
    }
    let tr = Trace::from_tasks("ladder", tasks);
    let r = simulate_trace(MachineConfig::with_workers(4), &tr).unwrap();
    assert_eq!(r.tasks, 50);
    // Two independent chains → speedup bounded by 2. It lands below that
    // because every chain step exposes the Maestro wake-up latency
    // (HandleFinished → Schedule → SendTDs → input fetch), which the
    // single-worker baseline hides behind double buffering.
    let r1 = simulate_trace(MachineConfig::with_workers(1), &tr).unwrap();
    let s = r1.makespan / r.makespan;
    assert!(s <= 2.05, "ladder parallelism is 2, got {s}");
    assert!(s > 1.25, "ladder should approach 2×, got {s}");
}

#[test]
fn master_stalls_counted_with_tiny_sizes_list() {
    let tr = independent(300, 0); // zero-exec tasks: master outruns nothing
    let mut cfg = MachineConfig::with_workers(1);
    cfg.lists.tds_sizes = 2;
    cfg.lists.tds_buffer = 2;
    let r = simulate_trace(cfg, &tr).unwrap();
    assert_eq!(r.tasks, 300);
    // Backpressure chain: a tiny Task Pool wedges Write TP behind slow
    // 10 µs tasks, the TDs lists fill, and the master must stall ("If this
    // list is full, the Master Core stalls").
    let tr2 = independent(300, 10);
    let mut cfg2 = MachineConfig::with_workers(1);
    cfg2.lists.tds_sizes = 2;
    cfg2.lists.tds_buffer = 2;
    cfg2.nexus = NexusConfig {
        task_pool_entries: 4,
        ..NexusConfig::default()
    };
    let r2 = simulate_trace(cfg2, &tr2).unwrap();
    assert!(r2.master_stalls > 0);
    assert!(
        r2.write_tp.stalls > 0,
        "Write TP must have hit the full pool"
    );
    assert_eq!(r2.tasks, 300);
}

#[test]
fn no_prep_reduces_makespan_for_fine_tasks() {
    let tr = independent(2000, 0);
    let with_prep = simulate_trace(MachineConfig::with_workers(16), &tr).unwrap();
    let without = simulate_trace(MachineConfig::with_workers(16).no_prep(), &tr).unwrap();
    assert!(
        without.makespan < with_prep.makespan,
        "removing 30 ns/task prep must help fine-grained submission"
    );
}

#[test]
fn shared_bus_slows_submission_pipeline() {
    let tr = independent(2000, 0);
    let separate = simulate_trace(MachineConfig::with_workers(16), &tr).unwrap();
    let mut shared_cfg = MachineConfig::with_workers(16);
    shared_cfg.shared_bus = true;
    let shared = simulate_trace(shared_cfg, &tr).unwrap();
    assert!(
        shared.makespan >= separate.makespan,
        "bus serialization cannot speed things up"
    );
}

#[test]
fn report_accounting_consistent() {
    let tr = independent(100, 5);
    let r = simulate_trace(MachineConfig::with_workers(8), &tr).unwrap();
    assert_eq!(r.tasks, 100);
    assert_eq!(r.write_tp.ops, 100);
    assert_eq!(r.check_deps.ops, 100);
    assert_eq!(r.schedule.ops, 100);
    assert_eq!(r.send_tds.ops, 100);
    assert_eq!(r.handle_fin.ops, 100);
    assert_eq!(r.worker_exec, SimTime::from_us(500));
    assert!(r.worker_utilization() > 0.0 && r.worker_utilization() <= 1.0);
    assert!(r.tasks_per_us() > 0.0);
    // The pool never exceeds the in-flight window.
    assert!(r.pool.peak_occupancy <= 1024);
}

#[test]
fn fast_independent_queue_speeds_up_paramless_tasks() {
    // Parameterless tasks: the future-work bypass skips Check Deps.
    let tasks: Vec<TaskRecord> = (0..3000)
        .map(|i| TaskRecord {
            id: i,
            fptr: 1,
            params: Vec::new(),
            exec: SimTime::from_ns(200),
            read: MemCost::None,
            write: MemCost::None,
        })
        .collect();
    let tr = Trace::from_tasks("paramless", tasks);
    let normal = simulate_trace(MachineConfig::with_workers(32).no_prep(), &tr).unwrap();
    let mut fast_cfg = MachineConfig::with_workers(32).no_prep();
    fast_cfg.fast_independent_queue = true;
    let fast = simulate_trace(fast_cfg, &tr).unwrap();
    assert_eq!(fast.tasks, 3000);
    assert_eq!(
        fast.check_deps.ops, 0,
        "bypass must skip Check Deps entirely"
    );
    assert!(
        fast.makespan < normal.makespan,
        "bypass should shorten the pipeline: {} vs {}",
        fast.makespan,
        normal.makespan
    );
}

#[test]
fn fast_queue_does_not_affect_dependent_tasks() {
    // Tasks WITH parameters must take the normal path even when the fast
    // queue is enabled — and results must be identical.
    let tr = chain(60, 5);
    let mut fast_cfg = MachineConfig::with_workers(4);
    fast_cfg.fast_independent_queue = true;
    let normal = simulate_trace(MachineConfig::with_workers(4), &tr).unwrap();
    let fast = simulate_trace(fast_cfg, &tr).unwrap();
    assert_eq!(fast.makespan, normal.makespan);
    assert_eq!(fast.check_deps.ops, 60);
}

#[test]
fn progress_curve_shows_wavefront_ramp() {
    use nexuspp_workloads::{GridPattern, GridSpec};
    let tr = GridSpec::default().generate(GridPattern::Wavefront);
    let r = simulate_trace(MachineConfig::with_workers(64), &tr).unwrap();
    let rates = r.completion_rates();
    assert!(rates.len() > 20, "need enough samples: {}", rates.len());
    // The completion rate mid-run must clearly exceed the rate in the
    // first and last stretches (the ramp in the time domain).
    let mid = rates[rates.len() / 2].1;
    let head = rates[1].1;
    let tail = rates[rates.len() - 1].1;
    assert!(
        mid > head * 1.5 && mid > tail * 1.5,
        "ramp not visible: head {head:.3}, mid {mid:.3}, tail {tail:.3} tasks/us"
    );
    // Samples are monotone in both time and count.
    for w in r.progress.windows(2) {
        assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
    }
}

/// Exact simulated results on fixed traces. The simulators are pure
/// functions of their inputs, so any change to the event order, the
/// arbitration, the table probe or a block's timing shows here as a
/// different number; a change that only makes the host faster must leave
/// every one of them as it is.
#[test]
fn simulated_results_are_pinned() {
    use nexuspp_core::ShardCapacity;
    use nexuspp_taskmachine::{simulate_sharded, MultiMaestroConfig};
    use nexuspp_workloads::{GaussianSpec, VideoSpec};

    let video = VideoSpec::new(2).generate();
    assert_eq!(video.len(), 16_320);
    let r = simulate_trace(MachineConfig::with_workers(16), &video).unwrap();
    assert_eq!(r.makespan.ps(), 13_774_730_995);
    assert_eq!(r.events, 163_200);
    assert_eq!(r.master_stalls, 13_475);

    let free = simulate_sharded(MultiMaestroConfig::with_shards(4), &video);
    assert_eq!(free.makespan.ps(), 24_309_385_587);
    assert_eq!(free.crossbar_grants, 80_610);
    let bounded = simulate_sharded(
        MultiMaestroConfig::with_capacity(4, ShardCapacity::Bounded(4)),
        &video,
    );
    assert_eq!(bounded.makespan.ps(), 181_833_515_248);
    assert_eq!(bounded.master_capacity_stalls, 13_156);

    // A tight machine: small pool, a Dependence Table whose length is
    // not a power of two, and 2-slot Kick-Off Lists that chain dummy
    // entries.
    let mut tight = MachineConfig::with_workers(8);
    tight.nexus = NexusConfig {
        task_pool_entries: 64,
        dep_table_entries: 96,
        kickoff_entries: 2,
        ..NexusConfig::default()
    };
    let r = simulate_trace(tight, &video).unwrap();
    assert_eq!(r.makespan.ps(), 151_048_291_703);
    assert_eq!(r.check_deps.stalls, 16_138);

    let gauss = GaussianSpec::new(60).trace();
    assert_eq!(gauss.len(), 1_829);
    let r = simulate_trace(MachineConfig::with_workers(16), &gauss).unwrap();
    assert_eq!(r.makespan.ps(), 116_678_500);
    assert_eq!(r.events, 18_290);
    let m = simulate_sharded(MultiMaestroConfig::with_shards(4), &gauss);
    assert_eq!(m.makespan.ps(), 55_084_500);
    assert_eq!(m.crossbar_grants, 4_012);
    assert_eq!(m.shard_wake_peak, [10, 9, 9, 13]);
    assert_eq!(m.shard_wakes_delivered, [101, 72, 52, 140]);
}

#[test]
fn master_stalls_show_in_the_fifo_peaks() {
    // The master stalls on a full `TDs Sizes` list or a full `TDs
    // Buffer`, so a run that stalled it must report one of the two at
    // capacity. (`Worker Cores IDs` starts full, so it proves nothing.)
    // On the video stream the 16-entry buffer fills long before the
    // 1024-entry sizes list.
    let video = nexuspp_workloads::VideoSpec::new(1).generate();
    let r = simulate_trace(MachineConfig::with_workers(16), &video).unwrap();
    assert!(r.master_stalls > 0, "the video stream outruns the Maestro");
    assert!(
        r.fifo_peaks
            .iter()
            .any(|&(name, peak, cap)| name.starts_with("TDs") && peak == cap),
        "{} master stalls but no listed TDs list filled: {:?}",
        r.master_stalls,
        r.fifo_peaks
    );
}
