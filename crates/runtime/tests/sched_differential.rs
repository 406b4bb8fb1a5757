//! Differential tests of the ready-task scheduler at the runtime level:
//! the work-stealing scheduler must execute exactly the declared task
//! set — no lost execution, no duplicated execution, no dependency-order
//! violation — across thread counts {1, 2, 4, 8}, at one resolver shard
//! and at four, and random DAGs must produce the contents a sequential
//! fold of the same operations produces.
//!
//! Execution logs are gathered by the tasks themselves: every task
//! appends its global id to a shared log and checks, inside its body,
//! that the region it consumes holds exactly the value its dependency
//! predecessor must have produced (a dependency-order violation is
//! caught at the task that observes it, not inferred from final state).

use nexuspp_core::testsupport::with_watchdog;
use nexuspp_runtime::Runtime;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SHARDS: [usize; 2] = [1, 4];

/// Outcome of one chain-workload run: the execution log (global task
/// ids, in observed completion order) plus the final chain values.
struct RunLog {
    log: Vec<u64>,
    finals: Vec<u64>,
}

/// The steal-stress shape on real regions: `chains` × `chain_len`
/// inout-serialized chains plus a fan-out root. Task (c, i) asserts its
/// chain cell holds `i` before writing `i + 1`, so any dependency-order
/// violation panics inside the violating task and surfaces at the
/// barrier.
fn run_chains(rt: &Runtime, chains: u64, chain_len: u64) -> RunLog {
    let log = Arc::new(Mutex::new(Vec::new()));
    let root = rt.region(vec![0u64]);
    let cells: Vec<_> = (0..chains).map(|_| rt.region(vec![0u64])).collect();
    {
        let (root, log) = (root.clone(), Arc::clone(&log));
        rt.task().output(&root).spawn(move |t| {
            t.write(&root)[0] = 7;
            log.lock().unwrap().push(0);
        });
    }
    for (c, cell) in cells.iter().enumerate() {
        for i in 0..chain_len {
            let id = 1 + c as u64 * chain_len + i;
            let (cell, log) = (cell.clone(), Arc::clone(&log));
            if i == 0 {
                let (root, cell2) = (root.clone(), cell.clone());
                rt.task().input(&root).inout(&cell).spawn(move |t| {
                    assert_eq!(t.read(&root)[0], 7, "head ran before root");
                    let mut v = t.write(&cell2);
                    assert_eq!(v[0], 0, "chain head must run first");
                    v[0] = 1;
                    log.lock().unwrap().push(id);
                });
            } else {
                let cell2 = cell.clone();
                rt.task().inout(&cell).spawn(move |t| {
                    let mut v = t.write(&cell2);
                    assert_eq!(v[0], i, "dependency order violated in chain");
                    v[0] = i + 1;
                    log.lock().unwrap().push(id);
                });
            }
        }
    }
    rt.barrier();
    let finals = cells.iter().map(|c| rt.with_data(c, |v| v[0])).collect();
    let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    RunLog { log, finals }
}

fn check_run(log: RunLog, chains: u64, chain_len: u64, what: &str) {
    let total = 1 + chains * chain_len;
    assert_eq!(log.log.len() as u64, total, "{what}: wrong execution count");
    let set: HashSet<u64> = log.log.iter().copied().collect();
    assert_eq!(
        set,
        (0..total).collect::<HashSet<u64>>(),
        "{what}: executed set is not the declared task set"
    );
    assert_eq!(
        log.finals,
        vec![chain_len; chains as usize],
        "{what}: lost or misordered chain task"
    );
}

fn schedulers_execute_identical_task_sets(shards: usize) {
    const CHAINS: u64 = 6;
    const LEN: u64 = 60;
    for workers in THREADS {
        let rt = Runtime::new(workers, shards);
        let run = run_chains(&rt, CHAINS, LEN);
        check_run(run, CHAINS, LEN, &format!("{shards} shards/{workers}w"));
    }
}

#[test]
fn schedulers_execute_identical_task_sets_on_single_engine_runtime() {
    schedulers_execute_identical_task_sets(1);
}

#[test]
fn schedulers_execute_identical_task_sets_on_sharded_runtime() {
    schedulers_execute_identical_task_sets(4);
}

/// Random DAGs, differentially: the same seeded random task graph runs
/// at both shard counts; dataflow semantics make results
/// schedule-independent, so every run must produce the region contents
/// of the sequential fold — and every task must run exactly once.
#[derive(Debug, Clone)]
struct RandomOp {
    dst: usize,
    src: usize,
    add: u64,
    high: bool,
}

fn random_ops(regions: usize) -> impl Strategy<Value = Vec<RandomOp>> {
    proptest::collection::vec(
        (0..regions, 0..regions, 1u64..100, proptest::bool::ANY).prop_map(
            |(dst, src, add, high)| RandomOp {
                dst,
                src,
                add,
                high,
            },
        ),
        1..40,
    )
}

/// The reference: apply `ops` in program order on plain cells.
fn fold_random(ops: &[RandomOp], regions: usize) -> Vec<u64> {
    let mut cells: Vec<u64> = (0..regions as u64).collect();
    for op in ops {
        let s = if op.src == op.dst { 0 } else { cells[op.src] };
        cells[op.dst] = cells[op.dst].wrapping_mul(3).wrapping_add(s + op.add);
    }
    cells
}

fn run_random(ops: &[RandomOp], workers: usize, shards: usize, regions: usize) -> Vec<u64> {
    let rt = Runtime::new(workers, shards);
    let regs: Vec<_> = (0..regions).map(|i| rt.region(vec![i as u64])).collect();
    let ran = Arc::new(AtomicU64::new(0));
    for op in ops {
        let (dst, src) = (regs[op.dst].clone(), regs[op.src].clone());
        let add = op.add;
        let ran = Arc::clone(&ran);
        let mut b = rt.task().inout(&regs[op.dst]);
        if op.src != op.dst {
            b = b.input(&regs[op.src]);
        }
        if op.high {
            b = b.high_priority();
        }
        b.spawn(move |t| {
            let s = if src.id() == dst.id() {
                0
            } else {
                t.read(&src)[0]
            };
            let mut d = t.write(&dst);
            d[0] = d[0].wrapping_mul(3).wrapping_add(s + add);
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    rt.barrier();
    assert_eq!(ran.load(Ordering::SeqCst) as usize, ops.len());
    regs.iter().map(|r| rt.with_data(r, |v| v[0])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_dags_agree_across_schedulers(ops in random_ops(5)) {
        let reference = fold_random(&ops, 5);
        for workers in [2usize, 4] {
            for shards in SHARDS {
                let got = run_random(&ops, workers, shards, 5);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{} workers, {} shards diverged from serial reference",
                    workers,
                    shards
                );
            }
        }
    }
}

#[test]
fn steal_stress_chains_record_steals_and_shut_down_cleanly() {
    // The imbalanced shape at 4 workers over 4 shards: the
    // worker that retires the root wakes every chain head onto its own
    // queue, so other workers can only contribute by stealing. Task
    // bodies busy-spin long enough that the run spans many OS quanta
    // (required for sibling workers to be scheduled at all on a
    // single-CPU host). Retried because steal timing is inherently OS
    // dependent.
    let spin = std::time::Duration::from_micros(5);
    let mut counts = None;
    for _attempt in 0..3 {
        let rt = Runtime::new(4, 4);
        let root = rt.region(vec![0u64]);
        let cells: Vec<_> = (0..8).map(|_| rt.region(vec![0u64])).collect();
        {
            let root = root.clone();
            rt.task().output(&root).spawn(move |t| {
                t.write(&root)[0] = 1;
            });
        }
        for cell in &cells {
            for i in 0..400u64 {
                let cell2 = cell.clone();
                if i == 0 {
                    let root = root.clone();
                    rt.task().input(&root).inout(cell).spawn(move |t| {
                        let t0 = std::time::Instant::now();
                        while t0.elapsed() < spin {
                            std::hint::spin_loop();
                        }
                        t.write(&cell2)[0] += 1;
                    });
                } else {
                    rt.task().inout(cell).spawn(move |t| {
                        let t0 = std::time::Instant::now();
                        while t0.elapsed() < spin {
                            std::hint::spin_loop();
                        }
                        t.write(&cell2)[0] += 1;
                    });
                }
            }
        }
        rt.barrier();
        for cell in &cells {
            assert_eq!(rt.with_data(cell, |v| v[0]), 400);
        }
        let c = rt.sched_counts();
        drop(rt); // clean shutdown: every worker joins
        if c.steals > 0 {
            return;
        }
        counts = Some(c);
    }
    panic!("work-stealing runtime never stole under imbalance: {counts:?}");
}

#[test]
fn parked_workers_wake_for_late_work_and_shut_down() {
    with_watchdog(
        30,
        "parked_workers_wake_for_late_work_and_shut_down",
        || {
            for shards in SHARDS {
                let rt = Runtime::new(8, shards);
                let r = rt.region(vec![0u64]);
                {
                    let r = r.clone();
                    rt.task().inout(&r).spawn(move |t| {
                        t.write(&r)[0] += 1;
                    });
                }
                rt.barrier();
                // All eight workers idle and park. Late work must still be
                // picked up.
                std::thread::sleep(std::time::Duration::from_millis(30));
                {
                    let r = r.clone();
                    rt.task().inout(&r).spawn(move |t| {
                        t.write(&r)[0] += 1;
                    });
                }
                rt.barrier();
                assert_eq!(rt.with_data(&r, |v| v[0]), 2);
                assert!(rt.sched_counts().parks > 0, "idle workers should park");
                drop(rt); // must join parked workers cleanly
            }
        },
    );
}
