//! Heap allocations per simulated task in both hardware simulators,
//! counted by a `#[global_allocator]` (so this file is its own test
//! binary, with one test: a second test running beside it would be
//! counted too).
//!
//! A simulated task is a handful of events, and neither simulator
//! allocates for one. The single-Maestro machine moves each trace
//! record's parameter list into the Task Pool and keeps one buffer for
//! `Handle Finished`'s wake list. The multi-Maestro model refills one kept
//! submission, and each phase slot keeps its member list and its finish
//! report for the next operation it holds. What is left is each run's
//! setup and the growth of its tables and queues, spread over the stream.

use nexuspp_taskmachine::{simulate, simulate_sharded, MachineConfig, MultiMaestroConfig};
use nexuspp_trace::Trace;
use nexuspp_workloads::VideoSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting every block it hands out (a `realloc`
/// counts as one).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most a simulated task may allocate on average: nothing, plus the
/// run's setup and queue growth spread over the stream.
const BUDGET: f64 = 0.1;

/// Blocks allocated by one single-Maestro run at `workers` cores. The
/// source is built before counting starts: its records are the trace's,
/// not the simulator's.
fn single(trace: &Trace, workers: usize) -> u64 {
    let mut source = trace.clone().into_source();
    let before = ALLOCATIONS.load(Relaxed);
    let report = simulate(MachineConfig::with_workers(workers), &mut source).unwrap();
    let blocks = ALLOCATIONS.load(Relaxed) - before;
    assert_eq!(report.tasks, trace.len() as u64);
    blocks
}

/// Blocks allocated by one multi-Maestro run at `shards` shards.
fn sharded(trace: &Trace, shards: usize) -> u64 {
    let before = ALLOCATIONS.load(Relaxed);
    let report = simulate_sharded(MultiMaestroConfig::with_shards(shards), trace);
    let blocks = ALLOCATIONS.load(Relaxed) - before;
    assert_eq!(report.tasks, trace.len() as u64);
    blocks
}

#[test]
fn the_simulators_allocate_nothing_per_task() {
    // Warm-up: anything lazily initialized once per process.
    let warm = VideoSpec::new(1).generate();
    single(&warm, 16);
    sharded(&warm, 4);
    // Eight frames, 65 280 tasks. A run's setup and the growth of its
    // tables and queues to the in-flight peak cost a few thousand blocks
    // whatever the trace's length: ≈ 0.07 a task at this length for the
    // sharded model's four tables.
    let trace = VideoSpec::new(8).generate();
    let n = trace.len() as f64;
    let rows = [
        ("simulate workers=16", single(&trace, 16)),
        ("simulate_sharded shards=4", sharded(&trace, 4)),
    ];
    let report: String = rows
        .iter()
        .map(|(run, blocks)| {
            format!(
                "{run}: {:.4} allocations/task over {n} tasks\n",
                *blocks as f64 / n
            )
        })
        .collect();
    println!("{report}");
    assert!(
        rows.iter().all(|&(_, blocks)| blocks as f64 / n <= BUDGET),
        "over the {BUDGET} budget:\n{report}"
    );
}
