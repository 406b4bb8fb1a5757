//! Heap allocations per task on the model drain, counted by a
//! `#[global_allocator]` (so this file is its own test binary, with one
//! test: a second test running beside it would be counted too).
//!
//! `run_on_engine` keeps at most a Task Pool of tasks in flight, submits
//! each lowered task by reference and retires into one kept finish
//! report. Its storage lives in structures that outlive a task: the
//! engine's home-record slots, the shards' recycled slice lists, the
//! Dependence Tables and the drain's own queues. Those grow to the
//! window's size and then stop, so a task allocates nothing and the
//! growth, spread over a long stream, stays well under the budget. The
//! returned order is one block, made once, and is not counted.

use nexuspp_frontend::exec::run_on_engine;
use nexuspp_frontend::{Lowering, Program};
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

/// The most a task may allocate on average: nothing, plus the window's
/// one-off growth spread over the stream.
const BUDGET: f64 = 0.1;

/// `chains` write-only version chains of `chain_len` writes each (under
/// `Raw`, each is a write chain far longer than the window), then a
/// halo stencil of `cells` cells advanced `steps` times, each step
/// reading the previous version of a cell and of its two neighbours.
fn program(chains: usize, chain_len: usize, cells: usize, steps: u32) -> Program {
    let mut p = Program::new();
    for c in 0..chains {
        let name = format!("chain{c}");
        for _ in 0..chain_len {
            p.task(0x10).writes(&name).submit().unwrap();
        }
    }
    let cell: Vec<String> = (0..cells).map(|i| format!("cell{i}")).collect();
    for name in &cell {
        p.resource(name);
    }
    for step in 1..=steps {
        for i in 0..cells {
            let mut t = p.task(0x11);
            for name in &cell[i.saturating_sub(1)..(i + 2).min(cells)] {
                t = t.reads_version(name, step - 1);
            }
            t.writes(&cell[i]).submit().unwrap();
        }
    }
    p
}

#[test]
fn the_model_drain_allocates_nothing_per_task() {
    // 64 × 1280 + 48 × 800 = 120 320 tasks: the window's one-off growth
    // is a few thousand blocks at 4 shards.
    let p = program(64, 1280, 48, 800);
    let n = p.tasks().len();
    let mut rows = Vec::new();
    for lowering in [Lowering::Renamed, Lowering::Raw] {
        let lp = p.lower(lowering).unwrap();
        for shards in [1, 4] {
            let before = ALLOCATIONS.load(Relaxed);
            let order = run_on_engine(&lp, shards);
            // The returned order is the one block the caller keeps.
            let allocations = ALLOCATIONS.load(Relaxed) - before - 1;
            assert_eq!(order.len(), n, "every task retired");
            assert!(lp.order_respects_edges(&order));
            rows.push((lowering.name(), shards, allocations as f64 / n as f64));
        }
    }
    let report: String = rows
        .iter()
        .map(|(lowering, shards, per_task)| {
            format!("{lowering} shards={shards}: {per_task:.4} allocations/task over {n} tasks\n")
        })
        .collect();
    println!("{report}");
    assert!(
        rows.iter().all(|&(_, _, per_task)| per_task <= BUDGET),
        "over the {BUDGET} budget:\n{report}"
    );
}
