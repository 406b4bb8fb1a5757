//! Heap allocations per task in the frontend and on the model drain,
//! counted by a `#[global_allocator]` (so this file is its own test
//! binary, with one test: a second test running beside it would be
//! counted too).
//!
//! Declaring resolves each name when the builder call is made and keeps
//! every task's accesses in the program's flat vectors, so a task adds
//! nothing of its own: what is counted is those vectors' growth, spread
//! over the program. Lowering gives each task one parameter block of
//! exactly its length; the graph, the task list and the edge list are a
//! few blocks per program.
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

/// The most a declared or drained task may allocate on average:
/// nothing, plus the growth of storage it shares, spread over the
/// program.
const BUDGET: f64 = 0.1;

/// The most a lowered task may allocate on average: its parameter
/// block, plus the program's few.
const LOWER_BUDGET: f64 = 1.1;

/// `chains` write-only version chains of `chain_len` writes each (under
/// `Raw`, each is a write chain far longer than the window), then a
/// halo stencil of `cells` cells advanced `steps` times, each step
/// reading the previous version of a cell and of its two neighbours.
struct Shape {
    chains: Vec<String>,
    chain_len: usize,
    cells: Vec<String>,
    steps: u32,
}

impl Shape {
    fn new(chains: usize, chain_len: usize, cells: usize, steps: u32) -> Shape {
        Shape {
            chains: (0..chains).map(|c| format!("chain{c}")).collect(),
            chain_len,
            cells: (0..cells).map(|i| format!("cell{i}")).collect(),
            steps,
        }
    }

    /// Declare the program; the names are made beforehand, so what this
    /// allocates is the frontend's.
    fn declare(&self) -> Program {
        let mut p = Program::new();
        for name in &self.chains {
            for _ in 0..self.chain_len {
                p.task(0x10).writes(name).submit().unwrap();
            }
        }
        let cells = &self.cells;
        for name in cells {
            p.resource(name);
        }
        for step in 1..=self.steps {
            for i in 0..cells.len() {
                let mut t = p.task(0x11);
                for name in &cells[i.saturating_sub(1)..(i + 2).min(cells.len())] {
                    t = t.reads_version(name, step - 1);
                }
                t.writes(&cells[i]).submit().unwrap();
            }
        }
        p
    }
}

/// Blocks allocated while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Relaxed);
    let out = f();
    (ALLOCATIONS.load(Relaxed) - before, out)
}

#[test]
fn declaring_lowering_and_draining_stay_within_their_heap_budgets() {
    // 64 × 1280 + 48 × 800 = 120 320 tasks: the window's one-off growth
    // is a few thousand blocks at 4 shards.
    let shape = Shape::new(64, 1280, 48, 800);
    let (declared, p) = counted(|| shape.declare());
    let n = p.tasks().len();
    let per_task = |blocks: u64| blocks as f64 / n as f64;
    let mut rows = vec![("declare".to_string(), per_task(declared), BUDGET)];
    for lowering in [Lowering::Renamed, Lowering::Raw] {
        let (lowered, lp) = counted(|| p.lower(lowering).unwrap());
        let name = lowering.name();
        rows.push((format!("lower {name}"), per_task(lowered), LOWER_BUDGET));
        assert!(
            lp.tasks
                .iter()
                .all(|t| t.params.capacity() == t.params.len()),
            "{name}: every parameter block is exactly its length"
        );
        for shards in [1, 4] {
            let (drained, order) = counted(|| run_on_engine(&lp, shards));
            // The returned order is the one block the caller keeps.
            rows.push((
                format!("{name} shards={shards}"),
                per_task(drained - 1),
                BUDGET,
            ));
            assert_eq!(order.len(), n, "every task retired");
            assert!(lp.order_respects_edges(&order));
        }
    }
    let report: String = rows
        .iter()
        .map(|(what, per_task, budget)| {
            format!("{what}: {per_task:.4} allocations/task over {n} tasks (budget {budget})\n")
        })
        .collect();
    println!("{report}");
    assert!(
        rows.iter().all(|&(_, per_task, budget)| per_task <= budget),
        "over budget:\n{report}"
    );
}
