//! Heap allocations of an edit and of a re-run on the threaded runtime,
//! counted by a `#[global_allocator]` (so this file is its own test
//! binary, with one test: a second test running beside it would be
//! counted too).
//!
//! A seed-only edit dirties the readers of the edited resource and
//! copies nothing else, so it allocates a handful of blocks whatever the
//! program's size. A re-run keeps its runtime between calls and gives
//! each write one slot in a block shared by the whole run, so a re-run
//! task allocates its memo record, its submission's parameter list and
//! the runtime's own per-task blocks (the body box and the task's home
//! record), plus a share of the run's few shared blocks.

use nexuspp_core::Priority;
use nexuspp_frontend::Lowering;
use nexuspp_incr::{Access, Backend, Edit, IncrementalProgram};
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

/// The most a one-cell seed-only `edit_batch` may allocate.
const EDIT_BUDGET: u64 = 16;

/// The most a re-run may allocate per re-run task, on average.
const RERUN_BUDGET: f64 = 8.0;

const CELLS: u32 = 100;
const STEPS: u32 = 10;

/// Blocks allocated while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Relaxed);
    let r = f();
    (r, ALLOCATIONS.load(Relaxed) - before)
}

fn cell(i: u32) -> String {
    format!("cell{i}")
}

/// The 1000-task halo stencil: the task for `(i, t)` pins version
/// `t - 1` of cells `i - 1 ..= i + 1` and writes cell `i`.
fn stencil() -> IncrementalProgram {
    let mut edits = Vec::new();
    for t in 1..=STEPS {
        for i in 0..CELLS {
            let mut accesses: Vec<Access> = (i.saturating_sub(1)..(i + 2).min(CELLS))
                .map(|j| Access::ReadVersion(cell(j), t - 1))
                .collect();
            accesses.push(Access::Write(cell(i)));
            edits.push(Edit::AddTask {
                key: u64::from(t * CELLS + i),
                fptr: 0x5000 + u64::from(i % 7) * 0x10,
                priority: Priority::Normal,
                accesses,
            });
        }
    }
    let mut ip = IncrementalProgram::new();
    ip.edit_batch(edits).expect("the stencil is acyclic");
    ip
}

/// `count` seed edits on evenly spaced cells, seeds varied by `round`.
fn seeds(count: u32, round: u64) -> Vec<Edit> {
    (0..count)
        .map(|k| Edit::SetInitial {
            resource: cell(k * CELLS / count + (round as u32 % 7)),
            seed: 1 + round * 131 + u64::from(k),
        })
        .collect()
}

#[test]
fn edits_and_reruns_stay_inside_their_allocation_budgets() {
    let backend = Backend::Runtime {
        workers: 2,
        shards: 4,
    };
    let mut ip = stencil();
    let first = ip.rerun(Lowering::Renamed, &backend);
    assert_eq!(first.reran, (CELLS * STEPS) as usize);

    let mut report = String::new();
    let mut worst_edit = 0;
    for (cells, rounds) in [(1, 20), (10, 10)] {
        let (mut blocks, mut tasks) = (0, 0);
        for round in 0..rounds {
            let edits = seeds(cells, round);
            let ((), edit) = counted(|| ip.edit_batch(edits).expect("seed edits commit"));
            if cells == 1 {
                worst_edit = worst_edit.max(edit);
            }
            let (r, rerun) = counted(|| ip.rerun(Lowering::Renamed, &backend));
            assert!(r.reran > 0, "a fresh seed dirties its cone");
            blocks += rerun;
            tasks += r.reran as u64;
        }
        let per_task = blocks as f64 / tasks as f64;
        report.push_str(&format!(
            "{cells}-cell edits: {per_task:.2} blocks per re-run task over {tasks} tasks\n"
        ));
        assert!(
            per_task <= RERUN_BUDGET,
            "over the {RERUN_BUDGET} budget:\n{report}"
        );
    }
    report.push_str(&format!("worst one-cell edit_batch: {worst_edit} blocks\n"));
    println!("{report}");
    assert!(
        worst_edit <= EDIT_BUDGET,
        "over the {EDIT_BUDGET}-block edit budget:\n{report}"
    );
}
