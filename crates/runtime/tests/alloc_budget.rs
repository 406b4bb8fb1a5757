//! Heap allocations per task on the threaded path, counted by a
//! `#[global_allocator]` (so this file is its own test binary, with one
//! test: a second test running beside it would be counted too).
//!
//! A task on the threaded path allocates its body box and nothing else.
//! Its home record is a slot of its home shard's slab, which grows in
//! segments up to the shard's Task Pool bound; the parameter storage,
//! the route, the kick-off lists and every finish-side buffer live in
//! structures that outlive the task (the shard's recycled slice lists,
//! the Dependence Table, the engine, the worker's finish report). The
//! slab's growth, like theirs, is paid in the warm-up round. A task ready at
//! submission goes through the scheduler's injector, a locked FIFO over
//! a `VecDeque`, which allocates nothing per task. The budget adds
//! amortized growth of the scheduler's queues and of those structures on
//! top of the one block.
//!
//! The count is raw: every block allocated during a round is held
//! against the budget. Each shape runs a warm-up round, then counts two
//! rounds through the same runtime:
//!
//! * a **held** round holds every worker until the whole stream is
//!   submitted. The runtime admits at most a Task Pool (1024 tasks) per
//!   shard, so the stream cannot be resident all at once: the window
//!   fills, stays full, and the submitter, stalled on a full shard, runs
//!   the rest of the stream itself one ready task at a time (the
//!   warm-up, also held, has already paid for the window's growth);
//! * a **free-running** round lets the workers keep up with the
//!   submitter, so anywhere up to every task is ready at submission and
//!   goes through the injector.
//!
//! The share of tasks that went through the injector is reported beside
//! each reading.

use nexuspp_core::Submission;
use nexuspp_runtime::Runtime;
use nexuspp_trace::Param;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

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

/// The most a task may allocate on average: its body box, and amortized
/// queue and table growth.
const BUDGET: f64 = 1.3;

const WORKERS: usize = 2;

fn col(j: u64) -> u64 {
    0x10_0000 + j * 0x1000
}

/// Gaussian elimination over `n` columns, in serial order: the pivot
/// `T_ii` updates column `i`; `T_ji` reads column `i` and updates column
/// `j` (the paper's Table II shape; 20 099 tasks at `n = 200`).
fn gaussian(n: u64) -> Vec<Submission> {
    let mut subs = Vec::new();
    for i in 1..n {
        subs.push(vec![Param::inout(col(i), 8)]);
        for j in i + 1..=n {
            subs.push(vec![Param::input(col(i), 8), Param::inout(col(j), 8)]);
        }
    }
    tagged(subs)
}

/// `producers` independent writers of one cell each; every cell is read
/// by `consumers` tasks that fold it into the cell's own accumulator, in
/// a chain (10 000 tasks at 100 × 99).
fn fan_in(producers: u64, consumers: u64) -> Vec<Submission> {
    let mut subs = Vec::new();
    for p in 0..producers {
        subs.push(vec![Param::output(col(2 * p), 8)]);
        for _ in 0..consumers {
            subs.push(vec![
                Param::input(col(2 * p), 8),
                Param::inout(col(2 * p + 1), 8),
            ]);
        }
    }
    tagged(subs)
}

fn tagged(params: Vec<Vec<Param>>) -> Vec<Submission> {
    params
        .into_iter()
        .enumerate()
        .map(|(tag, params)| Submission::from((1, tag as u64, params)))
        .collect()
}

/// One round of `subs`, each with a body that captures its tag. With
/// `hold`, every worker is held by a parameterless task until the last
/// submission is in. The stream starts only once every worker has taken
/// its hold task, so a stalled submitter never runs one itself (it would
/// wait for its own last submission).
fn round(rt: &Runtime, subs: Vec<Submission>, hold: bool) {
    static HOLD: AtomicBool = AtomicBool::new(false);
    static HELD: AtomicUsize = AtomicUsize::new(0);
    HOLD.store(hold, Relaxed);
    if hold {
        HELD.store(0, Relaxed);
        for _ in 0..WORKERS {
            rt.spawn_lowered(Submission::from((1, 0, Vec::new())), || {
                HELD.fetch_add(1, Relaxed);
                while HOLD.load(Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        while HELD.load(Relaxed) < WORKERS {
            std::thread::yield_now();
        }
    }
    for sub in subs {
        let tag = sub.tag;
        rt.spawn_lowered(sub, move || {
            black_box(tag);
        });
    }
    HOLD.store(false, Relaxed);
    rt.barrier();
}

/// Allocations per task over one round of `subs` (built before the count
/// starts), and the share of tasks popped from the injector.
fn counted_round(rt: &Runtime, subs: Vec<Submission>, hold: bool) -> (f64, f64) {
    let n = subs.len() as f64;
    let injected = rt.sched_counts().injector_pops;
    let before = ALLOCATIONS.load(Relaxed);
    round(rt, subs, hold);
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    let injected = rt.sched_counts().injector_pops - injected;
    (allocations as f64 / n, injected as f64 / n)
}

#[test]
fn each_task_allocates_only_its_body_box() {
    type Shape = (&'static str, fn() -> Vec<Submission>);
    let shapes: [Shape; 2] = [
        ("gaussian(200)", || gaussian(200)),
        ("fan_in(100 x 99)", || fan_in(100, 99)),
    ];
    let mut rows = Vec::new();
    for shards in [1, 4] {
        for (name, shape) in shapes {
            let rt = Runtime::new(WORKERS, shards);
            round(&rt, shape(), true);
            for (mode, hold) in [("held", true), ("free-running", false)] {
                let subs = shape();
                rows.push((name, shards, mode, counted_round(&rt, subs, hold)));
            }
        }
    }
    let report: String = rows
        .iter()
        .map(|(name, shards, mode, (per_task, injected))| {
            format!(
                "{name} shards={shards} {mode}: {per_task:.2} allocations/task, \
                 {injected:.2} of tasks via the injector\n"
            )
        })
        .collect();
    println!("{report}");
    assert!(
        rows.iter()
            .all(|&(_, _, _, (per_task, _))| per_task <= BUDGET),
        "over the {BUDGET} budget:\n{report}"
    );
}
