//! Heap allocations per task on the service path, counted by a
//! `#[global_allocator]` (so this file is its own test binary, with one
//! test: a second test running beside it would be counted too).
//!
//! A client builds a service task from two blocks: its parameter `Vec`
//! and its job box. The job box is the one the runtime stores and runs,
//! and the task carries its tenant, so the runtime settles the tenant's
//! credit at retirement without a block of its own. What the service
//! adds per task is amortized growth of the lane queue, the scheduler's
//! queues and the shard structures, which the warm-up round pays for.
//! The tasks of a round are built before its count starts, so the count
//! is the service's own blocks, on top of the client's two.
//!
//! Each round sends 20 000 single-`inout` tasks over 64 addresses
//! through `submit_blocking` into a 2-worker, 4-shard service whose one
//! tenant may have 64 tasks in flight, then waits until every task has
//! run and retired.

use nexuspp_core::TaskBuilder;
use nexuspp_service::{ResolverService, ServiceConfig, ServiceTask, TenantId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
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

/// The most blocks the service may allocate per task on average, on top
/// of the client's two. (Before the credit was settled at retirement,
/// every admission re-boxed the job with a credit guard: 1.00-1.03.)
const BUDGET: f64 = 0.3;

const TASKS: u64 = 20_000;
const TENANT: TenantId = TenantId(1);

/// Bodies that have run, across rounds.
static RAN: AtomicU64 = AtomicU64::new(0);

/// One round's tasks: an `inout` on one of 64 addresses each, so most
/// wait for the previous task on their address.
fn tasks() -> Vec<ServiceTask> {
    (0..TASKS)
        .map(|tag| {
            let sub = TaskBuilder::new(1)
                .tag(tag)
                .read_writes(0x1000 + (tag % 64) * 64, 8)
                .build();
            ServiceTask::new(sub, move || {
                black_box(tag);
                RAN.fetch_add(1, Relaxed);
            })
        })
        .collect()
}

/// Send one round and wait until every task has run and retired (its
/// credit settled); returns the blocks allocated per task meanwhile.
fn round(svc: &ResolverService) -> f64 {
    let tasks = tasks();
    let handle = svc.handle(TENANT).expect("registered");
    let target = RAN.load(Relaxed) + TASKS;
    let before = ALLOCATIONS.load(Relaxed);
    for task in tasks {
        handle.submit_blocking(task).expect("the service is open");
    }
    while RAN.load(Relaxed) < target {
        std::thread::yield_now();
    }
    svc.runtime().barrier();
    (ALLOCATIONS.load(Relaxed) - before) as f64 / TASKS as f64
}

#[test]
fn a_service_task_costs_only_the_clients_blocks() {
    let svc = ResolverService::start(ServiceConfig::new(2, 4).tenant(TENANT, 64));
    round(&svc);
    let readings: Vec<f64> = (0..2).map(|_| round(&svc)).collect();
    let report = svc.shutdown();
    assert!(report.graceful);
    assert_eq!(report.runtime.executed, 3 * TASKS);
    println!("service blocks per task, beyond the client's two: {readings:.2?}");
    assert!(
        readings.iter().all(|&r| r <= BUDGET),
        "over the {BUDGET} budget: {readings:.2?}"
    );
}
