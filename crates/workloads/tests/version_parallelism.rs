//! The *measured* renaming claim: on a real 4-worker
//! [`Runtime`], the renamed lowering of a version chain executes
//! with at least twice the observed concurrency of the raw lowering.
//!
//! The workload is [`VersionStressSpec::single_chain`] — the starkest
//! shape: raw is strictly serial (every task WAW-chained through one
//! address), renamed is fully independent. Each task body holds an
//! in-flight counter across a sleep; the high-water mark of that
//! counter is the executed width. Raw *must* measure exactly 1 (the
//! dependence chain forbids overlap — any higher reading is a
//! correctness bug, not noise); renamed, with 12 ready tasks on 4
//! workers and a generous sleep, reliably overlaps ≥ 2.

use nexuspp_frontend::Lowering;
use nexuspp_runtime::Runtime;
use nexuspp_workloads::VersionStressSpec;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn measured_width(lowering: Lowering) -> u32 {
    let lp = VersionStressSpec::single_chain(12).lowered(lowering);
    let rt = Runtime::new(4, 2);
    let in_flight = Arc::new(AtomicU32::new(0));
    let high_water = Arc::new(AtomicU32::new(0));
    for sub in lp.tasks.iter().cloned() {
        let (in_flight, high_water) = (Arc::clone(&in_flight), Arc::clone(&high_water));
        rt.spawn_lowered(sub, move || {
            let now = in_flight.fetch_add(1, Ordering::AcqRel) + 1;
            high_water.fetch_max(now, Ordering::AcqRel);
            std::thread::sleep(Duration::from_millis(10));
            in_flight.fetch_sub(1, Ordering::AcqRel);
        });
    }
    rt.barrier();
    high_water.load(Ordering::Acquire)
}

#[test]
fn renamed_chain_doubles_measured_executed_width() {
    let raw = measured_width(Lowering::Raw);
    assert_eq!(raw, 1, "raw WAW chain must never overlap");
    let renamed = measured_width(Lowering::Renamed);
    assert!(
        renamed >= 2 * raw,
        "renamed width {renamed} vs raw width {raw}: renaming must at least double"
    );
}
