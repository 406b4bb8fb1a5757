//! Runtime-level stress drivers shared by the test suites and the bench
//! harness, so the DAG a deadlock test proves and the DAG an experiment
//! measures cannot drift apart.

use crate::region::Region;
use crate::Runtime;
use std::time::{Duration, Instant};

/// Drive the capacity-stress DAG shape (the region-level twin of
/// `nexuspp_workloads::CapacityStressSpec`): one root task fans out
/// `chains` serial `inout` chains of length `chain_len`, spawned
/// round-robin across chains by depth so resident demand spans every
/// chain at once — on a bounded runtime the submitter parks over and
/// over, which is exactly the stall/retry hot path.
///
/// Blocks to quiescence, panics if any chain lost or duplicated a task,
/// and returns the wall-clock from first spawn to quiescence.
pub fn drive_capacity_stress(rt: &Runtime, chains: u32, chain_len: u32) -> Duration {
    let root: Region<u64> = rt.region(vec![0]);
    let cells: Vec<Region<u64>> = (0..chains).map(|_| rt.region(vec![0u64])).collect();
    let t0 = Instant::now();
    {
        let root = root.clone();
        rt.task().output(&root).spawn(move |t| {
            t.write(&root)[0] = 1;
        });
    }
    for depth in 0..chain_len {
        for cell in &cells {
            let cell2 = cell.clone();
            if depth == 0 {
                let root = root.clone();
                rt.task().input(&root).inout(cell).spawn(move |t| {
                    t.write(&cell2)[0] += 1;
                });
            } else {
                rt.task().inout(cell).spawn(move |t| {
                    t.write(&cell2)[0] += 1;
                });
            }
        }
    }
    rt.barrier();
    let elapsed = t0.elapsed();
    for cell in &cells {
        assert_eq!(
            rt.with_data(cell, |v| v[0]),
            chain_len as u64,
            "a chain lost or duplicated tasks"
        );
    }
    elapsed
}
