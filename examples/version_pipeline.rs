//! Version pipeline: the resource-versioning frontend end to end.
//!
//! Declares a rename-heavy program (a buffer refilled in a loop plus a
//! halo-exchange stencil) by resource *names*, lowers it twice — once
//! renamed (each logical version gets its own address), once raw (every
//! version of a resource shares one address, as a hand-addressed
//! encoding that reuses buffers would) — and shows what renaming buys:
//! the same task set, the same true dependencies, but a fraction of the
//! critical path and a multiple of the available parallelism.
//!
//! ```sh
//! cargo run --release --example version_pipeline
//! ```

use nexuspp::frontend::{Lowering, Program};
use nexuspp::runtime::Runtime;
use nexuspp::workloads::analysis::parallelism_profile;
use nexuspp::workloads::VersionStressSpec;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // ------------------------------------------------------------------
    // Part 1 — declaring a program by named resources.
    // ------------------------------------------------------------------
    let mut p = Program::new();
    p.resource("frame");
    for pass in 0..4u64 {
        // Each pass reads the previous version and mints the next.
        p.task(0x100 + pass).read_writes("frame").submit().unwrap();
    }
    // An archival task pinned to the *initial* contents: under renaming
    // it can run immediately, concurrent with every refinement pass.
    p.task(0x200)
        .reads_version("frame", 0)
        .writes("archive")
        .submit()
        .unwrap();

    for lowering in [Lowering::Renamed, Lowering::Raw] {
        let lp = p.lower(lowering).unwrap();
        println!(
            "{:>7}: {} tasks, {} true edges, first addr {:#x}",
            lowering.name(),
            lp.tasks.len(),
            lp.edges.len(),
            lp.tasks[0].params[0].addr
        );
    }

    // ------------------------------------------------------------------
    // Part 2 — what renaming buys, structurally.
    // ------------------------------------------------------------------
    let spec = VersionStressSpec::renaming_heavy();
    println!(
        "\nversion-stress ({} chain writes + {} stencil tasks):",
        spec.chains * spec.chain_len,
        spec.cells * spec.steps
    );
    for lowering in [Lowering::Renamed, Lowering::Raw] {
        let profile = parallelism_profile(&spec.trace(lowering));
        println!(
            "  {:>7}: critical path {:>3} rounds | avg parallelism {:>6.1} | peak {:>4}",
            lowering.name(),
            profile.critical_path(),
            profile.avg_parallelism(),
            profile.max_parallelism()
        );
    }

    // ------------------------------------------------------------------
    // Part 3 — what renaming buys, measured on real threads.
    // ------------------------------------------------------------------
    // A single version chain: strictly serial raw, fully parallel
    // renamed. Each task sleeps 2 ms; 4 workers race through both.
    println!("\nexecuting a 16-deep version chain on 4 workers (2 ms/task):");
    for lowering in [Lowering::Renamed, Lowering::Raw] {
        let lp = VersionStressSpec::single_chain(16).lowered(lowering);
        let rt = Runtime::new(4, 2);
        let in_flight = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let start = Instant::now();
        for sub in lp.tasks.iter().cloned() {
            let (in_flight, peak) = (Arc::clone(&in_flight), Arc::clone(&peak));
            rt.spawn_lowered(sub, move || {
                let now = in_flight.fetch_add(1, Ordering::AcqRel) + 1;
                peak.fetch_max(now, Ordering::AcqRel);
                std::thread::sleep(Duration::from_millis(2));
                in_flight.fetch_sub(1, Ordering::AcqRel);
            });
        }
        rt.barrier();
        println!(
            "  {:>7}: wall {:>6.1} ms | peak executed width {}",
            lowering.name(),
            start.elapsed().as_secs_f64() * 1e3,
            peak.load(Ordering::Acquire)
        );
    }
}
