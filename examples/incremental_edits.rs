//! Incremental re-execution: edit a program, re-run only the fallout.
//!
//! Builds a small image pipeline as an editable `IncrementalProgram`,
//! runs it from scratch, then applies a sequence of edits — a changed
//! input, a retargeted task, a removed stage — and shows per edit what
//! the incremental layer re-executed versus spliced from the memo
//! store, and how many tasks + edges the structural commits ordered
//! (the frontend's order, recomputed at each structural commit; 0 for
//! a seed-only edit). Finishes with the 1000-task stencil the
//! benchmarks use, contrasting from-scratch and 1-edit wall clock.
//!
//! ```sh
//! cargo run --release --example incremental_edits
//! ```

use nexuspp::frontend::Lowering;
use nexuspp::incr::{Access, Backend, Edit, IncrementalProgram};
use nexuspp::workloads::IncrStencilSpec;
use std::time::Instant;

fn report(label: &str, rep: &nexuspp::incr::IncrReport) {
    println!(
        "  {label:<28} reran {:>3} | reused {:>3} | cone {:>3} | ordered {}",
        rep.reran, rep.reused, rep.dirtied, rep.order_maintenance_ops
    );
}

fn main() {
    // ------------------------------------------------------------------
    // Part 1 — an editable pipeline: in -> blur -> sharpen -> stats,
    //          plus an independent thumbnail stage.
    // ------------------------------------------------------------------
    let mut ip = IncrementalProgram::new();
    let stages: [(u64, u64, &str, &str); 3] = [
        (1, 0x10, "in", "blurred"),
        (2, 0x11, "blurred", "sharp"),
        (3, 0x12, "sharp", "stats"),
    ];
    for (key, fptr, src, dst) in stages {
        ip.edit(Edit::AddTask {
            key,
            fptr,
            priority: Default::default(),
            accesses: vec![Access::Read(src.into()), Access::Write(dst.into())],
        })
        .unwrap();
    }
    ip.edit(Edit::AddTask {
        key: 4,
        fptr: 0x13,
        priority: Default::default(),
        accesses: vec![Access::Read("in".into()), Access::Write("thumb".into())],
    })
    .unwrap();

    let backend = Backend::Engine { shards: 2 };
    println!("pipeline (4 tasks):");
    report(
        "first run (from scratch)",
        &ip.rerun(Lowering::Renamed, &backend),
    );

    // A changed input dirties everything downstream of "in"...
    ip.edit(Edit::SetInitial {
        resource: "in".into(),
        seed: 7,
    })
    .unwrap();
    report(
        "edit: new input contents",
        &ip.rerun(Lowering::Renamed, &backend),
    );

    // ...but retargeting the thumbnail to read the sharpened image
    // re-runs only the thumbnail.
    ip.edit(Edit::Retarget {
        key: 4,
        accesses: vec![Access::Read("sharp".into()), Access::Write("thumb".into())],
    })
    .unwrap();
    report(
        "edit: retarget thumbnail",
        &ip.rerun(Lowering::Renamed, &backend),
    );

    // A cycle-creating edit is rejected before anything mutates: stats
    // sits downstream of task 1 (blur -> sharpen -> stats), so pinning
    // task 1 to the minted "stats" version closes a loop.
    let err = ip
        .edit(Edit::Retarget {
            key: 1,
            accesses: vec![
                Access::ReadVersion("stats".into(), 1),
                Access::Write("blurred".into()),
            ],
        })
        .unwrap_err();
    println!("  rejected at declaration time: {err}");
    report(
        "after rejected edit (no-op)",
        &ip.rerun(Lowering::Renamed, &backend),
    );

    // Removing the sharpen stage rebinds its readers; only the rebound
    // consumers re-run.
    ip.edit(Edit::RemoveTask { key: 2 }).unwrap();
    report(
        "edit: remove sharpen stage",
        &ip.rerun(Lowering::Renamed, &backend),
    );

    // ------------------------------------------------------------------
    // Part 2 — the benchmark stencil: 100 cells x 10 steps.
    // ------------------------------------------------------------------
    let spec = IncrStencilSpec::thousand();
    let mut ip = spec.build();
    let backend = Backend::Engine { shards: 4 };

    let t0 = Instant::now();
    let full = ip.rerun(Lowering::Renamed, &backend);
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    ip.edit_batch(spec.touch_edits(1, 1)).unwrap();
    let t1 = Instant::now();
    let one = ip.rerun(Lowering::Renamed, &backend);
    let one_ms = t1.elapsed().as_secs_f64() * 1e3;

    println!("\nstencil ({} tasks):", spec.task_count());
    println!("  from scratch: {:>4} reran, {full_ms:>7.2} ms", full.reran);
    println!(
        "  1-cell edit:  {:>4} reran, {one_ms:>7.2} ms  ({:.1}x faster)",
        one.reran,
        full_ms / one_ms.max(1e-9)
    );
}
