//! Quickstart: simulate a StarSs-style workload on a multicore with
//! Nexus++, and execute a real task graph on the threaded runtime.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nexuspp::runtime::Runtime;
use nexuspp::taskmachine::{simulate_trace, MachineConfig};
use nexuspp::workloads::{GridPattern, GridSpec};

fn main() {
    // ------------------------------------------------------------------
    // Part 1 — cycle-level simulation (the paper's evaluation flow).
    // ------------------------------------------------------------------
    // The H.264 wavefront benchmark: 8160 macroblock-decode tasks whose
    // dependencies Nexus++ discovers from their input/output addresses.
    let trace = GridSpec::default().generate(GridPattern::Wavefront);
    println!("workload: {} ({} tasks)", trace.name, trace.len());
    let stats = trace.stats();
    println!(
        "  mean exec {} | mean memory {} per task",
        stats.mean_exec(),
        stats.mean_mem_time()
    );

    println!("\nsimulating on 1..64 worker cores (Table IV configuration):");
    let base = simulate_trace(MachineConfig::with_workers(1), &trace).expect("simulation");
    println!("  1 core : makespan {}", base.makespan);
    for workers in [4, 16, 64] {
        let r = simulate_trace(MachineConfig::with_workers(workers), &trace).expect("simulation");
        println!(
            "  {:>2} cores: makespan {:>12}  speedup {:>5.1}x  worker util {:>4.1}%",
            workers,
            r.makespan.to_string(),
            base.makespan / r.makespan,
            r.worker_utilization() * 100.0
        );
    }

    // ------------------------------------------------------------------
    // Part 2 — real execution on the threaded StarSs-like runtime.
    // ------------------------------------------------------------------
    // A tiny 3-stage pipeline: scale → offset → checksum, with the same
    // input/output annotations a StarSs pragma would carry.
    let rt = Runtime::new(4, 1);
    let input = rt.region((1..=1000u64).collect::<Vec<_>>());
    let scaled = rt.region(vec![0u64; 1000]);
    let total = rt.region(vec![0u64]);

    {
        let (i, s) = (input.clone(), scaled.clone());
        rt.task().input(&input).output(&scaled).spawn(move |t| {
            let iv = t.read(&i);
            let mut sv = t.write(&s);
            for k in 0..iv.len() {
                sv[k] = iv[k] * 7;
            }
        });
    }
    {
        let (s, tot) = (scaled.clone(), total.clone());
        rt.task().input(&scaled).output(&total).spawn(move |t| {
            let sv = t.read(&s);
            t.write(&tot)[0] = sv.iter().sum();
        });
    }
    rt.barrier();
    let sum = rt.with_data(&total, |v| v[0]);
    println!("\nruntime pipeline checksum: {sum}");
    assert_eq!(sum, 7 * (1..=1000u64).sum::<u64>());
    println!("quickstart OK");
}
