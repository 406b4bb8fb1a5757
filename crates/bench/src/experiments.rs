//! The paper's artefacts and the model-side studies, one function each.
//!
//! Every function returns an [`Experiment`] — tables, self-checks, CSV —
//! so the `repro` binary and the unit tests share one implementation.
//! Paper values appear next to measured values wherever the paper
//! states them.
//!
//! **What lives here, by one rule:** an experiment goes when every
//! self-check it makes is made by an `e2e` round check or a named
//! tier-1 test *and* every number it prints is an `e2e` metric
//! (`crates/bench/src/bin/e2e/`, the repository's benchmark). By that
//! rule `steal`, `frontend`, `serve` and `incr` went (README, "What
//! measures what", names the workload, metric and test that took over
//! each). What stays is the paper's evaluation (`table2` … `ablate`)
//! and the studies `e2e` does not print: multi-frame pipelining
//! (`video`), modeled shard scaling (`shards`), bounded-table stall
//! accounting (`capacity`), kick-off FIFO depths (`wakes`) and the
//! trace export with its events-vs-counters differential (`observe`).

use crate::table::{f1, f2, TextTable};
use nexuspp_baseline::{classic::classic_check_trace, ClassicLimits};
use nexuspp_baseline::{ideal_makespan, simulate_software_rts, SoftwareRtsConfig};
use nexuspp_core::NexusConfig;
use nexuspp_desim::SimTime;
use nexuspp_hw::storage::{StorageBudget, StorageParams, TASK_SUPERSCALAR_BYTES};
use nexuspp_hw::{BusConfig, MemoryConfig};
use nexuspp_taskmachine::{simulate, simulate_trace, MachineConfig};
use nexuspp_trace::{Trace, TraceSource};
use nexuspp_workloads::analysis::parallelism_profile;
use nexuspp_workloads::{stress, GaussianSpec, GridPattern, GridSpec, VideoSpec};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Experiment options from the command line.
#[derive(Debug, Clone, Default)]
pub struct ExpOptions {
    /// Include the long-running configurations (Gaussian n = 3000/5000).
    pub full: bool,
    /// Shrink sweeps for smoke tests.
    pub quick: bool,
    /// Write CSV outputs here.
    pub out_dir: Option<PathBuf>,
}

/// A reproduced artefact in one shape: tables, self-checks, CSV.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Short id (`table2`, `fig7`, …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Captioned tables.
    pub tables: Vec<(String, TextTable)>,
    /// Self-checks that did not hold. Each renders as a `REGRESSION`
    /// line, and any one makes `repro` exit 1 (see [`exit_code`]).
    pub failures: Vec<String>,
    /// Free-form notes (caveats, paper-vs-measured commentary).
    pub notes: Vec<String>,
}

impl Experiment {
    fn new(id: &'static str, title: impl Into<String>) -> Self {
        Experiment {
            id,
            title: title.into(),
            tables: Vec::new(),
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn table(&mut self, caption: impl Into<String>, table: TextTable) {
        self.tables.push((caption.into(), table));
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Record one self-check: when `ok` is false, `msg()` joins
    /// [`failures`](Self::failures).
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }

    /// Render everything as text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        for (caption, table) in &self.tables {
            out.push('\n');
            out.push_str(caption);
            out.push('\n');
            out.push_str(&table.render());
        }
        out.push('\n');
        for f in &self.failures {
            let _ = writeln!(out, "REGRESSION: {f}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Write each table as `<id>_<k>.csv` under `dir`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (k, (_, table)) in self.tables.iter().enumerate() {
            let path = dir.join(format!("{}_{k}.csv", self.id));
            std::fs::write(path, table.to_csv())?;
        }
        Ok(())
    }
}

/// The status `repro` exits with after running `ran`: 1 when any
/// experiment has a failed self-check, else 0.
pub fn exit_code(ran: &[Experiment]) -> i32 {
    i32::from(ran.iter().any(|e| !e.failures.is_empty()))
}

fn grid_core_counts(opts: &ExpOptions) -> Vec<usize> {
    if opts.quick {
        vec![1, 4, 16, 64]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
    }
}

// ---------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------

/// Table II: Gaussian elimination tasks for different matrix sizes.
pub fn table2(opts: &ExpOptions) -> Experiment {
    let paper: &[(u32, u64, f64)] = &[
        (250, 31_374, 167.0),
        (500, 125_249, 334.0),
        (1000, 500_499, 667.0),
        (3000, 4_501_499, 2012.0),
        (5000, 12_502_499, 3523.0),
    ];
    let mut e = Experiment::new("table2", "Gaussian elimination tasks per matrix size");
    let mut t = TextTable::new(vec![
        "matrix dim",
        "# tasks (paper)",
        "# tasks (ours)",
        "avg FLOPs (paper)",
        "avg FLOPs (ours)",
        "avg time @2GFLOPS",
    ]);
    for &(n, tasks, avg) in paper {
        let spec = GaussianSpec::new(n);
        // For moderate n, verify the closed form by actually generating.
        let counted = if n <= 1000 || opts.full {
            let mut src = spec.source();
            let mut c = 0u64;
            while src.next_task().is_some() {
                c += 1;
            }
            c
        } else {
            spec.task_count()
        };
        e.check(counted == spec.task_count() && counted == tasks, || {
            format!(
                "n={n}: generated {counted} tasks, closed form {}, paper {tasks}",
                spec.task_count()
            )
        });
        t.row(vec![
            n.to_string(),
            tasks.to_string(),
            counted.to_string(),
            f1(avg),
            f1(spec.avg_weight()),
            spec.avg_task_time().to_string(),
        ]);
    }
    e.table("Table II", t);
    e.note("task counts follow (n²+n−2)/2 exactly");
    e.note(
        "average weights follow Formula 1; the paper's n=5000 entry (3523) is \
         inconsistent with its own formula (3332.7)",
    );
    e
}

// ---------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------

/// Table IV: system parameters and the ≤210 KB storage claim.
pub fn table4(_opts: &ExpOptions) -> Experiment {
    let cfg = MachineConfig::default();
    let mut params = TextTable::new(vec!["system parameter", "value"]);
    params.row(vec!["Cores clock freq.".to_string(), "2.0 GHz".into()]);
    params.row(vec![
        "Nexus++ clock freq.".to_string(),
        format!("{} (500 MHz)", cfg.nexus_clock.period()),
    ]);
    params.row(vec![
        "On-chip access time".to_string(),
        cfg.sram.access.to_string(),
    ]);
    params.row(vec![
        "Off-chip access time".to_string(),
        format!(
            "{} / {} B chunk",
            cfg.memory.chunk_time, cfg.memory.chunk_bytes
        ),
    ]);
    params.row(vec![
        "Memory bandwidth".to_string(),
        format!("{:.2} GB/s", cfg.memory.peak_bandwidth_gbps()),
    ]);
    params.row(vec![
        "Memory banks / concurrent accessors".to_string(),
        format!("{}", cfg.memory.slots()),
    ]);
    params.row(vec![
        "Task Pool".to_string(),
        format!("{} TDs × 78 B", cfg.nexus.task_pool_entries),
    ]);
    params.row(vec![
        "Parameters per TD".to_string(),
        cfg.nexus.params_per_td.to_string(),
    ]);
    params.row(vec![
        "Dependence Table".to_string(),
        format!("{} entries × 28 B", cfg.nexus.dep_table_entries),
    ]);
    params.row(vec![
        "Kick-Off list size".to_string(),
        format!("{} task IDs", cfg.nexus.kickoff_entries),
    ]);
    params.row(vec![
        "Buffering depth".to_string(),
        cfg.buffering_depth.to_string(),
    ]);
    params.row(vec![
        "Task preparation".to_string(),
        cfg.master.prep_time.to_string(),
    ]);

    let budget = StorageBudget::compute(&StorageParams::default());
    let mut storage = TextTable::new(vec!["structure", "bytes", "KB"]);
    for (name, bytes) in budget.rows() {
        storage.row(vec![
            name.to_string(),
            bytes.to_string(),
            f2(bytes as f64 / 1024.0),
        ]);
    }
    storage.row(vec![
        "TOTAL".to_string(),
        budget.total().to_string(),
        f2(budget.total() as f64 / 1024.0),
    ]);

    let total_kb = budget.total() as f64 / 1024.0;
    let mut e = Experiment::new("table4", "System parameters and storage budget");
    e.table("Table IV — parameters", params);
    e.table("Storage budget", storage);
    e.check(budget.total() <= 210 * 1024, || {
        format!("storage total {total_kb:.1} KB exceeds the paper's 210 KB claim")
    });
    e.note(format!("total {total_kb:.1} KB — paper claims ≤ 210 KB"));
    e.note(format!(
        "Task Superscalar uses {} KB (≈{}× more)",
        TASK_SUPERSCALAR_BYTES / 1024,
        TASK_SUPERSCALAR_BYTES / budget.total().max(1)
    ));
    e
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// Figure 4: dependency patterns and their available parallelism.
pub fn fig4(_opts: &ExpOptions) -> Experiment {
    let g = GridSpec::default();
    let mut t = TextTable::new(vec![
        "pattern",
        "tasks",
        "critical path",
        "max parallel",
        "avg parallel",
    ]);
    let mut ramp = TextTable::new(vec!["round", "ready tasks (wavefront)"]);
    for pat in GridPattern::all() {
        let tr = g.generate(pat);
        let p = parallelism_profile(&tr);
        t.row(vec![
            pat.name().to_string(),
            p.tasks.to_string(),
            p.critical_path().to_string(),
            p.max_parallelism().to_string(),
            f2(p.avg_parallelism()),
        ]);
        if pat == GridPattern::Wavefront {
            for (i, w) in p.widths.iter().enumerate() {
                ramp.row(vec![i.to_string(), w.to_string()]);
            }
        }
    }
    let mut e = Experiment::new("fig4", "Dependency patterns (120×68 blocks)");
    e.table("Pattern structure", t);
    e.table("Wavefront ramp profile (Fig 4a)", ramp);
    e.note(
        "the wavefront ramp rises from 1 to its mid-execution peak and falls \
         back to 1 — the ramping effect the paper describes",
    );
    e
}

// ---------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------

fn fig6_machine(workers: usize, tp: usize, dt: usize) -> MachineConfig {
    let mut cfg = MachineConfig::with_workers(workers).contention_free();
    cfg.nexus = NexusConfig {
        task_pool_entries: tp,
        dep_table_entries: dt,
        ..NexusConfig::default()
    };
    cfg
}

/// Figure 6: design-space exploration of Task Pool / Dependence Table
/// sizes (independent tasks, 256 cores, double buffering, contention-free
/// memory).
pub fn fig6(opts: &ExpOptions) -> Experiment {
    let workers = if opts.quick { 64 } else { 256 };
    let trace = GridSpec::default().generate(GridPattern::Independent);
    let base = simulate_trace(fig6_machine(1, 8192, 8192), &trace).expect("baseline run");

    let dt_sizes: &[usize] = if opts.quick {
        &[512, 2048, 8192]
    } else {
        &[256, 512, 1024, 2048, 4096, 8192]
    };
    let mut dt_table = TextTable::new(vec![
        "DT entries (TP=8K)",
        "speedup",
        "longest hash chain",
        "DT peak occupancy",
        "check stalls",
    ]);
    for &dt in dt_sizes {
        let r = simulate_trace(fig6_machine(workers, 8192, dt), &trace).expect("dt sweep");
        dt_table.row(vec![
            dt.to_string(),
            f2(base.makespan / r.makespan),
            r.table.max_chain_len.to_string(),
            r.table.peak_occupancy.to_string(),
            r.check_deps.stalls.to_string(),
        ]);
    }

    let tp_sizes: &[usize] = if opts.quick {
        &[128, 512, 2048]
    } else {
        &[128, 256, 512, 1024, 2048, 4096, 8192]
    };
    let mut tp_table = TextTable::new(vec![
        "TP entries (DT=8K)",
        "speedup",
        "TP peak occupancy",
        "master stalls",
    ]);
    for &tp in tp_sizes {
        let r = simulate_trace(fig6_machine(workers, tp, 8192), &trace).expect("tp sweep");
        tp_table.row(vec![
            tp.to_string(),
            f2(base.makespan / r.makespan),
            r.pool.peak_occupancy.to_string(),
            r.master_stalls.to_string(),
        ]);
    }

    let mut e = Experiment::new(
        "fig6",
        format!("Design space exploration ({workers} cores, contention-free, independent tasks)"),
    );
    e.table("Speedup & chains vs Dependence Table size", dt_table);
    e.table("Speedup vs Task Pool size", tp_table);
    e.note("paper: speedup peaks (143×) from DT = 2K upward; chains ≈ halve from 2K → 4K");
    e.note(format!(
        "paper: TP = 512 suffices at 256 cores (double buffering ⇒ window {} = cores × depth)",
        workers * 2
    ));
    e
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// Figure 7: speedup over worker count for the Figure 4 patterns
/// (memory contention on, double buffering).
pub fn fig7(opts: &ExpOptions) -> Experiment {
    let counts = grid_core_counts(opts);
    let mut t = TextTable::new(
        std::iter::once("cores".to_string())
            .chain(GridPattern::all().iter().map(|p| p.name().to_string()))
            .collect::<Vec<_>>(),
    );
    // Baselines per pattern.
    let mut results: Vec<Vec<f64>> = Vec::new();
    for pat in GridPattern::all() {
        let trace = GridSpec::default().generate(pat);
        let base = simulate_trace(MachineConfig::with_workers(1), &trace).expect("fig7 base");
        let mut col = Vec::new();
        for &w in &counts {
            let r = if w == 1 {
                base.clone()
            } else {
                simulate_trace(MachineConfig::with_workers(w), &trace).expect("fig7 point")
            };
            col.push(base.makespan / r.makespan);
        }
        results.push(col);
    }
    for (i, &w) in counts.iter().enumerate() {
        let mut row = vec![w.to_string()];
        for col in &results {
            row.push(f2(col[i]));
        }
        t.row(row);
    }
    let mut e = Experiment::new(
        "fig7",
        "Speedup vs cores for the Figure 4 dependency patterns",
    );
    e.table("Figure 7", t);
    e.note(
        "paper shape: horizontal (b) saturates around 8 cores; vertical (c) scales \
         to 64; the wavefront is capped by its ramp-limited parallelism; independent \
         tasks reach 54× at 64 cores then flatten under memory contention",
    );
    e
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// Figure 8: Gaussian elimination speedups per matrix size (memory
/// contention on, double buffering).
pub fn fig8(opts: &ExpOptions) -> Experiment {
    let sizes: Vec<u32> = if opts.quick {
        vec![250, 500]
    } else if opts.full {
        vec![250, 500, 1000, 3000, 5000]
    } else {
        vec![250, 500, 1000]
    };
    let counts: Vec<usize> = if opts.quick {
        vec![1, 4, 16, 64]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    };
    let mut t = TextTable::new(
        std::iter::once("cores".to_string())
            .chain(sizes.iter().map(|n| format!("n={n}")))
            .collect::<Vec<_>>(),
    );
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for &n in &sizes {
        let spec = GaussianSpec::new(n);
        let mut src = spec.source();
        let base = simulate(MachineConfig::with_workers(1), &mut src).expect("fig8 base");
        let mut col = Vec::new();
        for &w in &counts {
            if w == 1 {
                col.push(1.0);
                continue;
            }
            let mut src = spec.source();
            let r = simulate(MachineConfig::with_workers(w), &mut src).expect("fig8 point");
            col.push(base.makespan / r.makespan);
        }
        cols.push(col);
    }
    for (i, &w) in counts.iter().enumerate() {
        let mut row = vec![w.to_string()];
        for col in &cols {
            row.push(f2(col[i]));
        }
        t.row(row);
    }

    // Companion variant: Gaussian memory traffic exempt from bank
    // contention. The paper's 45× at 64 cores is unreachable under the
    // literal model (W doubles read+written per task exceeds the 10.67
    // GB/s aggregate at that task rate); without contention our model
    // lands on the paper's number, so this is evidently what their
    // simulator measured. Both variants are reported.
    let biggest = *sizes.last().expect("nonempty");
    let spec = GaussianSpec::new(biggest);
    let mut src = spec.source();
    let base_cf =
        simulate(MachineConfig::with_workers(1).contention_free(), &mut src).expect("fig8 cf base");
    let mut cf = TextTable::new(vec![
        "cores",
        "contended speedup",
        "contention-free speedup",
    ]);
    for &w in counts.iter().filter(|&&w| w > 1) {
        let mut src = spec.source();
        let r_cf = simulate(MachineConfig::with_workers(w).contention_free(), &mut src)
            .expect("fig8 cf point");
        let contended =
            cols.last().expect("nonempty")[counts.iter().position(|&c| c == w).unwrap()];
        cf.row(vec![
            w.to_string(),
            f2(contended),
            f2(base_cf.makespan / r_cf.makespan),
        ]);
    }

    let mut e = Experiment::new("fig8", "Gaussian elimination speedup per matrix size");
    for (n, col) in sizes.iter().zip(&cols) {
        for (&w, &speedup) in counts.iter().zip(col) {
            e.check(speedup <= w as f64 * 1.001, || {
                format!("n={n}: {speedup:.2}× on {w} cores beats linear")
            });
        }
        // More cores may shift round-robin placement a little, and so the
        // makespan, but never by much.
        for (c, s) in counts.windows(2).zip(col.windows(2)) {
            e.check(s[1] >= s[0] * 0.97, || {
                format!(
                    "n={n}: {:.2}× on {} cores falls below {:.2}× on {}",
                    s[1], c[1], s[0], c[0]
                )
            });
        }
    }
    e.table("Figure 8 (literal memory model, contention on)", t);
    e.table(format!("n={biggest}: memory-contention sensitivity"), cf);
    e.note("paper: n=5000 reaches 45× at 64 cores; n=250 reaches 2.3× at 4 cores and stays flat");
    e.note(
        "the paper's 45× is only consistent with Gaussian traffic NOT contending \
         for the 32 banks (literal W-doubles traffic exceeds the 10.67 GB/s \
         aggregate); the contention-free column reproduces it",
    );
    e.note(if opts.full {
        "full mode: includes n=3000 and n=5000 (12.5M tasks per run)"
    } else {
        "default mode: n ≤ 1000; pass --full for n = 3000/5000"
    });
    e
}

// ---------------------------------------------------------------------
// Headline numbers
// ---------------------------------------------------------------------

/// §V headline: 54× (64 cores, contention), 143× (256 cores,
/// contention-free), 221× (no task-prep delay).
pub fn headline(_opts: &ExpOptions) -> Experiment {
    let trace = GridSpec::default().generate(GridPattern::Independent);
    let base = simulate_trace(MachineConfig::with_workers(1), &trace).expect("headline base");
    let mk = |cfg: MachineConfig| -> f64 {
        let r = simulate_trace(cfg, &trace).expect("headline point");
        base.makespan / r.makespan
    };
    let s64 = mk(MachineConfig::with_workers(64));
    let s256cf = mk(MachineConfig::with_workers(256).contention_free());
    let s256np = mk(MachineConfig::with_workers(256).contention_free().no_prep());

    let mut e = Experiment::new(
        "headline",
        "Independent-tasks headline speedups (double buffering)",
    );
    let mut t = TextTable::new(vec!["experiment", "paper", "ours", "ratio"]);
    for (name, paper, ours) in [
        ("64 cores, memory contention", 54.0, s64),
        ("256 cores, contention-free", 143.0, s256cf),
        ("256 cores, contention-free, no prep delay", 221.0, s256np),
    ] {
        let ratio = ours / paper;
        t.row(vec![
            name.to_string(),
            format!("{paper:.0}×"),
            format!("{ours:.1}×"),
            f2(ratio),
        ]);
        e.check((0.7..=1.4).contains(&ratio), || {
            format!("{name}: {ours:.1}× is outside the ±40% band round the paper's {paper:.0}×")
        });
    }
    e.table("§V headline numbers", t);
    e.note(
        "same qualitative structure: contention caps the curve from ~64 cores; \
         removing the 30 ns task preparation lifts the master-limited plateau",
    );
    e
}

// ---------------------------------------------------------------------
// Nexus classic comparison
// ---------------------------------------------------------------------

/// §I/§III-B: which workloads classic Nexus can run, and the lookup-count
/// comparison.
pub fn nexus_vs(opts: &ExpOptions) -> Experiment {
    let limits = ClassicLimits::default();
    let mut t = TextTable::new(vec![
        "workload",
        "classic Nexus",
        "max params",
        "max waiters",
        "classic lookups",
        "Nexus++ lookups",
        "ratio",
    ]);
    let mut cases: Vec<(String, Trace)> = vec![
        (
            "h264-wavefront".into(),
            GridSpec::default().generate(GridPattern::Wavefront),
        ),
        (
            "independent".into(),
            GridSpec::default().generate(GridPattern::Independent),
        ),
        (
            "gaussian-250".into(),
            GaussianSpec::new(if opts.quick { 80 } else { 250 }).trace(),
        ),
        ("wide-params-16".into(), stress::wide_params(64, 16, 1000)),
    ];
    for (name, trace) in cases.drain(..) {
        let v = classic_check_trace(&trace, limits, 1024, 2012);
        t.row(vec![
            name,
            if v.supported {
                "supported".to_string()
            } else {
                "REJECTED".to_string()
            },
            v.max_params_seen.to_string(),
            v.max_waiters_seen.to_string(),
            v.classic_accesses.to_string(),
            v.nexuspp_accesses.to_string(),
            f2(v.access_ratio()),
        ]);
    }
    let mut e = Experiment::new(
        "nexus-vs",
        "Classic Nexus feasibility and lookup comparison",
    );
    e.table("Nexus (2010) vs Nexus++", t);
    e.note(
        "paper: \"applications that could not be executed by Nexus, such as Gaussian \
         elimination …, can be executed efficiently on a multicore system with Nexus++\"",
    );
    e.note("classic lookup model: three tables accessed for every parameter operation (§III-B)");
    e
}

// ---------------------------------------------------------------------
// Software RTS motivation
// ---------------------------------------------------------------------

/// §I motivation: the software runtime bottleneck vs Nexus++.
pub fn rts(opts: &ExpOptions) -> Experiment {
    let counts: Vec<usize> = if opts.quick {
        vec![1, 8, 32]
    } else {
        vec![1, 4, 8, 16, 32, 64]
    };
    let trace = GridSpec::default().generate(GridPattern::Independent);
    let cfg = SoftwareRtsConfig::default();
    let mem = MemoryConfig::default();

    let mut sw_mk = Vec::new();
    for &w in &counts {
        let mut src = trace.clone().into_source();
        sw_mk.push(simulate_software_rts(&mut src, w, &cfg, &mem));
    }
    let hw_base = simulate_trace(MachineConfig::with_workers(1), &trace).expect("rts base");
    let mut t = TextTable::new(vec![
        "cores",
        "software RTS speedup",
        "Nexus++ speedup",
        "ideal speedup",
    ]);
    for (i, &w) in counts.iter().enumerate() {
        let hw = if w == 1 {
            1.0
        } else {
            let r = simulate_trace(MachineConfig::with_workers(w), &trace).expect("rts hw");
            hw_base.makespan / r.makespan
        };
        let mut src = trace.clone().into_source();
        let ideal1 = ideal_makespan(&mut src, 1, &mem);
        let mut src = trace.clone().into_source();
        let ideal = ideal1 / ideal_makespan(&mut src, w, &mem);
        t.row(vec![
            w.to_string(),
            f2(sw_mk[0] / sw_mk[i]),
            f2(hw),
            f2(ideal),
        ]);
    }
    let mut e = Experiment::new("rts", "Software RTS bottleneck vs hardware task management");
    e.table("Motivating comparison (independent tasks)", t);
    e.note(
        "the software runtime serializes ~3 µs of management per task on the master \
         core and saturates in single digits; Nexus++ tracks the ideal curve until \
         memory contention",
    );
    e
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Design ablations: buffering depth, shared bus, bus cost model,
/// kick-off list size.
pub fn ablate(opts: &ExpOptions) -> Experiment {
    let workers = if opts.quick { 16 } else { 64 };
    let wf = GridSpec::default().generate(GridPattern::Wavefront);
    let ind = GridSpec::default().generate(GridPattern::Independent);

    // Buffering depth: the paper's "double buffering" contribution.
    let mut depth_t = TextTable::new(vec![
        "buffering depth",
        "wavefront makespan",
        "independent makespan",
        "independent speedup vs depth 1",
    ]);
    let mut d1_ind = SimTime::ZERO;
    for depth in [1usize, 2, 4, 8] {
        let mut cfg = MachineConfig::with_workers(workers);
        cfg.buffering_depth = depth;
        let r_wf = simulate_trace(cfg.clone(), &wf).expect("depth wf");
        let r_ind = simulate_trace(cfg, &ind).expect("depth ind");
        if depth == 1 {
            d1_ind = r_ind.makespan;
        }
        depth_t.row(vec![
            depth.to_string(),
            r_wf.makespan.to_string(),
            r_ind.makespan.to_string(),
            f2(d1_ind / r_ind.makespan),
        ]);
    }

    // Bus model and sharing.
    let mut bus_t = TextTable::new(vec!["configuration", "independent speedup @256 cf"]);
    let base = simulate_trace(MachineConfig::with_workers(1), &ind).expect("bus base");
    for (name, mutate) in [
        (
            "prose bus (2 cyc/word), separate links",
            Box::new(|c: &mut MachineConfig| {
                c.bus = BusConfig::prose_model();
            }) as Box<dyn Fn(&mut MachineConfig)>,
        ),
        (
            "worked-example bus (6+n cyc), separate links",
            Box::new(|c: &mut MachineConfig| {
                c.bus = BusConfig::default();
            }),
        ),
        (
            "prose bus, shared master/TC bus",
            Box::new(|c: &mut MachineConfig| {
                c.bus = BusConfig::prose_model();
                c.shared_bus = true;
            }),
        ),
    ] {
        let mut cfg =
            MachineConfig::with_workers(if opts.quick { 64 } else { 256 }).contention_free();
        mutate(&mut cfg);
        let r = simulate_trace(cfg, &ind).expect("bus point");
        bus_t.row(vec![name.to_string(), f2(base.makespan / r.makespan)]);
    }

    // Kick-off list size on a fan-out-heavy workload.
    let gspec = GaussianSpec::new(if opts.quick { 120 } else { 500 });
    let mut kick_t = TextTable::new(vec![
        "kick-off list size",
        "gaussian makespan",
        "dummy entries allocated",
        "promotions",
    ]);
    for k in [2usize, 4, 8, 16, 32] {
        let mut cfg = MachineConfig::with_workers(workers);
        cfg.nexus.kickoff_entries = k;
        let mut src = gspec.source();
        let r = simulate(cfg, &mut src).expect("kick point");
        kick_t.row(vec![
            k.to_string(),
            r.makespan.to_string(),
            r.table.ext_allocs.to_string(),
            r.table.promotions.to_string(),
        ]);
    }

    let mut e = Experiment::new("ablate", format!("Design ablations ({workers} cores)"));
    e.table("Task-buffering depth (§III double buffering)", depth_t);
    e.table("Bus model", bus_t);
    e.table("Kick-off list size vs dummy-entry traffic", kick_t);
    e.note(
        "depth 2 (double buffering) captures almost all of the benefit for \
         memory-heavy tasks; deeper buffering has diminishing returns",
    );
    e.note(
        "smaller kick-off lists trade SRAM for dummy-entry traffic at identical \
         semantics — the mechanism's cost is visible, its correctness is not affected",
    );
    e
}

// ---------------------------------------------------------------------
// Extension: multi-frame H.264 pipelining
// ---------------------------------------------------------------------

/// Extension experiment: multi-frame H.264 decode. P-frames reference the
/// previous frame, so wavefronts pipeline across frames and recover the
/// parallelism the single-frame ramp loses — the natural next step the
/// paper's single-frame trace points at.
pub fn video(opts: &ExpOptions) -> Experiment {
    let frames_list: &[u32] = if opts.quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let cores = if opts.quick { 16 } else { 32 };
    let mut speedups = Vec::new();
    let mut t = TextTable::new(vec![
        "frames",
        "tasks",
        "critical path",
        "avg parallelism",
        &format!("speedup @{cores} cores"),
        "speedup per frame-second",
    ]);
    for &f in frames_list {
        let spec = VideoSpec::new(f);
        let trace = spec.generate();
        let profile = parallelism_profile(&trace);
        let base = simulate_trace(MachineConfig::with_workers(1), &trace).expect("video base");
        let r = simulate_trace(MachineConfig::with_workers(cores), &trace).expect("video run");
        let speedup = base.makespan / r.makespan;
        speedups.push(speedup);
        t.row(vec![
            f.to_string(),
            trace.len().to_string(),
            profile.critical_path().to_string(),
            f2(profile.avg_parallelism()),
            f2(speedup),
            f2(speedup / f as f64),
        ]);
    }
    let mut e = Experiment::new(
        "video",
        "Extension: multi-frame H.264 decode (P-frame pipelining)",
    );
    for (f, &speedup) in frames_list.iter().zip(&speedups) {
        e.check(speedup > 1.0 && speedup <= cores as f64, || {
            format!("{f} frames: speedup {speedup:.2}× outside (1, {cores}]")
        });
    }
    for (f, s) in frames_list.windows(2).zip(speedups.windows(2)) {
        e.check(s[1] >= s[0], || {
            format!(
                "{} frames recover less parallelism than {}: {:.2}× < {:.2}×",
                f[1], f[0], s[1], s[0]
            )
        });
    }
    e.table("Frames vs recovered parallelism", t);
    e.note(
        "with inter-frame references, frame f+1's wavefront starts as soon as its \
         reference blocks retire: the critical path grows by ~1 wavefront step per \
         frame instead of a whole frame, so average parallelism — and the achieved \
         speedup — climbs toward the steady-state bound as frames accumulate",
    );
    e
}

// ---------------------------------------------------------------------
// Shard scaling (multi-Maestro extension)
// ---------------------------------------------------------------------

/// Shard-scaling study: the multi-Maestro model (S address-partitioned
/// Maestros behind a crossbar, batched submissions) over the balanced
/// stress stream, the pathological single-hot-shard stream, and the
/// Gaussian-elimination benchmark. Not a paper figure — this is the
/// scaled-out design the ROADMAP's north star asks for, measured.
pub fn shards(opts: &ExpOptions) -> Experiment {
    use nexuspp_taskmachine::{simulate_sharded, MultiMaestroConfig};
    use nexuspp_workloads::ShardedStressSpec;

    let n_stress: u32 = if opts.quick { 2_000 } else { 20_000 };
    let gauss_n: u32 = if opts.quick { 48 } else { 120 };
    let shard_counts: &[usize] = if opts.quick { &[1, 4] } else { &[1, 2, 4, 8] };

    // One stress stream (steered against STEER_SHARDS partitions) is
    // shared across the whole sweep so the rows stay comparable. That is
    // only sound while every swept count divides STEER_SHARDS: the router
    // is `(hash >> 32) % n`, so shard 0 of a divisor is a superset of
    // shard 0 of STEER_SHARDS and the hot-shard stream stays single-hot
    // at every swept size. Extending the sweep past that (16, or a
    // non-divisor like 3) requires steering a stream per shard count.
    const STEER_SHARDS: u32 = 8;
    for &s in shard_counts {
        assert_eq!(
            STEER_SHARDS as usize % s,
            0,
            "swept shard count {s} must divide the steering target {STEER_SHARDS}"
        );
    }
    let balanced = ShardedStressSpec {
        exec_ns: 0,
        ..ShardedStressSpec::balanced(n_stress, STEER_SHARDS)
    }
    .generate();
    let hot = ShardedStressSpec {
        exec_ns: 0,
        ..ShardedStressSpec::hot_shard(n_stress, STEER_SHARDS)
    }
    .generate();
    let gauss = GaussianSpec::new(gauss_n).trace();

    let cfg = |s: usize| MultiMaestroConfig {
        workers: 16,
        ..MultiMaestroConfig::with_shards(s).no_prep()
    };

    let mut e = Experiment::new(
        "shards",
        format!("Multi-Maestro shard scaling ({n_stress}-task streams, Gaussian n = {gauss_n})"),
    );
    let mut table = TextTable::new(vec![
        "workload",
        "shards",
        "makespan µs",
        "Mtasks/s",
        "speedup",
        "imbalance",
        "peak queue",
    ]);
    for (name, trace) in [
        ("balanced", &balanced),
        ("hot-shard", &hot),
        ("gaussian", &gauss),
    ] {
        let mut base_tput = None;
        for &s in shard_counts {
            let r = simulate_sharded(cfg(s), trace);
            let tput = r.tasks_per_sec();
            let base = *base_tput.get_or_insert(tput);
            table.row(vec![
                name.to_string(),
                s.to_string(),
                f1(r.makespan.as_us_f64()),
                f2(tput / 1e6),
                format!("{}x", f2(tput / base)),
                f2(r.imbalance()),
                r.peak_shard_queue.to_string(),
            ]);
            if name == "balanced" && s == 4 {
                e.check(tput >= 2.0 * base, || {
                    format!(
                        "balanced 4-shard speedup {:.2}x below the 2x acceptance bar",
                        tput / base
                    )
                });
            }
        }
    }
    e.table("modeled resolution throughput by shard count", table);
    e.note(
        "balanced stream: address partitions spread evenly, shards scale until the crossbar \
         or workers saturate; hot-shard stream: all addresses hash to one shard, extra shards \
         idle (imbalance ≈ shard count)",
    );
    e
}

// ---------------------------------------------------------------------
// Wake hand-off (kick-off delivery extension)
// ---------------------------------------------------------------------

/// Wake-delivery study: the dispatcher's finish path on the wide fan-in
/// wake-stress stream, plus the multi-Maestro model's per-shard kick-off
/// FIFO depths. Not a paper figure: a finisher hands its wakes off after
/// dropping the shard lock, so delivery never extends the hold time on
/// the hot shard.
pub fn wakes(opts: &ExpOptions) -> Experiment {
    use nexuspp_shard::stress::{run_wake_stress, WakeStressSpec};
    use nexuspp_taskmachine::{simulate_sharded, MultiMaestroConfig};
    use nexuspp_workloads::WakeStressSpec as WakeTraceSpec;

    let producers: u32 = if opts.quick { 64 } else { 256 };
    let mut e = Experiment::new("wakes", "Wake delivery: post-lock hand-off (wake_stress)");

    // Threaded dispatcher: 4 finisher workers hammer one hot shard's
    // wake path.
    let mut disp_t = TextTable::new(vec!["burst", "tasks", "wakes", "wall ms", "delivery us"]);
    for &consumers_per in &[4u32, 24] {
        let spec = WakeStressSpec {
            finishers: 4,
            producers,
            consumers_per,
            shards: 4,
            spin_ns: 0,
        };
        // Panics unless every task retired and every wake was delivered
        // exactly once — this half's self-check lives in the harness.
        let r = run_wake_stress(&spec);
        disp_t.row(vec![
            consumers_per.to_string(),
            r.completed.to_string(),
            r.woken.to_string(),
            f2(r.elapsed.as_secs_f64() * 1e3),
            f1(r.wake_counts.delivery_ns as f64 / 1e3),
        ]);
    }

    // Modeled: the multi-Maestro kick-off FIFOs under the same fan-in,
    // sweeping burst width — peak depth on the hot shard is the queueing
    // kick-off delivery absorbs.
    let mut model_t = TextTable::new(vec![
        "burst",
        "tasks",
        "wakes delivered",
        "hot-shard peak depth",
        "makespan us",
        "tasks/s (modeled)",
    ]);
    for &consumers_per in &[4u32, 16, 64] {
        let spec = WakeTraceSpec::new(if opts.quick { 32 } else { 96 }, consumers_per);
        let trace = spec.generate();
        let r = simulate_sharded(
            MultiMaestroConfig {
                workers: 16,
                ..MultiMaestroConfig::with_shards(4).no_prep()
            },
            &trace,
        );
        let delivered: u64 = r.shard_wakes_delivered.iter().sum();
        e.check(delivered > 0 && delivered <= spec.wake_count(), || {
            format!(
                "model delivered {delivered} kick-offs of at most {}",
                spec.wake_count()
            )
        });
        model_t.row(vec![
            consumers_per.to_string(),
            r.tasks.to_string(),
            delivered.to_string(),
            r.shard_wake_peak.iter().max().unwrap().to_string(),
            f1(r.makespan.as_ns_f64() / 1e3),
            format!("{:.0}", r.tasks_per_sec()),
        ]);
    }

    e.table(
        "Threaded dispatcher (4 finisher workers, hot shard)",
        disp_t,
    );
    e.table("Multi-Maestro kick-off FIFOs (modeled)", model_t);
    e.note(
        "delivery time counts the post-lock hand-off only (remote decrements, \
         payload takes, report pushes), not the resolution work under the shard \
         lock; one run per row — the timed figure is e2e's \
         shard.wake_delivery_ns_per_wake",
    );
    e.note(
        "modeled rows: every consumer that parked at its check is delivered through \
         a kick-off FIFO exactly once (asserted inside the model); consumers the \
         master submitted after their producer already finished start ready and \
         bypass kick-off, so 'wakes delivered' can sit below the DAG's edge count",
    );
    e
}

// ---------------------------------------------------------------------
// Bounded shard capacity (finite-table extension)
// ---------------------------------------------------------------------

/// Capacity study: the bounded multi-Maestro fabric and the bounded
/// threaded runtime over the capacity-stress stream, sweeping the
/// per-shard residency bound C ∈ {1, 4, 16, ∞}. Not a paper figure —
/// this closes the "sharded capacity stalls in multi-Maestro mode"
/// fidelity gap: finite shard tables stall the master across the
/// crossbar exactly like the single-Maestro machine's Task-Pool stall,
/// and the stall/retry counters must balance at quiescence.
pub fn capacity(opts: &ExpOptions) -> Experiment {
    use nexuspp_core::ShardCapacity;
    use nexuspp_runtime::Runtime;
    use nexuspp_taskmachine::{simulate_sharded, MultiMaestroConfig};
    use nexuspp_workloads::CapacityStressSpec;

    let shards = 4usize;
    let spec = CapacityStressSpec {
        chain_len: if opts.quick { 24 } else { 96 },
        ..CapacityStressSpec::pressure(shards as u32)
    };
    let stress = spec.generate();
    let gauss = GaussianSpec::new(if opts.quick { 32 } else { 80 }).trace();
    let caps = [
        ShardCapacity::Bounded(1),
        ShardCapacity::Bounded(4),
        ShardCapacity::Bounded(16),
        ShardCapacity::Unbounded,
    ];

    let mut e = Experiment::new(
        "capacity",
        format!("Bounded shard tables: stall/retry under capacity pressure ({shards} shards)"),
    );
    let mut modeled = TextTable::new(vec![
        "workload",
        "capacity",
        "makespan µs",
        "Mtasks/s",
        "master stalls",
        "retries resolved",
        "peak queue",
    ]);
    for (name, trace) in [("capacity-stress", &stress), ("gaussian", &gauss)] {
        for cap in caps {
            let r = simulate_sharded(
                MultiMaestroConfig {
                    workers: 16,
                    ..MultiMaestroConfig::with_capacity(shards, cap).no_prep()
                },
                trace,
            );
            let resolved: u64 = r.shard_retries_resolved.iter().sum();
            modeled.row(vec![
                name.to_string(),
                cap.to_string(),
                f1(r.makespan.as_us_f64()),
                f2(r.tasks_per_sec() / 1e6),
                r.master_capacity_stalls.to_string(),
                resolved.to_string(),
                r.peak_shard_queue.to_string(),
            ]);
            e.check(r.shard_stalls == r.shard_retries_resolved, || {
                format!(
                    "{name} at C={cap}: unresolved stall episodes ({:?} vs {:?})",
                    r.shard_stalls, r.shard_retries_resolved
                )
            });
            if !cap.is_bounded() {
                e.check(r.master_capacity_stalls == 0, || {
                    format!(
                        "{name}: unbounded tables reported {} stalls",
                        r.master_capacity_stalls
                    )
                });
            }
            if cap == ShardCapacity::Bounded(1) {
                e.check(r.master_capacity_stalls > 0, || {
                    format!("{name}: capacity 1 never stalled the master")
                });
            }
        }
    }

    // The threaded runtime under the same bound: real parked submitter
    // threads, real finish-report wakeups, counter balance at quiescence.
    let mut threaded = TextTable::new(vec![
        "capacity",
        "wall ms",
        "submitter stalls",
        "retries resolved",
    ]);
    let (rt_chains, rt_chain_len) = (8u32, if opts.quick { 25u32 } else { 100 });
    for cap in caps {
        let rt = Runtime::with_capacity(4, shards, cap);
        let wall = nexuspp_runtime::stress::drive_capacity_stress(&rt, rt_chains, rt_chain_len);
        let ms = wall.as_secs_f64() * 1e3;
        let counts = rt.capacity_counts();
        let stalls: u64 = counts.iter().map(|c| c.stalls_observed).sum();
        let resolved: u64 = counts.iter().map(|c| c.retries_resolved).sum();
        threaded.row(vec![
            cap.to_string(),
            f2(ms),
            stalls.to_string(),
            resolved.to_string(),
        ]);
        e.check(stalls == resolved, || {
            format!("runtime at C={cap}: {stalls} stalls vs {resolved} resolved")
        });
    }

    e.table("modeled multi-Maestro fabric", modeled);
    e.table("threaded Runtime (4 workers)", threaded);
    e.note(
        "the master parks on the first full shard and resumes when a finish phase \
         completes at the shards (cycle-accounted); episodes are counted once against \
         the first rejecting shard, so stalls == retries at quiescence is the \
         no-lost-wakeup invariant",
    );
    e
}

// ---------------------------------------------------------------------
// Observability (extension)
// ---------------------------------------------------------------------

/// The observability extension, demonstrated end to end: run the
/// rename-heavy `version_stress` program (Renamed lowering) on the
/// sharded runtime with a lifecycle-event recorder attached, then
/// derive everything the tracing layer promises from the one drained
/// stream — a per-task latency breakdown, an events-vs-counters
/// differential against the runtime's atomic counters, and the
/// *observed* critical path (chains of waker edges), validated against
/// the *structural* critical path of the lowered DAG. With `--csv`, a
/// Chrome-trace JSON (`chrome://tracing` / Perfetto loadable) is
/// written next to the CSV tables; its JSON is validated either way.
pub fn observe(opts: &ExpOptions) -> Experiment {
    use nexuspp_frontend::Lowering;
    use nexuspp_obs::{
        chrome_trace, validate_json, EventKind, GraphTracker, LatencyStats, Recorder,
    };
    use nexuspp_runtime::Runtime;
    use nexuspp_sched::SchedulerKind;
    use nexuspp_shard::WakeMode;
    use nexuspp_workloads::VersionStressSpec;
    use std::sync::Arc;

    let spec = if opts.quick {
        VersionStressSpec {
            chains: 4,
            chain_len: 4,
            cells: 6,
            steps: 3,
            exec_ns: 0,
        }
    } else {
        VersionStressSpec {
            chains: 8,
            chain_len: 8,
            cells: 12,
            steps: 6,
            exec_ns: 0,
        }
    };
    let workers = 4usize;
    let mut e = Experiment::new(
        "observe",
        "Observability: lifecycle tracing, latency breakdown, critical path",
    );

    // Structural ground truth from the lowered DAG, before running
    // anything.
    let structural = parallelism_profile(&spec.trace(Lowering::Renamed)).critical_path();

    let rec = Arc::new(Recorder::new(workers));
    let rt = Runtime::with_recorder(
        workers,
        4,
        SchedulerKind::default(),
        nexuspp_core::ShardCapacity::Unbounded,
        WakeMode::default(),
        Arc::clone(&rec),
    );
    // A small per-task sleep keeps dependents parked until their
    // producers actually finish, so the wake (waker-edge) record is the
    // real dependence structure and not an artifact of fast retirement.
    for sub in spec.lowered(Lowering::Renamed).tasks {
        rt.spawn_lowered(sub, move || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
    }
    rt.barrier();
    let sched = rt.sched_counts();
    let wake = rt.wake_counts();
    let snap = rt.metrics().snapshot();
    let events = rec.drain();
    let mut tracker = GraphTracker::new();
    tracker.apply_batch(&events);

    // Table 1: per-task latency breakdown.
    let breakdown = tracker.snapshot().stages;
    let mut lat_t = TextTable::new(vec!["phase", "tasks", "mean us", "p50 us", "max us"]);
    let us = |ns: u64| f2(ns as f64 / 1e3);
    let mut lat_row = |phase: &str, s: &LatencyStats| {
        lat_t.row(vec![
            phase.to_string(),
            s.count.to_string(),
            f2(s.mean_ns / 1e3),
            us(s.p50_ns),
            us(s.max_ns),
        ]);
    };
    lat_row("submit -> ready", &breakdown.submit_to_ready);
    lat_row("ready -> exec start", &breakdown.ready_to_start);
    lat_row("exec start -> exec done", &breakdown.start_to_done);
    lat_row("exec done -> finished", &breakdown.done_to_finish);

    // Table 2: events vs counters — the same execution recorded twice,
    // independently; every row must agree at quiescence.
    let n = spec.task_count();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
    let mut diff_t = TextTable::new(vec!["quantity", "from events", "from counters"]);
    let mut diff_row = |name: &str, ev: u64, ctr: u64| {
        diff_t.row(vec![name.to_string(), ev.to_string(), ctr.to_string()]);
        e.check(ev == ctr, || {
            format!("{name} disagrees — {ev} from events vs {ctr} from counters")
        });
    };
    diff_row(
        "tasks submitted",
        count(EventKind::Submitted),
        snap.get("tasks", "submitted").unwrap_or(0),
    );
    diff_row("tasks finished", count(EventKind::Finished), n);
    diff_row(
        "wakes delivered",
        count(EventKind::WakeDelivered),
        wake.delivered,
    );
    diff_row("steals", count(EventKind::Stolen), sched.steals);
    diff_row(
        "events recorded",
        events.len() as u64,
        snap.get("events", "recorded").unwrap_or(0),
    );
    e.check(rec.dropped() == 0, || {
        format!("{} events dropped (ring overflow)", rec.dropped())
    });

    // Table 3: observed vs structural critical path.
    let observed = tracker.critical_path();
    let mut cp_t = TextTable::new(vec!["critical path", "length (tasks)"]);
    cp_t.row(vec![
        "structural (lowered DAG)".into(),
        structural.to_string(),
    ]);
    cp_t.row(vec![
        "observed (waker edges)".into(),
        observed.length.to_string(),
    ]);
    e.check(observed.length == structural, || {
        format!(
            "observed critical path {} != structural {structural}",
            observed.length
        )
    });

    // The Chrome-trace export, validated always and written with --csv.
    let trace_json = chrome_trace(&events);
    let valid = validate_json(&trace_json);
    e.check(valid.is_ok(), || {
        format!("chrome trace is not valid JSON: {}", valid.unwrap_err())
    });
    if let Some(dir) = &opts.out_dir {
        let path = dir.join("observe_trace.json");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &trace_json)) {
            Ok(()) => e.note(format!("chrome trace written to {}", path.display())),
            Err(err) => e.note(format!("failed to write chrome trace: {err}")),
        }
    }

    e.table("Per-task latency breakdown", lat_t);
    e.table("Differential: events vs counters", diff_t);
    e.table("Observed vs structural critical path", cp_t);
    e.note(format!(
        "workload: version_stress (Renamed), {n} tasks on {workers} workers \
         (sharded runtime, lock-free wakes), 1ms per-task sleep"
    ));
    e.note(
        "the observed critical path follows Ready waker edges (which finisher \
         released each task); under renaming the chains collapse to depth 1 and \
         the stencil wavefront sets the depth, so observed must equal the \
         lowered DAG's longest chain",
    );
    e.note(
        "latency phases: submit->ready is dependence wait, ready->start is \
         scheduling delay, start->done is execution, done->finished is \
         retirement (shard drain)",
    );
    e
}

/// What every experiment is: options in, tables and self-checks out.
pub type ExperimentFn = fn(&ExpOptions) -> Experiment;

/// Every experiment under the name `repro` runs it by, in `repro all`
/// order.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("table2", table2),
    ("table4", table4),
    ("fig4", fig4),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("headline", headline),
    ("nexus-vs", nexus_vs),
    ("rts", rts),
    ("ablate", ablate),
    ("video", video),
    ("shards", shards),
    ("capacity", capacity),
    ("wakes", wakes),
    ("observe", observe),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOptions {
        ExpOptions {
            quick: true,
            ..Default::default()
        }
    }

    fn assert_passes(e: &Experiment) {
        assert!(
            e.failures.is_empty(),
            "{} self-checks failed: {:?}",
            e.id,
            e.failures
        );
    }

    #[test]
    fn failed_check_is_a_failure_a_regression_line_and_a_nonzero_exit() {
        let mut e = Experiment::new("probe", "check plumbing");
        e.check(true, || {
            unreachable!("a passing check never builds its message")
        });
        assert_passes(&e);
        assert_eq!(exit_code(std::slice::from_ref(&e)), 0);

        e.check(false, || "1 + 1 came to 3".to_string());
        assert_eq!(e.failures, ["1 + 1 came to 3"]);
        assert!(e.render().contains("REGRESSION: 1 + 1 came to 3\n"));
        let passing = Experiment::new("other", "no checks");
        assert_eq!(exit_code(&[passing, e]), 1, "one failure fails the run");
    }

    #[test]
    fn table2_rows_match_paper_counts() {
        let e = table2(&quick());
        assert_passes(&e);
        assert_eq!(e.tables[0].1.len(), 5);
    }

    #[test]
    fn table4_budget_holds() {
        assert_passes(&table4(&quick()));
    }

    #[test]
    fn fig4_wavefront_profile_shape() {
        let e = fig4(&quick());
        let t = &e.tables[0].1;
        // wavefront row: critical path 306, avg ≈ 26.67.
        assert_eq!(t.cell(1, 2), "306");
    }

    #[test]
    fn headline_within_band() {
        let e = headline(&quick());
        assert_passes(&e);
        assert_eq!(e.tables[0].1.len(), 3);
    }

    #[test]
    fn capacity_sweep_balances_stalls_and_stresses_tight_bounds() {
        let e = capacity(&quick());
        assert_passes(&e);
        // Modeled rows: 2 workloads × 4 capacities; threaded rows: 4.
        assert_eq!(e.tables[0].1.len(), 8);
        assert_eq!(e.tables[1].1.len(), 4);
    }

    #[test]
    fn wakes_sweep_is_self_consistent() {
        let e = wakes(&quick());
        assert_passes(&e);
        // Threaded rows: 2 burst widths; modeled rows: 3.
        assert_eq!(e.tables[0].1.len(), 2);
        assert_eq!(e.tables[1].1.len(), 3);
    }

    #[test]
    fn shards_balanced_meets_acceptance_bar() {
        let e = shards(&quick());
        assert_passes(&e);
        // Quick mode rows: (balanced, hot, gaussian) × (1, 4 shards).
        assert_eq!(e.tables[0].1.len(), 6);
    }

    #[test]
    fn observe_differential_and_critical_path_agree() {
        let e = observe(&quick());
        assert_passes(&e);
        // Latency breakdown: four phases; differential: five quantities;
        // critical path: structural vs observed.
        assert_eq!(e.tables[0].1.len(), 4);
        assert_eq!(e.tables[1].1.len(), 5);
        assert_eq!(e.tables[2].1.len(), 2);
    }
}
