//! One function per table/figure of the paper.
//!
//! Each experiment returns an [`Experiment`] (title, rendered tables,
//! notes) so the `repro` binary, the integration tests, and EXPERIMENTS.md
//! generation all share one implementation. Paper values appear next to
//! measured values wherever the paper states them.

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

/// A reproduced paper artifact.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Short id (`table2`, `fig7`, …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Captioned tables.
    pub tables: Vec<(String, TextTable)>,
    /// Free-form notes (caveats, paper-vs-measured commentary).
    pub notes: Vec<String>,
}

impl Experiment {
    /// Render everything as text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        for (caption, table) in &self.tables {
            out.push('\n');
            out.push_str(caption);
            out.push('\n');
            out.push_str(&table.render());
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str("note: ");
                out.push_str(n);
                out.push('\n');
            }
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
        assert_eq!(counted, spec.task_count(), "closed form vs generated");
        t.row(vec![
            n.to_string(),
            tasks.to_string(),
            counted.to_string(),
            f1(avg),
            f1(spec.avg_weight()),
            spec.avg_task_time().to_string(),
        ]);
    }
    Experiment {
        id: "table2",
        title: "Gaussian elimination tasks per matrix size".into(),
        tables: vec![("Table II".into(), t)],
        notes: vec![
            "task counts follow (n²+n−2)/2 exactly".into(),
            "average weights follow Formula 1; the paper's n=5000 entry (3523) is \
             inconsistent with its own formula (3332.7) — see EXPERIMENTS.md"
                .into(),
        ],
    }
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
    Experiment {
        id: "table4",
        title: "System parameters and storage budget".into(),
        tables: vec![
            ("Table IV — parameters".into(), params),
            ("Storage budget".into(), storage),
        ],
        notes: vec![
            format!(
                "total {:.1} KB — paper claims ≤ 210 KB: {}",
                total_kb,
                if budget.total() <= 210 * 1024 {
                    "HOLDS"
                } else {
                    "VIOLATED"
                }
            ),
            format!(
                "Task Superscalar uses {} KB (≈{}× more)",
                TASK_SUPERSCALAR_BYTES / 1024,
                TASK_SUPERSCALAR_BYTES / budget.total().max(1)
            ),
        ],
    }
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
    Experiment {
        id: "fig4",
        title: "Dependency patterns (120×68 blocks)".into(),
        tables: vec![
            ("Pattern structure".into(), t),
            ("Wavefront ramp profile (Fig 4a)".into(), ramp),
        ],
        notes: vec![
            "the wavefront ramp rises from 1 to its mid-execution peak and falls \
             back to 1 — the ramping effect the paper describes"
                .into(),
        ],
    }
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

    Experiment {
        id: "fig6",
        title: format!(
            "Design space exploration ({workers} cores, contention-free, independent tasks)"
        ),
        tables: vec![
            ("Speedup & chains vs Dependence Table size".into(), dt_table),
            ("Speedup vs Task Pool size".into(), tp_table),
        ],
        notes: vec![
            "paper: speedup peaks (143×) from DT = 2K upward; chains ≈ halve from 2K → 4K"
                .into(),
            format!(
                "paper: TP = 512 suffices at 256 cores (double buffering ⇒ window {} = cores × depth)",
                workers * 2
            ),
        ],
    }
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
    Experiment {
        id: "fig7",
        title: "Speedup vs cores for the Figure 4 dependency patterns".into(),
        tables: vec![("Figure 7".into(), t)],
        notes: vec![
            "paper shape: horizontal (b) saturates around 8 cores; vertical (c) scales \
             to 64; the wavefront is capped by its ramp-limited parallelism; independent \
             tasks reach 54× at 64 cores then flatten under memory contention"
                .into(),
        ],
    }
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

    Experiment {
        id: "fig8",
        title: "Gaussian elimination speedup per matrix size".into(),
        tables: vec![
            ("Figure 8 (literal memory model, contention on)".into(), t),
            (format!("n={biggest}: memory-contention sensitivity"), cf),
        ],
        notes: vec![
            "paper: n=5000 reaches 45× at 64 cores; n=250 reaches 2.3× at 4 cores and \
             stays flat"
                .into(),
            "the paper's 45× is only consistent with Gaussian traffic NOT contending \
             for the 32 banks (literal W-doubles traffic exceeds the 10.67 GB/s \
             aggregate); the contention-free column reproduces it — see EXPERIMENTS.md"
                .into(),
            if opts.full {
                "full mode: includes n=3000 and n=5000 (12.5M tasks per run)".into()
            } else {
                "default mode: n ≤ 1000; pass --full for n = 3000/5000".into()
            },
        ],
    }
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

    let mut t = TextTable::new(vec!["experiment", "paper", "ours", "ratio"]);
    t.row(vec![
        "64 cores, memory contention".to_string(),
        "54×".into(),
        format!("{:.1}×", s64),
        f2(s64 / 54.0),
    ]);
    t.row(vec![
        "256 cores, contention-free".to_string(),
        "143×".into(),
        format!("{:.1}×", s256cf),
        f2(s256cf / 143.0),
    ]);
    t.row(vec![
        "256 cores, contention-free, no prep delay".to_string(),
        "221×".into(),
        format!("{:.1}×", s256np),
        f2(s256np / 221.0),
    ]);
    Experiment {
        id: "headline",
        title: "Independent-tasks headline speedups (double buffering)".into(),
        tables: vec![("§V headline numbers".into(), t)],
        notes: vec![
            "same qualitative structure: contention caps the curve from ~64 cores; \
             removing the 30 ns task preparation lifts the master-limited plateau"
                .into(),
        ],
    }
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
    Experiment {
        id: "nexus-vs",
        title: "Classic Nexus feasibility and lookup comparison".into(),
        tables: vec![("Nexus (2010) vs Nexus++".into(), t)],
        notes: vec![
            "paper: \"applications that could not be executed by Nexus, such as Gaussian \
             elimination …, can be executed efficiently on a multicore system with Nexus++\""
                .into(),
            "classic lookup model: three tables accessed for every parameter operation (§III-B)"
                .into(),
        ],
    }
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
    Experiment {
        id: "rts",
        title: "Software RTS bottleneck vs hardware task management".into(),
        tables: vec![("Motivating comparison (independent tasks)".into(), t)],
        notes: vec![
            "the software runtime serializes ~3 µs of management per task on the master \
             core and saturates in single digits; Nexus++ tracks the ideal curve until \
             memory contention"
                .into(),
        ],
    }
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

    Experiment {
        id: "ablate",
        title: format!("Design ablations ({workers} cores)"),
        tables: vec![
            (
                "Task-buffering depth (§III double buffering)".into(),
                depth_t,
            ),
            ("Bus model".into(), bus_t),
            ("Kick-off list size vs dummy-entry traffic".into(), kick_t),
        ],
        notes: vec![
            "depth 2 (double buffering) captures almost all of the benefit for \
             memory-heavy tasks; deeper buffering has diminishing returns"
                .into(),
            "smaller kick-off lists trade SRAM for dummy-entry traffic at identical \
             semantics — the mechanism's cost is visible, its correctness is not affected"
                .into(),
        ],
    }
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
        t.row(vec![
            f.to_string(),
            trace.len().to_string(),
            profile.critical_path().to_string(),
            f2(profile.avg_parallelism()),
            f2(speedup),
            f2(speedup / f as f64),
        ]);
    }
    Experiment {
        id: "video",
        title: "Extension: multi-frame H.264 decode (P-frame pipelining)".into(),
        tables: vec![("Frames vs recovered parallelism".into(), t)],
        notes: vec![
            "with inter-frame references, frame f+1's wavefront starts as soon as its              reference blocks retire: the critical path grows by ~1 wavefront step per              frame instead of a whole frame, so average parallelism — and the achieved              speedup — climbs toward the steady-state bound as frames accumulate"
                .into(),
        ],
    }
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

    let mut table = TextTable::new(vec![
        "workload",
        "shards",
        "makespan µs",
        "Mtasks/s",
        "speedup",
        "imbalance",
        "peak queue",
    ]);
    let mut notes = Vec::new();
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
            if name == "balanced" && s == 4 && tput < 2.0 * base {
                notes.push(format!(
                    "REGRESSION: balanced 4-shard speedup {:.2}x below the 2x acceptance bar",
                    tput / base
                ));
            }
        }
    }
    notes.push(
        "balanced stream: address partitions spread evenly, shards scale until the crossbar \
         or workers saturate; hot-shard stream: all addresses hash to one shard, extra shards \
         idle (imbalance ≈ shard count)"
            .to_string(),
    );
    Experiment {
        id: "shards",
        title: format!(
            "Multi-Maestro shard scaling ({n_stress}-task streams, Gaussian n = {gauss_n})"
        ),
        tables: vec![("modeled resolution throughput by shard count".into(), table)],
        notes,
    }
}

// ---------------------------------------------------------------------
// Ready-task scheduling (work-stealing extension)
// ---------------------------------------------------------------------

/// Ready-scheduling study: the work-stealing scheduler on the imbalanced
/// `steal_stress` workload, at the scheduler layer (pure scheduling
/// overhead) and end-to-end through the runtime at 1 and 4 resolver
/// shards. Not a paper figure — this measures the layer `nexuspp-sched`
/// owns.
pub fn steal(opts: &ExpOptions) -> Experiment {
    use crate::steal_driver::best_steal;
    use nexuspp_sched::stress::{best_of, ChainStressSpec};
    use nexuspp_workloads::StealStressSpec;

    let chain_len: u32 = if opts.quick { 800 } else { 4000 };
    let runs: u32 = if opts.quick { 2 } else { 3 };

    // Scheduler layer: tasks are a few atomic increments, so wall-clock
    // is the scheduling overhead itself.
    let mut sched_t = TextTable::new(vec![
        "workers", "tasks", "wall ms", "Mtasks/s", "steals", "parks",
    ]);
    for &workers in &[1usize, 2, 4] {
        let spec = ChainStressSpec {
            workers,
            chains: 2 * workers.max(2) as u32,
            chain_len,
            spin_ns: 0,
        };
        // `best_of` asserts every task ran exactly once.
        let r = best_of(&spec, runs);
        sched_t.row(vec![
            workers.to_string(),
            spec.task_count().to_string(),
            f2(r.elapsed.as_secs_f64() * 1e3),
            f2(spec.task_count() as f64 / r.elapsed.as_secs_f64() / 1e6),
            r.counts.steals.to_string(),
            r.counts.parks.to_string(),
        ]);
    }

    // End to end: the same DAG through the runtime (engine resolution +
    // region bookkeeping included) at 1 and 4 resolver shards, 4 workers.
    let rt_spec = StealStressSpec::for_workers(4, if opts.quick { 400 } else { 1500 });
    let mut rt_t = TextTable::new(vec!["shards", "tasks", "wall ms", "Mtasks/s", "steals"]);
    for shards in [1usize, 4] {
        // `run_steal` asserts no chain lost a task.
        let r = best_steal(shards, 4, &rt_spec, runs);
        rt_t.row(vec![
            shards.to_string(),
            r.tasks.to_string(),
            f2(r.elapsed.as_secs_f64() * 1e3),
            f2(r.tasks_per_sec() / 1e6),
            r.counts.steals.to_string(),
        ]);
    }

    let notes = vec![
        "scheduler layer: per task the owner path pays a handful of deque atomics; \
         rows are 'best of N' measurements"
            .into(),
        "end-to-end rows include dependency resolution and region bookkeeping".into(),
    ];
    Experiment {
        id: "steal",
        title: "Ready-task scheduling: work stealing (steal_stress)".into(),
        tables: vec![
            ("Scheduler layer (pure scheduling overhead)".into(), sched_t),
            ("End to end through the runtime (4 workers)".into(), rt_t),
        ],
        notes,
    }
}

// ---------------------------------------------------------------------
// Lock-free wake lists (kick-off delivery extension)
// ---------------------------------------------------------------------

/// Wake-delivery study: the lock-free wake lists on the wide fan-in
/// wake-stress stream, plus the multi-Maestro model's per-shard kick-off
/// FIFO depths. Not a paper figure: finish-side wake delivery posts
/// outside the shard lock and is drained by a CAS-claimed owner, so it
/// never queues behind resolution on the hot shard.
pub fn wakes(opts: &ExpOptions) -> Experiment {
    use nexuspp_shard::stress::{best_of, WakeStressSpec};
    use nexuspp_taskmachine::{simulate_sharded, MultiMaestroConfig};
    use nexuspp_workloads::WakeStressSpec as WakeTraceSpec;

    let runs: u32 = if opts.quick { 2 } else { 3 };
    let producers: u32 = if opts.quick { 64 } else { 256 };

    // Threaded dispatcher: 4 finisher workers hammer one hot shard's
    // wake path.
    let mut disp_t = TextTable::new(vec!["burst", "tasks", "wakes", "wall ms", "delivery us"]);
    let mut notes = Vec::new();
    for &consumers_per in &[4u32, 24] {
        let spec = WakeStressSpec {
            finishers: 4,
            producers,
            consumers_per,
            shards: 4,
            spin_ns: 0,
        };
        let r = best_of(&spec, runs);
        if r.woken != spec.wake_count() {
            notes.push(format!(
                "REGRESSION: delivered {} of {} wakes",
                r.woken,
                spec.wake_count()
            ));
        }
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
    // the lock-free lists absorb.
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
        if delivered == 0 || delivered > spec.wake_count() {
            notes.push(format!(
                "REGRESSION: model delivered {} kick-offs of at most {}",
                delivered,
                spec.wake_count()
            ));
        }
        model_t.row(vec![
            consumers_per.to_string(),
            r.tasks.to_string(),
            delivered.to_string(),
            r.shard_wake_peak.iter().max().unwrap().to_string(),
            f1(r.makespan.as_ns_f64() / 1e3),
            format!("{:.0}", r.tasks_per_sec()),
        ]);
    }

    notes.extend([
        "delivery time counts the drain-to-report step only (claim + hand-off), not \
         the resolution work under the shard lock; rows are 'best of N' measurements"
            .into(),
        "modeled rows: every consumer that parked at its check is delivered through \
         a kick-off FIFO exactly once (asserted inside the model); consumers the \
         master submitted after their producer already finished start ready and \
         bypass kick-off, so 'wakes delivered' can sit below the DAG's edge count"
            .into(),
    ]);
    Experiment {
        id: "wakes",
        title: "Wake delivery: lock-free wake lists (wake_stress)".into(),
        tables: vec![
            (
                "Threaded dispatcher (4 finisher workers, hot shard)".into(),
                disp_t,
            ),
            ("Multi-Maestro kick-off FIFOs (modeled)".into(), model_t),
        ],
        notes,
    }
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

    let mut notes = Vec::new();
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
            if r.shard_stalls != r.shard_retries_resolved {
                notes.push(format!(
                    "REGRESSION: {name} at C={cap}: unresolved stall episodes \
                     ({:?} vs {:?})",
                    r.shard_stalls, r.shard_retries_resolved
                ));
            }
            if !cap.is_bounded() && r.master_capacity_stalls != 0 {
                notes.push(format!(
                    "REGRESSION: {name}: unbounded tables reported {} stalls",
                    r.master_capacity_stalls
                ));
            }
            if cap == ShardCapacity::Bounded(1) && r.master_capacity_stalls == 0 {
                notes.push(format!(
                    "REGRESSION: {name}: capacity 1 never stalled the master"
                ));
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
        if stalls != resolved {
            notes.push(format!(
                "REGRESSION: runtime at C={cap}: {stalls} stalls vs {resolved} resolved"
            ));
        }
    }

    notes.push(
        "the master parks on the first full shard and resumes when a finish phase \
         completes at the shards (cycle-accounted); episodes are counted once against \
         the first rejecting shard, so stalls == retries at quiescence is the \
         no-lost-wakeup invariant"
            .to_string(),
    );
    Experiment {
        id: "capacity",
        title: format!(
            "Bounded shard tables: stall/retry under capacity pressure ({shards} shards)"
        ),
        tables: vec![
            ("modeled multi-Maestro fabric".into(), modeled),
            ("threaded Runtime (4 workers)".into(), threaded),
        ],
        notes,
    }
}

// ---------------------------------------------------------------------
// Resource-versioning frontend (renaming extension)
// ---------------------------------------------------------------------

/// Frontend study: what version renaming buys over a raw encoding that
/// reuses one address per resource. Not a paper figure — this quantifies
/// the renaming extension: the same declarative program lowered twice
/// (renamed vs raw), contrasted structurally (DAG profile of the
/// rename-heavy `version_stress` stream) and measured (a strictly serial
/// version chain executed on the threaded sharded runtime, where raw
/// must run at width 1 and renamed saturates the workers).
pub fn frontend(opts: &ExpOptions) -> Experiment {
    use nexuspp_frontend::Lowering;
    use nexuspp_runtime::Runtime;
    use nexuspp_workloads::VersionStressSpec;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let lowerings = [Lowering::Renamed, Lowering::Raw];
    let mut notes = Vec::new();

    // Structural: the rename-heavy stream's DAG profile per lowering.
    let spec = if opts.quick {
        VersionStressSpec {
            chains: 8,
            chain_len: 8,
            cells: 6,
            steps: 3,
            exec_ns: 0,
        }
    } else {
        VersionStressSpec::renaming_heavy()
    };
    let mut dag_t = TextTable::new(vec![
        "lowering",
        "tasks",
        "true edges",
        "critical path",
        "avg parallelism",
        "peak",
        "avg vs raw",
    ]);
    let profiles: Vec<_> = lowerings
        .iter()
        .map(|&l| (l, spec.lowered(l), parallelism_profile(&spec.trace(l))))
        .collect();
    let raw_avg = profiles[1].2.avg_parallelism().max(f64::MIN_POSITIVE);
    for (lowering, lp, profile) in &profiles {
        dag_t.row(vec![
            lowering.name().to_string(),
            lp.tasks.len().to_string(),
            lp.edges.len().to_string(),
            profile.critical_path().to_string(),
            f1(profile.avg_parallelism()),
            profile.max_parallelism().to_string(),
            format!("{}x", f2(profile.avg_parallelism() / raw_avg)),
        ]);
    }
    let avgs = [
        profiles[0].2.avg_parallelism(),
        profiles[1].2.avg_parallelism(),
    ];
    if avgs[0] < 2.0 * avgs[1] {
        notes.push(format!(
            "REGRESSION: renamed avg parallelism {} is below 2x raw {}",
            f1(avgs[0]),
            f1(avgs[1])
        ));
    }

    // Measured: a single version chain (strictly serial raw, fully
    // parallel renamed) on real worker threads, peak width observed
    // across a per-task sleep.
    let chain_len = if opts.quick { 8 } else { 16 };
    let workers = 4usize;
    let mut run_t = TextTable::new(vec![
        "lowering",
        "chain len",
        "workers",
        "wall ms",
        "peak executed width",
    ]);
    for lowering in lowerings {
        let lp = VersionStressSpec::single_chain(chain_len).lowered(lowering);
        let rt = Runtime::new(workers, 2);
        let in_flight = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let start = Instant::now();
        for sub in lp.tasks.iter().cloned() {
            let (in_flight, peak) = (Arc::clone(&in_flight), Arc::clone(&peak));
            rt.spawn_lowered(sub, move || {
                let now = in_flight.fetch_add(1, Ordering::AcqRel) + 1;
                peak.fetch_max(now, Ordering::AcqRel);
                std::thread::sleep(std::time::Duration::from_millis(2));
                in_flight.fetch_sub(1, Ordering::AcqRel);
            });
        }
        rt.barrier();
        let width = peak.load(Ordering::Acquire);
        match lowering {
            Lowering::Raw if width != 1 => notes.push(format!(
                "REGRESSION: raw chain overlapped (width {width}) — WAW order broken"
            )),
            Lowering::Renamed if width < 2 => notes.push(format!(
                "REGRESSION: renamed chain never overlapped (width {width})"
            )),
            _ => {}
        }
        run_t.row(vec![
            lowering.name().to_string(),
            chain_len.to_string(),
            workers.to_string(),
            f2(start.elapsed().as_secs_f64() * 1e3),
            width.to_string(),
        ]);
    }

    notes.extend([
        "both lowerings carry the identical task set and true-edge list; raw \
         additionally serializes every version of a resource through one address, \
         which is exactly the WAW/WAR false-dependence cost renaming deletes"
            .into(),
        "the >= 2x bars (structural and measured, raw width exactly 1) are \
         asserted deterministically in nexuspp-workloads (version_stress tests \
         and tests/version_parallelism.rs); rows here are the same contrast at \
         report sizes"
            .into(),
    ]);
    Experiment {
        id: "frontend",
        title: "Resource-versioning frontend: renamed vs raw lowering (version_stress)".into(),
        tables: vec![
            ("Structural: rename-heavy DAG profile".into(), dag_t),
            (
                "Measured: one version chain on the threaded runtime".into(),
                run_t,
            ),
        ],
        notes,
    }
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
        chrome_trace, latency_breakdown, observed_critical_path, timelines, validate_json,
        EventKind, LatencyStats, Recorder,
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
    let mut notes = Vec::new();

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

    // Table 1: per-task latency breakdown.
    let tl = timelines(&events);
    let breakdown = latency_breakdown(&tl);
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
        if ev != ctr {
            notes.push(format!(
                "REGRESSION: {name} disagrees — {ev} from events vs {ctr} from counters"
            ));
        }
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
    if rec.dropped() > 0 {
        notes.push(format!(
            "REGRESSION: {} events dropped (ring overflow)",
            rec.dropped()
        ));
    }

    // Table 3: observed vs structural critical path.
    let observed = observed_critical_path(&events);
    let mut cp_t = TextTable::new(vec!["critical path", "length (tasks)"]);
    cp_t.row(vec![
        "structural (lowered DAG)".into(),
        structural.to_string(),
    ]);
    cp_t.row(vec![
        "observed (waker edges)".into(),
        observed.length.to_string(),
    ]);
    if observed.length != structural {
        notes.push(format!(
            "REGRESSION: observed critical path {} != structural {structural}",
            observed.length
        ));
    }

    // The Chrome-trace export, validated always and written with --csv.
    let trace_json = chrome_trace(&events);
    if let Err(err) = validate_json(&trace_json) {
        notes.push(format!("REGRESSION: chrome trace is not valid JSON: {err}"));
    }
    if let Some(dir) = &opts.out_dir {
        let path = dir.join("observe_trace.json");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &trace_json)) {
            Ok(()) => notes.push(format!("chrome trace written to {}", path.display())),
            Err(err) => notes.push(format!("failed to write chrome trace: {err}")),
        }
    }

    notes.extend([
        format!(
            "workload: version_stress (Renamed), {} tasks on {workers} workers \
             (sharded runtime, lock-free wakes), 1ms per-task sleep",
            n
        ),
        "the observed critical path follows Ready waker edges (which finisher \
         released each task); under renaming the chains collapse to depth 1 and \
         the stencil wavefront sets the depth, so observed must equal the \
         lowered DAG's longest chain"
            .into(),
        "latency phases: submit->ready is dependence wait, ready->start is \
         scheduling delay, start->done is execution, done->finished is \
         retirement (shard drain)"
            .into(),
    ]);
    Experiment {
        id: "observe",
        title: "Observability: lifecycle tracing, latency breakdown, critical path".into(),
        tables: vec![
            ("Per-task latency breakdown".into(), lat_t),
            ("Differential: events vs counters".into(), diff_t),
            ("Observed vs structural critical path".into(), cp_t),
        ],
        notes,
    }
}

/// The persistent resolver as a shared facility: a `ResolverService`
/// with deliberately tight per-tenant budgets under the service-stress
/// client streams, one client thread per tenant. Reports the full
/// admission funnel per tenant (submitted → backpressured/denied/
/// retried → admitted → executed) from the live metrics registry, then
/// drains with a graceful shutdown and cross-checks exactly-once
/// against a one-shot run of the identical programs on a bare runtime.
pub fn serve(opts: &ExpOptions) -> Experiment {
    use nexuspp_runtime::Runtime;
    use nexuspp_service::{ResolverService, ServiceConfig, ServiceTask, TenantId};
    use nexuspp_workloads::ServiceStressSpec;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let spec = if opts.quick {
        ServiceStressSpec::quick()
    } else {
        ServiceStressSpec::pressure()
    };
    // Budget below the stream's steady-state demand (≈ chains resident
    // chained tasks per tenant) so admission pressure is guaranteed;
    // a small lane keeps client-visible backpressure in play too.
    let budget = (spec.chains as u64 / 2).max(1);
    let lane = spec.chains.max(2) as usize;
    let workers = 4usize;
    let mut notes = Vec::new();

    let mut cfg = ServiceConfig::new(workers, 4).lane_capacity(lane);
    for t in 1..=spec.tenants {
        cfg = cfg.tenant(TenantId(t), budget);
    }
    let svc = ResolverService::start(cfg);
    let ran = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let clients: Vec<_> = spec
        .programs()
        .into_iter()
        .map(|(tenant, prog)| {
            let handle = svc.handle(tenant).expect("tenant registered");
            let ran = Arc::clone(&ran);
            std::thread::spawn(move || {
                let mut accepted = 0u64;
                for sub in prog {
                    let ran = Arc::clone(&ran);
                    let task = ServiceTask::new(sub, move || {
                        ran.fetch_add(1, Ordering::AcqRel);
                    });
                    if handle.submit_blocking(task).is_ok() {
                        accepted += 1;
                    }
                }
                accepted
            })
        })
        .collect();
    let accepted: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let report = svc.shutdown();
    let wall = start.elapsed();
    let snap = svc.metrics_snapshot();

    let mut t = TextTable::new(vec![
        "tenant",
        "budget",
        "submitted",
        "backpressured",
        "budget denied",
        "capacity retries",
        "admitted",
        "executed",
        "peak in-flight",
    ]);
    let metric = |tenant: TenantId, name: &str| snap.get(&tenant.to_string(), name).unwrap_or(0);
    let mut executed_total = 0u64;
    for (tenant, counts) in &report.tenants {
        let executed = metric(*tenant, "executed");
        executed_total += executed;
        t.row(vec![
            tenant.to_string(),
            counts.cap.to_string(),
            metric(*tenant, "submitted").to_string(),
            metric(*tenant, "backpressured").to_string(),
            counts.denied.to_string(),
            metric(*tenant, "capacity_retries").to_string(),
            counts.admitted.to_string(),
            executed.to_string(),
            counts.peak.to_string(),
        ]);
        if counts.peak > counts.cap {
            notes.push(format!(
                "REGRESSION: {tenant} exceeded its budget (peak {} > cap {})",
                counts.peak, counts.cap
            ));
        }
    }

    // Differential: the identical programs, one-shot on a bare runtime
    // with no admission layer — both sides must execute every task.
    let oneshot_ran = Arc::new(AtomicU64::new(0));
    let rt = Runtime::new(workers, 4);
    for (_, prog) in spec.programs() {
        for sub in prog {
            let oneshot_ran = Arc::clone(&oneshot_ran);
            rt.spawn_lowered(sub, move || {
                oneshot_ran.fetch_add(1, Ordering::AcqRel);
            });
        }
    }
    rt.barrier();
    let oneshot = oneshot_ran.load(Ordering::Acquire);

    let mut sum_t = TextTable::new(vec!["measure", "value"]);
    sum_t.row(vec![
        "tasks per tenant".into(),
        spec.tasks_per_tenant().to_string(),
    ]);
    sum_t.row(vec!["accepted (client Ok)".into(), accepted.to_string()]);
    sum_t.row(vec![
        "executed (service)".into(),
        report.runtime.executed.to_string(),
    ]);
    sum_t.row(vec!["executed (one-shot)".into(), oneshot.to_string()]);
    sum_t.row(vec![
        "cancelled".into(),
        report.runtime.cancelled.to_string(),
    ]);
    sum_t.row(vec![
        "dropped in ingress".into(),
        report.dropped_ingress.to_string(),
    ]);
    sum_t.row(vec!["graceful".into(), report.graceful.to_string()]);
    sum_t.row(vec!["wall ms".into(), f1(wall.as_secs_f64() * 1e3)]);
    sum_t.row(vec![
        "throughput (tasks/ms)".into(),
        f1(accepted as f64 / (wall.as_secs_f64() * 1e3)),
    ]);

    if !report.graceful {
        notes.push("REGRESSION: graceful shutdown reported drops or a non-graceful quiesce".into());
    }
    if report.runtime.executed != accepted || ran.load(Ordering::Acquire) != accepted {
        notes.push(format!(
            "REGRESSION: exactly-once broken — accepted {accepted}, runtime executed {}, bodies ran {}",
            report.runtime.executed,
            ran.load(Ordering::Acquire)
        ));
    }
    if report.runtime.executed != executed_total {
        notes.push(format!(
            "REGRESSION: per-tenant executed counters sum to {executed_total}, runtime retired {}",
            report.runtime.executed
        ));
    }
    if report.runtime.executed != oneshot {
        notes.push(format!(
            "REGRESSION: service executed {} tasks but the one-shot run executed {oneshot}",
            report.runtime.executed
        ));
    }
    notes.push(format!(
        "{} tenants, budget {budget} (steady-state demand ≈ {} chained tasks), lane {lane}, \
         {workers} workers; clients spin on retryable backpressure via submit_blocking",
        spec.tenants, spec.chains
    ));
    notes.push(
        "the admission funnel is per tenant: lane-full → client backpressure, budget at cap → \
         held in ingress, shard table full → parked retry slot; none of these stall another \
         tenant's lane"
            .into(),
    );
    Experiment {
        id: "serve",
        title: "Resolver service: multi-tenant streaming ingress under admission pressure".into(),
        tables: vec![
            (
                "Per-tenant admission funnel (live metrics + final ledgers)".into(),
                t,
            ),
            ("Run summary and one-shot differential".into(), sum_t),
        ],
        notes,
    }
}

// ---------------------------------------------------------------------
// Incremental re-execution (extension)
// ---------------------------------------------------------------------

/// The incremental re-execution layer (`nexuspp-incr`) end to end: run
/// the 1000-task halo-exchange stencil from scratch, then apply edit
/// batches of increasing size and show what each one actually costs —
/// the dirty-cone table (per-scenario reran/reused split plus
/// Pearce–Kelly maintenance work), the cumulative reuse funnel pulled
/// from the *live* `MetricsRegistry` the program feeds, and the
/// measured from-scratch vs 1-edit wall-clock ratio against the ≥ 2×
/// acceptance bar.
pub fn incr(opts: &ExpOptions) -> Experiment {
    use nexuspp_frontend::Lowering;
    use nexuspp_incr::{Access, Backend, Edit, METRIC_NAMES};
    use nexuspp_obs::MetricsRegistry;
    use nexuspp_workloads::IncrStencilSpec;
    use std::time::Instant;

    let spec = if opts.quick {
        IncrStencilSpec {
            cells: 24,
            steps: 6,
        }
    } else {
        IncrStencilSpec::thousand()
    };
    let backend = Backend::Engine { shards: 4 };
    let lowering = Lowering::Renamed;
    let total = spec.task_count() as usize;
    let mut notes = Vec::new();

    let reg = MetricsRegistry::new();
    let mut ip = spec.build();
    ip.register_metrics(&reg, "incr");

    // The dirty-cone table: one rerun per scenario, live-timed. The
    // "retarget (same bindings)" row re-declares a task unchanged: the
    // cone is validated but every fingerprint matches, so early cutoff
    // re-runs nothing.
    let mid = spec.cells / 2;
    let same_accesses = vec![
        Access::ReadVersion(spec.cell(mid - 1), 0),
        Access::ReadVersion(spec.cell(mid), 0),
        Access::ReadVersion(spec.cell(mid + 1), 0),
        Access::Write(spec.cell(mid)),
    ];
    let scenarios: Vec<(&str, Vec<Edit>)> = vec![
        ("from scratch", vec![]),
        ("idle (no edit)", vec![]),
        ("1 edit", spec.touch_edits(1, 1)),
        ("10 edits", spec.touch_edits(10, 2)),
        (
            "retarget (same bindings)",
            vec![Edit::Retarget {
                key: spec.key(mid, 1),
                accesses: same_accesses,
            }],
        ),
    ];
    let mut t = TextTable::new(vec![
        "scenario",
        "tasks",
        "dirtied",
        "reran",
        "reused",
        "reuse %",
        "order ops",
        "wall ms",
    ]);
    let mut one_edit_reran = 0usize;
    for (name, edits) in scenarios {
        if !edits.is_empty() {
            ip.edit_batch(edits).expect("stencil edits stay acyclic");
        }
        let t0 = Instant::now();
        let rep = ip.rerun(lowering, &backend);
        let wall = t0.elapsed();
        if rep.reran + rep.reused != rep.total {
            notes.push(format!(
                "REGRESSION: {name}: reran {} + reused {} != total {}",
                rep.reran, rep.reused, rep.total
            ));
        }
        if name == "1 edit" {
            one_edit_reran = rep.reran;
        }
        if name == "retarget (same bindings)" && rep.reran != 0 {
            notes.push(format!(
                "REGRESSION: unchanged retarget re-ran {} tasks (early cutoff broken)",
                rep.reran
            ));
        }
        t.row(vec![
            name.to_string(),
            rep.total.to_string(),
            rep.dirtied.to_string(),
            rep.reran.to_string(),
            rep.reused.to_string(),
            f1(100.0 * rep.reused as f64 / rep.total.max(1) as f64),
            rep.order_maintenance_ops.to_string(),
            f2(wall.as_secs_f64() * 1e3),
        ]);
    }
    // Structural acceptance bar, clock-independent: one edit's cone
    // must leave at least half the program reusable.
    if one_edit_reran * 2 > total {
        notes.push(format!(
            "REGRESSION: 1-edit re-ran {one_edit_reran} of {total} tasks — \
             the structural 2x work reduction is gone"
        ));
    }

    // The cumulative reuse funnel, read back through the *registry*
    // (not the reports): this is the path an operator dashboard uses.
    let snap = reg.snapshot();
    let mut funnel = TextTable::new(vec!["counter", "cumulative"]);
    for name in METRIC_NAMES {
        funnel.row(vec![
            name.to_string(),
            snap.get("incr", name).unwrap_or(0).to_string(),
        ]);
    }
    let get = |n: &str| snap.get("incr", n).unwrap_or(0);
    if get("reran") + get("reused") != get("total") {
        notes.push(format!(
            "REGRESSION: live funnel disagrees — reran {} + reused {} != total {}",
            get("reran"),
            get("reused"),
            get("total")
        ));
    }
    if get("runs") != 5 {
        notes.push(format!(
            "REGRESSION: registry saw {} runs, expected 5",
            get("runs")
        ));
    }

    // Measured: best-of-3 from-scratch vs 1-edit wall clock. Debug
    // builds print the ratio but only release builds hold it to the
    // bar (debug timing is allocator noise).
    let rounds = if opts.quick { 2 } else { 3 };
    let (mut best_full, mut best_edit) = (f64::MAX, f64::MAX);
    for round in 0..rounds {
        ip.invalidate_all();
        let t0 = Instant::now();
        ip.rerun(lowering, &backend);
        best_full = best_full.min(t0.elapsed().as_secs_f64());
        ip.edit_batch(spec.touch_edits(1, 100 + round)).unwrap();
        let t1 = Instant::now();
        ip.rerun(lowering, &backend);
        best_edit = best_edit.min(t1.elapsed().as_secs_f64());
    }
    let ratio = best_full / best_edit.max(1e-9);
    let mut speed = TextTable::new(vec!["path", "best wall ms", "vs from-scratch"]);
    speed.row(vec![
        "from scratch".to_string(),
        f2(best_full * 1e3),
        "1.00x".to_string(),
    ]);
    speed.row(vec![
        "1-edit re-run".to_string(),
        f2(best_edit * 1e3),
        format!("{}x", f2(ratio)),
    ]);
    if ratio < 2.0 && !cfg!(debug_assertions) {
        notes.push(format!(
            "REGRESSION: 1-edit re-run only {}x faster than from-scratch (bar: 2x)",
            f2(ratio)
        ));
    }

    notes.push(format!(
        "{} cells x {} steps = {total} tasks; a single-cell edit dirties one \
         light-cone (~steps^2 tasks), which is why the reuse column stays high",
        spec.cells, spec.steps
    ));
    notes.push(
        "the exact reran == dirty-set equivalence (and contents equality against \
         from-scratch and an independent oracle) is proptested per edit in \
         crates/incr/tests/incr_differential.rs; the 2x wall-clock bar is asserted \
         in release by crates/workloads/tests/incr_speedup.rs"
            .into(),
    );
    Experiment {
        id: "incr",
        title: "Incremental re-execution: dirty cones, memo reuse, and edit cost".into(),
        tables: vec![
            ("Dirty-cone walk per edit scenario (live-timed)".into(), t),
            (
                "Cumulative reuse funnel (live MetricsRegistry)".into(),
                funnel,
            ),
            ("Measured from-scratch vs 1-edit wall clock".into(), speed),
        ],
        notes,
    }
}

/// Run every experiment.
pub fn all(opts: &ExpOptions) -> Vec<Experiment> {
    vec![
        table2(opts),
        table4(opts),
        fig4(opts),
        fig6(opts),
        fig7(opts),
        fig8(opts),
        headline(opts),
        nexus_vs(opts),
        rts(opts),
        ablate(opts),
        video(opts),
        shards(opts),
        steal(opts),
        capacity(opts),
        wakes(opts),
        frontend(opts),
        observe(opts),
        serve(opts),
        incr(opts),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOptions {
        ExpOptions {
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn table2_rows_match_paper_counts() {
        let e = table2(&quick());
        let t = &e.tables[0].1;
        assert_eq!(t.len(), 5);
        assert_eq!(t.cell(0, 1), t.cell(0, 2), "ours must equal paper count");
    }

    #[test]
    fn table4_budget_holds() {
        let e = table4(&quick());
        assert!(e.notes[0].contains("HOLDS"));
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
        let t = &e.tables[0].1;
        for row in 0..3 {
            let ratio: f64 = t.cell(row, 3).parse().unwrap();
            assert!(
                (0.7..=1.4).contains(&ratio),
                "row {row} ratio {ratio} outside ±40% band"
            );
        }
    }

    #[test]
    fn steal_tables_have_expected_shape() {
        let e = steal(&quick());
        // Scheduler layer: workers {1, 2, 4}.
        assert_eq!(e.tables[0].1.len(), 3);
        // End to end: shards {1, 4}.
        assert_eq!(e.tables[1].1.len(), 2);
    }

    #[test]
    fn capacity_sweep_balances_stalls_and_stresses_tight_bounds() {
        let e = capacity(&quick());
        assert!(
            !e.notes.iter().any(|n| n.contains("REGRESSION")),
            "capacity accounting broke: {:?}",
            e.notes
        );
        // Modeled rows: 2 workloads × 4 capacities; threaded rows: 4.
        assert_eq!(e.tables[0].1.len(), 8);
        assert_eq!(e.tables[1].1.len(), 4);
    }

    #[test]
    fn wakes_sweep_is_self_consistent() {
        let e = wakes(&quick());
        assert!(
            !e.notes.iter().any(|n| n.contains("REGRESSION")),
            "wake delivery accounting broke: {:?}",
            e.notes
        );
        // Threaded rows: 2 burst widths; modeled rows: 3.
        assert_eq!(e.tables[0].1.len(), 2);
        assert_eq!(e.tables[1].1.len(), 3);
    }

    #[test]
    fn frontend_renaming_holds_its_bars() {
        let e = frontend(&quick());
        assert!(
            !e.notes.iter().any(|n| n.contains("REGRESSION")),
            "renaming contrast broke: {:?}",
            e.notes
        );
        // Structural and measured tables: one row per lowering.
        assert_eq!(e.tables[0].1.len(), 2);
        assert_eq!(e.tables[1].1.len(), 2);
    }

    #[test]
    fn shards_balanced_meets_acceptance_bar() {
        let e = shards(&quick());
        assert!(
            !e.notes.iter().any(|n| n.contains("REGRESSION")),
            "balanced 4-shard speedup fell below 2x: {:?}",
            e.notes
        );
        // Quick mode rows: (balanced, hot, gaussian) × (1, 4 shards).
        assert_eq!(e.tables[0].1.len(), 6);
    }

    #[test]
    fn incr_funnel_balances_and_cutoff_holds() {
        let e = incr(&quick());
        assert!(
            !e.notes.iter().any(|n| n.contains("REGRESSION")),
            "incremental re-execution invariants broke: {:?}",
            e.notes
        );
        // Dirty-cone scenarios; funnel counters; speedup rows.
        assert_eq!(e.tables[0].1.len(), 5);
        assert_eq!(e.tables[1].1.len(), 6);
        assert_eq!(e.tables[2].1.len(), 2);
    }

    #[test]
    fn observe_differential_and_critical_path_agree() {
        let e = observe(&quick());
        assert!(
            !e.notes.iter().any(|n| n.contains("REGRESSION")),
            "observability invariants broke: {:?}",
            e.notes
        );
        // Latency breakdown: four phases; differential: five quantities;
        // critical path: structural vs observed.
        assert_eq!(e.tables[0].1.len(), 4);
        assert_eq!(e.tables[1].1.len(), 5);
        assert_eq!(e.tables[2].1.len(), 2);
    }
}
