//! The paper's artefacts and the model-side studies, one function each.
//!
//! Every function returns an [`Experiment`] — tables, self-checks, CSV —
//! so the `repro` binary and the tier-1 tests share one implementation.
//! Each checkable statement of the paper is one entry of [`CLAIMS`]: its
//! paper value, its band and the configuration it is measured at are
//! written there and nowhere else. The experiment an id's prefix names
//! evaluates it in every mode, `--quick` included, and a value outside
//! the band fails like any other self-check.
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
use nexuspp_core::NexusConfig;
use nexuspp_desim::SimTime;
use nexuspp_taskmachine::baseline::{
    classic_check_trace, ideal_makespan, simulate_software_rts, ClassicLimits, SoftwareRtsConfig,
};
use nexuspp_taskmachine::hw::{
    BusConfig, MemoryConfig, StorageBudget, StorageParams, TASK_SUPERSCALAR_BYTES,
};
use nexuspp_taskmachine::{simulate, simulate_trace, MachineConfig, NEXUS_CLOCK_PERIOD};
use nexuspp_trace::TraceSource;
use nexuspp_workloads::analysis::parallelism_profile;
use nexuspp_workloads::{stress, GaussianSpec, GridPattern, GridSpec, VideoSpec};
use std::fmt::Write as _;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;
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

/// The interval a measured quantity must fall in, as [`RangeBounds`]
/// reads a pair of bounds.
pub(crate) type Band = (Bound<f64>, Bound<f64>);

/// One checkable statement of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// `<experiment>.<name>`: the experiment that evaluates it, then a
    /// name.
    pub id: &'static str,
    /// Where the paper makes it: figure, table or section.
    pub source: &'static str,
    /// The value the paper states, when it states one.
    pub paper: Option<f64>,
    /// The band the measured quantity must fall in.
    pub band: Band,
    /// The measured quantity and the configuration it is measured at.
    pub config: &'static str,
}

const fn claim(
    id: &'static str,
    source: &'static str,
    paper: Option<f64>,
    band: Band,
    config: &'static str,
) -> Claim {
    Claim {
        id,
        source,
        paper,
        band,
        config,
    }
}

const fn above(x: f64) -> Band {
    (Excluded(x), Unbounded)
}

const fn below(x: f64) -> Band {
    (Unbounded, Excluded(x))
}

const fn exactly(x: f64) -> Band {
    (Included(x), Included(x))
}

/// `[lo, hi)`.
const fn within(lo: f64, hi: f64) -> Band {
    (Included(lo), Excluded(hi))
}

/// `[0.7, 1.4)` of the paper's value.
const fn near(paper: f64) -> Band {
    within(0.7 * paper, 1.4 * paper)
}

/// Every claim of the paper's evaluation, each written once. README.md,
/// "Reproducing the paper", lists the ids beside the readings.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    claim("table2.n250", "Table II", Some(31_374.0), exactly(31_374.0), "tasks generated, n = 250"),
    claim("table2.n500", "Table II", Some(125_249.0), exactly(125_249.0), "tasks generated, n = 500"),
    claim("table2.n1000", "Table II", Some(500_499.0), exactly(500_499.0), "tasks generated, n = 1000"),
    claim("table2.n3000", "Table II", Some(4_501_499.0), exactly(4_501_499.0), "tasks, n = 3000, closed form unless --full"),
    claim("table2.n5000", "Table II", Some(12_502_499.0), exactly(12_502_499.0), "tasks, n = 5000, closed form unless --full"),
    claim("table4.storage-kb", "Table IV, §V", Some(210.0), (Unbounded, Included(210.0)), "KB of all tables and FIFO lists at Table IV's sizes"),
    claim("table4.vs-task-superscalar", "§V", None, above(10.0), "Task Superscalar's storage over ours"),
    claim("fig4.wavefront-critical-path", "Figure 4", None, exactly(306.0), "critical path of the 120×68 wavefront, in tasks"),
    claim("fig6.tp512", "Figure 6", None, below(1.10), "makespan at TP 512 over TP 8K, DT 8K, 256 cores, contention-free"),
    claim("fig6.tp128", "Figure 6", None, above(1.0), "makespan at TP 128 over TP 512, DT 8K, 256 cores, contention-free"),
    claim("fig6.dt256", "Figure 6", None, above(2.0), "makespan at DT 256 over DT 8K, TP 8K, 256 cores, contention-free"),
    claim("fig6.dt256-stalls", "Figure 6", None, above(0.0), "Check Deps stalls at DT 256, TP 8K, 256 cores, contention-free"),
    claim("fig7.vertical-over-horizontal", "Figure 7", None, above(2.0), "vertical speedup over horizontal, 64 cores"),
    claim("fig7.horizontal", "Figure 7", None, below(20.0), "horizontal speedup, 64 cores; the Task Pool window limits it"),
    claim("fig7.vertical", "Figure 7", None, above(30.0), "vertical speedup, 64 cores"),
    claim("fig7.independent-over-wavefront", "Figure 7", None, above(1.0), "independent speedup over wavefront, 64 cores"),
    claim("fig7.wavefront", "Figure 7", None, below(27.0), "wavefront speedup, 64 cores; its ramp bounds it at 8160 / 306"),
    claim("fig8.n250-4", "Figure 8", Some(2.3), within(1.5, 5.0), "speedup, n = 250, 4 cores"),
    claim("fig8.n250-flat", "Figure 8", None, below(1.5), "speedup at n = 250, 64 cores over 4 cores"),
    claim("fig8.n1000-scales", "Figure 8", None, above(2.0), "speedup at 64 cores, n = 1000 over n = 250"),
    claim("headline.c64", "§V", Some(54.0), near(54.0), "speedup, independent tasks, 64 cores, memory contention"),
    claim("headline.cf256", "§V", Some(143.0), near(143.0), "speedup, independent tasks, 256 cores, contention-free"),
    claim("headline.noprep256", "§V", Some(221.0), near(221.0), "speedup, independent tasks, 256 cores, contention-free, no task preparation"),
    claim("headline.contention-caps", "§V", None, above(2.0), "speedup at 256 cores contention-free over 64 cores contended"),
    claim("headline.prep-limits", "§V", None, above(1.2), "speedup at 256 cores contention-free, without task preparation over with it"),
    claim("ablate.double-buffering", "§V", None, above(1.2), "wavefront makespan at buffering depth 1 over depth 2, 16 cores"),
    claim("nexus-vs.classic-rejects", "§I, §III-B", None, above(0.0), "reasons classic Nexus rejects Gaussian n = 500"),
    claim("nexus-vs.classic-waiters", "§I, §III-B", None, above(8.0), "most waiters on one segment, Gaussian n = 500"),
    claim("nexus-vs.dummy-entries", "§III-B", None, above(100.0), "kick-off dummy entries, Gaussian n = 500 on Nexus++, 8 cores"),
    claim("nexus-vs.waiters-live", "§III-B", None, above(100.0), "peak live waiters, Gaussian n = 500 on Nexus++, 8 cores"),
    claim("rts.sw16", "§I", None, below(8.0), "software RTS speedup, independent tasks, 16 cores"),
    claim("rts.sw-saturates", "§I", None, below(1.3), "software RTS speedup at 64 cores over 16 cores"),
    claim("rts.sw-over-hw16", "§I", None, above(2.0), "software RTS makespan over Nexus++'s, 16 cores"),
    claim("rts.sw-over-hw64", "§I", None, above(2.0), "software RTS makespan over Nexus++'s, 64 cores"),
];

/// `x` with at most three decimals and no trailing zeros.
fn num(x: f64) -> String {
    let s = format!("{x:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn show_band((lo, hi): Band) -> String {
    let lo = match lo {
        Included(x) => format!("[{}", num(x)),
        Excluded(x) => format!("({}", num(x)),
        Unbounded => "(-inf".to_string(),
    };
    let hi = match hi {
        Included(x) => format!("{}]", num(x)),
        Excluded(x) => format!("{})", num(x)),
        Unbounded => "inf)".to_string(),
    };
    format!("{lo}, {hi}")
}

/// The registry entry `id`; an unregistered id is a bug in the caller.
fn claim_by_id(id: &str) -> &'static Claim {
    CLAIMS
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("claim {id} is not in CLAIMS"))
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
    /// Self-checks and claims that did not hold. Each renders as a
    /// `REGRESSION` line, and any one makes `repro` exit 1 (see
    /// [`exit_code`]).
    pub failures: Vec<String>,
    /// Ids of the [`CLAIMS`] this run evaluated, held or not.
    pub claims: Vec<&'static str>,
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
            claims: Vec::new(),
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

    /// The [`CLAIMS`] this experiment owns (their id prefix is its id)
    /// that this run did not evaluate.
    pub fn unevaluated(&self) -> Vec<&'static str> {
        let owned = |id: &&str| id.split_once('.').is_some_and(|(o, _)| o == self.id);
        let ids = CLAIMS.iter().map(|c| c.id).filter(owned);
        ids.filter(|id| !self.claims.contains(id)).collect()
    }

    /// Evaluate the registry's claim `id` on `measured`. Outside the
    /// claim's band it is a failure that names the id, the value, the
    /// band and the paper's value.
    fn claim(&mut self, id: &'static str, measured: f64) {
        let c = claim_by_id(id);
        self.claims.push(c.id);
        self.check(c.band.contains(&measured), || {
            let paper = c.paper.map_or("not stated".to_string(), num);
            format!(
                "{id} ({}; {}): measured {}, band {}, paper {paper}",
                c.source,
                c.config,
                num(measured),
                show_band(c.band)
            )
        });
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
    // The paper's average FLOPs per task, printed beside ours; its task
    // counts are the `table2.*` claims.
    let paper: &[(u32, &'static str, f64)] = &[
        (250, "table2.n250", 167.0),
        (500, "table2.n500", 334.0),
        (1000, "table2.n1000", 667.0),
        (3000, "table2.n3000", 2012.0),
        (5000, "table2.n5000", 3523.0),
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
    for &(n, id, avg) in paper {
        let spec = GaussianSpec::new(n);
        // For moderate n, verify the closed form by actually generating.
        let closed = spec.task_count();
        let counted = if n <= 1000 || opts.full {
            let mut src = spec.source();
            std::iter::from_fn(|| src.next_task()).count() as u64
        } else {
            closed
        };
        e.check(counted == closed, || {
            format!("n={n}: generated {counted} tasks, closed form {closed}")
        });
        e.claim(id, counted as f64);
        t.row(vec![
            n.to_string(),
            num(claim_by_id(id).paper.expect("Table II states its counts")),
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
    let (mem, nexus) = (&cfg.memory, &cfg.nexus);
    for (name, value) in [
        ("Cores clock freq.", "2.0 GHz".to_string()),
        (
            "Nexus++ clock freq.",
            format!("{NEXUS_CLOCK_PERIOD} (500 MHz)"),
        ),
        ("On-chip access time", cfg.sram.access.to_string()),
        (
            "Off-chip access time",
            format!("{} / {} B chunk", mem.chunk_time, mem.chunk_bytes),
        ),
        (
            "Memory bandwidth",
            format!("{:.2} GB/s", mem.peak_bandwidth_gbps()),
        ),
        (
            "Memory banks / concurrent accessors",
            mem.slots().to_string(),
        ),
        (
            "Task Pool",
            format!("{} TDs × 78 B", nexus.task_pool_entries),
        ),
        ("Parameters per TD", nexus.params_per_td.to_string()),
        (
            "Dependence Table",
            format!("{} entries × 28 B", nexus.dep_table_entries),
        ),
        (
            "Kick-Off list size",
            format!("{} task IDs", nexus.kickoff_entries),
        ),
        ("Buffering depth", cfg.buffering_depth.to_string()),
        ("Task preparation", cfg.master.prep_time.to_string()),
    ] {
        params.row(vec![name.to_string(), value]);
    }

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
    e.claim("table4.storage-kb", total_kb);
    e.claim(
        "table4.vs-task-superscalar",
        TASK_SUPERSCALAR_BYTES as f64 / budget.total() as f64,
    );
    e.note(format!("total {total_kb:.1} KB"));
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
    let mut e = Experiment::new("fig4", "Dependency patterns (120×68 blocks)");
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
            e.claim("fig4.wavefront-critical-path", p.critical_path() as f64);
            for (i, w) in p.widths.iter().enumerate() {
                ramp.row(vec![i.to_string(), w.to_string()]);
            }
        }
    }
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
    let mut e = Experiment::new(
        "fig6",
        format!("Design space exploration ({workers} cores, contention-free, independent tasks)"),
    );

    // The claims, at the paper's 256 cores in every mode.
    let at256 = |tp, dt| simulate_trace(fig6_machine(256, tp, dt), &trace).expect("fig6 claim");
    let (full, tp512, tp128, dt256) = (
        at256(8192, 8192),
        at256(512, 8192),
        at256(128, 8192),
        at256(8192, 256),
    );
    e.claim("fig6.tp512", tp512.makespan / full.makespan);
    e.claim("fig6.tp128", tp128.makespan / tp512.makespan);
    e.claim("fig6.dt256", dt256.makespan / full.makespan);
    e.claim("fig6.dt256-stalls", dt256.check_deps.stalls as f64);

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

    e.table("Speedup & chains vs Dependence Table size", dt_table);
    e.table("Speedup vs Task Pool size", tp_table);
    e.note(
        "paper: speedup peaks (headline.cf256) from DT = 2K upward; chains ≈ halve from 2K → 4K",
    );
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
    let results: Vec<Vec<f64>> = GridPattern::all()
        .iter()
        .map(|&pat| {
            let trace = GridSpec::default().generate(pat);
            let run =
                |w| simulate_trace(MachineConfig::with_workers(w), &trace).expect("fig7 point");
            let base = run(1).makespan;
            let speedup = |w| if w == 1 { 1.0 } else { base / run(w).makespan };
            counts.iter().map(|&w| speedup(w)).collect()
        })
        .collect();
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
    // Every sweep ends at the claims' 64 cores; columns follow
    // `GridPattern::all()`.
    let at64 = counts.iter().position(|&w| w == 64).expect("swept");
    let [independent, wavefront, horizontal, vertical] =
        [0, 1, 2, 3].map(|p: usize| results[p][at64]);
    e.claim("fig7.vertical-over-horizontal", vertical / horizontal);
    e.claim("fig7.horizontal", horizontal);
    e.claim("fig7.vertical", vertical);
    e.claim("fig7.independent-over-wavefront", independent / wavefront);
    e.claim("fig7.wavefront", wavefront);
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
    let run = |n: u32, cfg: MachineConfig| {
        let mut src = GaussianSpec::new(n).source();
        simulate(cfg, &mut src).expect("fig8 point").makespan
    };
    // Speedups of size n at each of `counts`.
    let column = |n: u32, cfg: fn(usize) -> MachineConfig| -> Vec<f64> {
        let base = run(n, cfg(1));
        let speedup = |w| base / run(n, cfg(w));
        counts
            .iter()
            .map(|&w| if w == 1 { 1.0 } else { speedup(w) })
            .collect()
    };
    let biggest = *sizes.last().expect("nonempty");
    // Every column is independent of the others and deterministic, so
    // each runs on a thread of its own, and so do the two runs of the
    // claims' n = 1000 point, which --quick does not sweep.
    let (cols, cf_col, s1000_64) = std::thread::scope(|s| {
        let cols: Vec<_> = sizes
            .iter()
            .map(|&n| s.spawn(move || column(n, MachineConfig::with_workers)))
            .collect();
        let cf_col = s.spawn(|| {
            column(biggest, |w| {
                MachineConfig::with_workers(w).contention_free()
            })
        });
        let n1000 = |w| s.spawn(move || run(1000, MachineConfig::with_workers(w)));
        let (one, many) = (n1000(1), n1000(64));
        let done = "a fig8 run panicked";
        let cols: Vec<Vec<f64>> = cols.into_iter().map(|c| c.join().expect(done)).collect();
        let s1000_64 = one.join().expect(done) / many.join().expect(done);
        (cols, cf_col.join().expect(done), s1000_64)
    });
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
    let mut cf = TextTable::new(vec![
        "cores",
        "contended speedup",
        "contention-free speedup",
    ]);
    let contended = cols.last().expect("nonempty");
    for (i, &w) in counts.iter().enumerate().filter(|&(_, &w)| w > 1) {
        cf.row(vec![w.to_string(), f2(contended[i]), f2(cf_col[i])]);
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
    // Every sweep has n = 250 at 4 and 64 cores.
    let n250 = &cols[sizes.iter().position(|&n| n == 250).expect("swept")];
    let at = |w| n250[counts.iter().position(|&c| c == w).expect("swept")];
    let (s250_4, s250_64) = (at(4), at(64));
    e.claim("fig8.n250-4", s250_4);
    e.claim("fig8.n250-flat", s250_64 / s250_4);
    e.claim("fig8.n1000-scales", s1000_64 / s250_64);
    e.table("Figure 8 (literal memory model, contention on)", t);
    e.table(format!("n={biggest}: memory-contention sensitivity"), cf);
    e.note("paper: n=5000 reaches 45× at 64 cores; n=250 saturates at once (fig8.n250-4)");
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
    for (name, id, ours) in [
        ("64 cores, memory contention", "headline.c64", s64),
        ("256 cores, contention-free", "headline.cf256", s256cf),
        (
            "256 cores, contention-free, no prep delay",
            "headline.noprep256",
            s256np,
        ),
    ] {
        let paper = claim_by_id(id).paper.expect("§V states its speedups");
        t.row(vec![
            name.to_string(),
            format!("{paper:.0}×"),
            format!("{ours:.1}×"),
            f2(ours / paper),
        ]);
        e.claim(id, ours);
    }
    e.claim("headline.contention-caps", s256cf / s64);
    e.claim("headline.prep-limits", s256np / s256cf);
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
pub(crate) fn nexus_vs(opts: &ExpOptions) -> Experiment {
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
    let grid = GridSpec::default();
    for (name, trace) in [
        ("h264-wavefront", grid.generate(GridPattern::Wavefront)),
        ("independent", grid.generate(GridPattern::Independent)),
        (
            "gaussian-250",
            GaussianSpec::new(if opts.quick { 80 } else { 250 }).trace(),
        ),
        ("wide-params-16", stress::wide_params(64, 16, 1000)),
    ] {
        let v = classic_check_trace(&trace, limits, 1024, 2012);
        let verdict = if v.supported { "supported" } else { "REJECTED" };
        t.row(vec![
            name.to_string(),
            verdict.to_string(),
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

    // The claims at Gaussian n = 500, whose pivot-column fan-out reaches
    // n − 2 simultaneous waiters when workers lag the master: classic
    // Nexus rejects it, Nexus++ runs it on kick-off dummy entries.
    let spec = GaussianSpec::new(500);
    let v = classic_check_trace(&spec.trace(), limits, 1024, 2012);
    e.claim("nexus-vs.classic-rejects", v.reasons.len() as f64);
    e.claim("nexus-vs.classic-waiters", v.max_waiters_seen as f64);
    let r = simulate(MachineConfig::with_workers(8), &mut spec.source()).expect("gaussian run");
    let (allocs, promoted) = (r.table.ext_allocs, r.table.promotions);
    e.check(r.tasks == spec.task_count() && promoted == allocs, || {
        format!(
            "Gaussian n = 500 on Nexus++: {} of {} tasks ran, {promoted} of {allocs} dummy \
             entries drained",
            r.tasks,
            spec.task_count()
        )
    });
    e.claim("nexus-vs.dummy-entries", allocs as f64);
    e.claim("nexus-vs.waiters-live", r.table.max_waiters_live as f64);
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

    let sw = |w| simulate_software_rts(&mut trace.clone().into_source(), w, &cfg, &mem);
    let hw = |w| {
        let r = simulate_trace(MachineConfig::with_workers(w), &trace).expect("rts hw");
        r.makespan
    };
    let ideal = |w| ideal_makespan(&mut trace.clone().into_source(), w, &mem);
    let (sw1, hw1, ideal1) = (sw(1), hw(1), ideal(1));
    let mut t = TextTable::new(vec![
        "cores",
        "software RTS speedup",
        "Nexus++ speedup",
        "ideal speedup",
    ]);
    for &w in &counts {
        t.row(vec![
            w.to_string(),
            f2(sw1 / sw(w)),
            f2(hw1 / hw(w)),
            f2(ideal1 / ideal(w)),
        ]);
    }
    let mut e = Experiment::new("rts", "Software RTS bottleneck vs hardware task management");
    e.table("Motivating comparison (independent tasks)", t);

    // The claims at 16 and 64 cores, in every mode.
    let (sw16, sw64) = (sw(16), sw(64));
    e.claim("rts.sw16", sw1 / sw16);
    e.claim("rts.sw-saturates", sw16 / sw64);
    e.claim("rts.sw-over-hw16", sw16 / hw(16));
    e.claim("rts.sw-over-hw64", sw64 / hw(64));

    let stats = trace.stats();
    let per_task = ((cfg.submit_base + cfg.finish_base) * stats.tasks
        + cfg.per_param * (2 * stats.total_params))
        / stats.tasks;
    e.note(format!(
        "the software runtime serializes {per_task} of management per task on the master \
         core (submit and finish, {} parameters per task) and saturates in single digits; \
         Nexus++ tracks the ideal curve until memory contention",
        f2(stats.total_params as f64 / stats.tasks as f64)
    ));
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
    let (prose, worked) = (BusConfig::prose_model(), BusConfig::default());
    for (name, bus, shared_bus) in [
        ("prose bus (2 cyc/word), separate links", prose, false),
        (
            "worked-example bus (6+n cyc), separate links",
            worked,
            false,
        ),
        ("prose bus, shared master/TC bus", prose, true),
    ] {
        let mut cfg =
            MachineConfig::with_workers(if opts.quick { 64 } else { 256 }).contention_free();
        cfg.bus = bus;
        cfg.shared_bus = shared_bus;
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
    // The claim at 16 cores, in every mode.
    let wavefront_at = |depth| {
        let mut cfg = MachineConfig::with_workers(16);
        cfg.buffering_depth = depth;
        simulate_trace(cfg, &wf).expect("depth claim").makespan
    };
    e.claim("ablate.double-buffering", wavefront_at(1) / wavefront_at(2));
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
    let stream = |spec| ShardedStressSpec { exec_ns: 0, ..spec }.generate();
    let balanced = stream(ShardedStressSpec::balanced(n_stress, STEER_SHARDS));
    let hot = stream(ShardedStressSpec::hot_shard(n_stress, STEER_SHARDS));
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
            let speedup = tput / base;
            table.row(vec![
                name.to_string(),
                s.to_string(),
                f1(r.makespan.as_us_f64()),
                f2(tput / 1e6),
                format!("{}x", f2(speedup)),
                f2(r.imbalance()),
                r.peak_shard_queue.to_string(),
            ]);
            if name == "balanced" && s == 4 {
                e.check(tput >= 2.0 * base, || {
                    format!("balanced 4-shard speedup {speedup:.2}x below the 2x acceptance bar")
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
    let mut disp = TextTable::new(vec!["burst", "tasks", "wakes", "wall ms", "delivery us"]);
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
        disp.row(vec![
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
        let most = spec.wake_count();
        e.check(delivered > 0 && delivered <= most, || {
            format!("model delivered {delivered} kick-offs of at most {most}")
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

    e.table("Threaded dispatcher (4 finisher workers, hot shard)", disp);
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
            let stalls = r.master_capacity_stalls;
            modeled.row(vec![
                name.to_string(),
                cap.to_string(),
                f1(r.makespan.as_us_f64()),
                f2(r.tasks_per_sec() / 1e6),
                stalls.to_string(),
                resolved.to_string(),
                r.peak_shard_queue.to_string(),
            ]);
            e.check(r.shard_stalls == r.shard_retries_resolved, || {
                format!(
                    "{name} at C={cap}: unresolved stall episodes ({:?} vs {:?})",
                    r.shard_stalls, r.shard_retries_resolved
                )
            });
            e.check(cap.is_bounded() || stalls == 0, || {
                format!("{name}: unbounded tables reported {stalls} stalls")
            });
            e.check(cap != ShardCapacity::Bounded(1) || stalls > 0, || {
                format!("{name}: capacity 1 never stalled the master")
            });
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

    let (chains, chain_len, cells, steps) = if opts.quick {
        (4, 4, 6, 3)
    } else {
        (8, 8, 12, 6)
    };
    let spec = VersionStressSpec {
        chains,
        chain_len,
        cells,
        steps,
        exec_ns: 0,
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
    // Join the workers before reading either record: a worker that goes
    // idle after the barrier records its park, which would otherwise land
    // between the counter snapshot and the drain.
    rt.shutdown();
    let sched = rt.sched_counts();
    let woken = rt.wake_counts().delivered;
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
    let submitted = snap.get("tasks", "submitted").unwrap_or(0);
    diff_row("tasks submitted", count(EventKind::Submitted), submitted);
    diff_row("tasks finished", count(EventKind::Finished), n);
    diff_row("wakes delivered", count(EventKind::WakeDelivered), woken);
    diff_row("steals", count(EventKind::Stolen), sched.steals);
    let recorded = snap.get("events", "recorded").unwrap_or(0);
    diff_row("events recorded", events.len() as u64, recorded);
    e.check(rec.dropped() == 0, || {
        format!("{} events dropped (ring overflow)", rec.dropped())
    });

    // Table 3: observed vs structural critical path.
    let observed = tracker.critical_path();
    let mut cp_t = TextTable::new(vec!["critical path", "length (tasks)"]);
    for (path, len) in [
        ("structural (lowered DAG)", structural),
        ("observed (waker edges)", observed.length),
    ] {
        cp_t.row(vec![path.to_string(), len.to_string()]);
    }
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
         (sharded runtime, post-lock wake hand-off), 1ms per-task sleep"
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
pub(crate) type ExperimentFn = fn(&ExpOptions) -> Experiment;

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
        assert!(e.failures.is_empty(), "{}: {:?}", e.id, e.failures);
        assert!(e.unevaluated().is_empty(), "{:?}", e.unevaluated());
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

        // A claim fails the same way, and its line says which and why.
        let mut e = Experiment::new("fig8", "claim plumbing");
        e.claim("fig8.n250-4", f64::NAN);
        assert_eq!(e.claims, ["fig8.n250-4"]);
        let c = claim_by_id("fig8.n250-4");
        let expect = format!(
            "fig8.n250-4 ({}; {}): measured NaN, band {}, paper {}",
            c.source,
            c.config,
            show_band(c.band),
            num(c.paper.unwrap())
        );
        assert_eq!(e.failures, [expect]);
    }

    #[test]
    fn table4_budget_holds() {
        assert_passes(&table4(&quick()));
    }

    #[test]
    fn fig4_wavefront_profile_shape() {
        assert_passes(&fig4(&quick()));
    }

    #[test]
    fn headline_within_band() {
        let e = headline(&quick());
        assert_passes(&e);
        assert_eq!(e.tables[0].1.len(), 3);
    }

    #[test]
    fn table2_rows_match_paper_counts() {
        let e = table2(&quick());
        assert_passes(&e);
        assert_eq!(e.tables[0].1.len(), 5);
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
