//! `repro` — regenerate every table and figure of the Nexus++ paper.
//!
//! ```text
//! repro <experiment> [--full] [--quick] [--csv <dir>]
//!
//! experiments:
//!   table2     Gaussian task counts / weights        (Table II)
//!   table4     system parameters + storage budget    (Table IV, ≤210 KB)
//!   fig4       dependency patterns & ramp profile    (Figure 4)
//!   fig6       design-space exploration              (Figure 6)
//!   fig7       pattern speedups vs cores             (Figure 7)
//!   fig8       Gaussian speedups vs cores            (Figure 8)
//!   headline   54× / 143× / 221× independent tasks   (§V)
//!   nexus-vs   classic Nexus feasibility & lookups   (§I, §III-B)
//!   rts        software RTS bottleneck               (§I motivation)
//!   ablate     buffering depth / bus / kick-off size (design ablations)
//!   video      multi-frame H.264 pipelining          (extension)
//!   shards     multi-Maestro shard scaling           (extension)
//!   capacity   bounded shard tables, stall/retry     (extension)
//!   wakes      wake delivery, kick-off FIFO depths   (extension)
//!   observe    lifecycle tracing & critical path     (extension)
//!   all        everything above
//!
//! flags:
//!   --full     include long configurations (Gaussian n = 3000, 5000)
//!   --quick    shrink sweeps (smoke test)
//!   --csv DIR  also write CSV files under DIR
//!
//! other subcommands (own flags):
//!   watch       live dashboard over a streaming run
//!               [--quick] [--csv DIR] [--frames N]
//! ```
//!
//! Exit status: 0 when every self-check of every experiment run held,
//! 1 when any failed (each prints as a `REGRESSION:` line), 2 on a
//! usage error. Timings of the threaded layers are not `repro`'s job:
//! the repository's benchmark is `e2e` (`crates/bench/src/bin/e2e/`).

use nexuspp_bench::experiments::{exit_code, EXPERIMENTS};
use nexuspp_bench::{watch, ExpOptions};
use std::io::IsTerminal;
use std::time::Instant;

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <{}|all> [--full] [--quick] [--csv DIR]\n       \
         repro watch [--quick] [--csv DIR] [--frames N]",
        names.join("|")
    );
    std::process::exit(2);
}

/// `repro watch [--quick] [--csv DIR] [--frames N]` — drive a live run
/// and render the collector's dashboard until the frame budget runs
/// out. Repaints in place on a terminal; appends frames when piped.
fn watch_cmd(args: impl Iterator<Item = String>) -> ! {
    let mut opts = watch::WatchOptions {
        ansi: std::io::stdout().is_terminal(),
        ..watch::WatchOptions::default()
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                opts = watch::WatchOptions {
                    ansi: opts.ansi,
                    csv_dir: opts.csv_dir.clone(),
                    ..watch::WatchOptions::quick()
                };
            }
            "--csv" => {
                let dir = args.next().unwrap_or_else(|| usage());
                opts.csv_dir = Some(dir.into());
            }
            "--frames" => {
                let n = args.next().unwrap_or_else(|| usage());
                opts.frames = n.parse().unwrap_or_else(|e| {
                    eprintln!("bad --frames {n:?}: {e}");
                    usage()
                });
            }
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    let mut stdout = std::io::stdout().lock();
    match watch::run_watch(&opts, &mut stdout) {
        Ok(summary) => {
            if summary.violations > 0 {
                eprintln!(
                    "[watch] {} lifecycle violations observed",
                    summary.violations
                );
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[watch] io error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(which) = args.next() else { usage() };
    if which == "watch" {
        watch_cmd(args);
    }
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        usage();
    }
    let mut opts = ExpOptions::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--full" => opts.full = true,
            "--quick" => opts.quick = true,
            "--csv" => {
                let dir = args.next().unwrap_or_else(|| usage());
                opts.out_dir = Some(dir.into());
            }
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    let t0 = Instant::now();
    let mut ran = Vec::new();
    for (_, experiment) in selected {
        let e = experiment(&opts);
        println!("{}", e.render());
        if let Some(dir) = &opts.out_dir {
            if let Err(err) = e.write_csv(dir) {
                eprintln!("failed to write CSV for {}: {err}", e.id);
            }
        }
        ran.push(e);
    }
    eprintln!("[repro] completed in {:.1}s", t0.elapsed().as_secs_f64());
    let code = exit_code(&ran);
    if code != 0 {
        eprintln!("[repro] self-checks failed (see the REGRESSION lines)");
    }
    std::process::exit(code);
}
