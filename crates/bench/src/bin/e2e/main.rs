//! `e2e` — the repository's benchmark: six workloads, end-to-end tasks/s
//! and CPU per task, and a per-layer ledger measured from outside the
//! crates. See `README.md` beside this file for the tables and for how
//! later changes are to be judged with it.
//!
//! ```text
//! e2e --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! e2e [--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat K]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints a
//! report line, then — last — the result line the benchmark driver
//! reads. Without, it runs every workload in a fresh process each
//! (`--repeat K`: the whole set K times) and ends with a summary.

mod body;
mod checks;
mod env;
mod gen;
mod harness;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workloads;

use harness::{Outcome, SHARDS, WORKERS};
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The seed a run without `--seed` uses.
const DEFAULT_SEED: u64 = 1;
/// How long a run without `--seconds` measures (`run_seconds` in
/// `BENCHMARK.json`): at least nine rounds of the slowest workload.
const DEFAULT_SECONDS: f64 = 15.0;

pub struct Config {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, two rounds: the unit-test pass through every workload.
    pub quick: bool,
    pub repeat: usize,
    /// Where the span file goes: cargo's target directory.
    pub out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
        out_dir: std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| *w == name);
                cfg.workload = Some(known.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cfg.quick = true,
            "--repeat" => {
                cfg.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if cfg.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.workload.is_some() && cfg.repeat > 1 {
        return Err("--repeat runs every workload; drop --workload".into());
    }
    Ok(cfg)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The line the benchmark driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = metric_defs(trace)
        .iter()
        .map(|d| {
            let value = out.samples.median(d.name);
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(d.name),
                json_str(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics.join(", ")
    )
}

/// The human-facing line: everything the result line has, plus the
/// quartiles and sample counts, the seed, the machine and the run shape.
fn report_line(out: &Outcome, cfg: &Config) -> String {
    let stamp = env::stamp();
    let metrics: Vec<String> = metric_defs(cfg.trace)
        .iter()
        .map(|d| {
            let s = out.samples.summary(d.name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json_str(d.name),
                s.value,
                json_str(d.unit),
                s.q1,
                s.q3,
                s.n
            )
        })
        .collect();
    let self_ms: Vec<String> = out
        .self_ms
        .iter()
        .map(|(name, ms)| format!("{}: {ms:.3}", json_str(name)))
        .collect();
    let notes: Vec<String> = out.checks.notes.iter().map(|n| json_str(n)).collect();
    let span_file = out
        .span_file
        .as_ref()
        .map_or("null".into(), |p| json_str(&p.display().to_string()));
    format!(
        "{{\"bench\": \"e2e\", \"workload\": {}, \"seed\": {}, \"trace\": {}, \"quick\": {}, \
         \"env\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \
         \"workers\": {WORKERS}, \"shards\": {SHARDS}}}, \
         \"rounds\": {}, \"round_s\": {:.4}, \"seconds\": {}, \
         \"metrics\": {{{}}}, \"span_self_ms\": {{{}}}, \"span_file\": {}, \
         \"checks\": {{\"attempted\": {}, \"failed\": {}, \"failed_checks\": [{}]}}, \"claim\": null}}",
        json_str(out.workload),
        cfg.seed,
        u8::from(cfg.trace),
        cfg.quick,
        stamp.nproc,
        json_str(&stamp.cpu_model),
        json_str(&stamp.rustc),
        json_str(&stamp.commit),
        out.rounds,
        out.round_s,
        cfg.seconds,
        metrics.join(", "),
        self_ms.join(", "),
        span_file,
        out.checks.attempted,
        out.checks.failed,
        notes.join(", "),
    )
}

/// The value of `name` in a result line this binary printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split_once(&format!("\"{name}\": {{\"value\": "))?.1;
    rest[..rest.find(',')?].parse().ok()
}

/// Run every workload, each in a fresh process, `cfg.repeat` times, and
/// compare the sets' medians with each metric's bound.
fn run_all(cfg: &Config) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    // results[set][workload] = that child's result line.
    let mut results: Vec<Vec<String>> = Vec::new();
    for _ in 0..cfg.repeat {
        let mut set = Vec::new();
        for w in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if cfg.trace { "1" } else { "0" }]);
            if cfg.quick {
                cmd.arg("--quick");
            }
            let out = cmd.output().expect("run a child of this binary");
            let text = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let result = lines.pop().unwrap_or_default().to_string();
            for line in lines {
                println!("{line}");
            }
            if !out.status.success() || !result.starts_with("{\"correct\": true") {
                eprintln!("{w}: failed\n{}", String::from_utf8_lossy(&out.stderr));
                ok = false;
            }
            set.push(result);
        }
        results.push(set);
    }
    // Between any two sets, each (workload, end-to-end metric) median
    // must agree within that metric's bound.
    let mut rows = Vec::new();
    if !cfg.trace {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            for d in END_TO_END {
                let values: Vec<f64> = results
                    .iter()
                    .filter_map(|set| metric_in(&set[wi], d.name))
                    .collect();
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let disagreement = if values.len() < 2 {
                    0.0
                } else {
                    (hi - lo) / lo
                };
                let within = values.len() == cfg.repeat && disagreement <= d.bound;
                ok &= within;
                rows.push(format!(
                    "{{\"workload\": {}, \"metric\": {}, \"values\": {values:?}, \
                     \"disagreement\": {disagreement:.4}, \"bound\": {}, \"within\": {within}}}",
                    json_str(w),
                    json_str(d.name),
                    d.bound
                ));
            }
        }
    }
    println!(
        "{{\"bench\": \"e2e\", \"sets\": {}, \"seed\": {}, \"ok\": {ok}, \"agreement\": [{}], \"claim\": null}}",
        cfg.repeat,
        cfg.seed,
        rows.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(64);
        }
    };
    let Some(workload) = cfg.workload else {
        return run_all(&cfg);
    };
    let out = harness::run_workload(workload, &cfg);
    println!("{}", report_line(&out, &cfg));
    println!("{}", result_line(&out, cfg.trace));
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cfg = parse_args(&args(
            "--workload rt_gaussian --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cfg.workload, Some("rt_gaussian"));
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace yes")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--workload rt_gaussian --repeat 2")).is_err());
        let all = parse_args(&args("--repeat 2")).unwrap();
        assert_eq!(
            (all.workload, all.repeat, all.seed),
            (None, 2, DEFAULT_SEED)
        );
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// Tiny sizes, two rounds, every check on, tracing off and on: all
    /// six workloads end to end, and each result line carries exactly
    /// the declared metrics.
    #[test]
    fn quick_pass_through_every_workload() {
        let started = std::time::Instant::now();
        for trace in [false, true] {
            for w in WORKLOADS {
                let cfg = Config {
                    workload: Some(w),
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    repeat: 1,
                    out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"),
                };
                let out = harness::run_workload(w, &cfg);
                assert_eq!(out.checks.failed, 0, "{w}: {:?}", out.checks.notes);
                assert!(out.checks.attempted > 0 && out.rounds >= 2);
                let line = result_line(&out, trace);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                for d in metric_defs(trace) {
                    let v =
                        metric_in(&line, d.name).unwrap_or_else(|| panic!("{} missing", d.name));
                    // A quick round is shorter than the 10 ms CPU tick.
                    let may_be_zero = trace || d.name == "cpu_us_per_task";
                    assert!(
                        v.is_finite() && (may_be_zero || v > 0.0),
                        "{w}: {} = {v}",
                        d.name
                    );
                }
                assert_eq!(line.matches("\"value\"").count(), metric_defs(trace).len());
                let report = report_line(&out, &cfg);
                assert!(report.ends_with("\"claim\": null}"));
                nexuspp_obs::validate_json(&line).expect("result line is JSON");
                nexuspp_obs::validate_json(&report).expect("report line is JSON");
                if trace {
                    let file = out.span_file.expect("a traced run writes its spans");
                    assert!(std::fs::metadata(&file).unwrap().len() > 0);
                    let ledger: f64 = metrics::LEDGER_ROWS
                        .iter()
                        .map(|r| out.samples.median(r))
                        .sum();
                    let total = out.samples.median("ledger.total_ns_per_task");
                    assert!((ledger - total).abs() <= 1e-6 * total.abs().max(1.0));
                }
            }
        }
        assert!(
            started.elapsed().as_secs() < 60,
            "quick pass took {:?}",
            started.elapsed()
        );
    }
}
