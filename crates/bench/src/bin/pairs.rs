//! `pairs` — judge a change against its parent with `e2e` runs that
//! sample link layout, and print a verdict per (workload, metric).
//!
//! ```text
//! pairs --parent DIR --change DIR [--seed N] [--seconds S]
//!       [--workload W]... [--trace 0|1] [--out DIR]
//! ```
//!
//! `DIR` is a source tree of this workspace (a `git archive` of a commit,
//! say). For each side it builds [`LAYOUTS`] `e2e` binaries that differ
//! only in link layout: `cargo rustc --release -p nexuspp-bench --bin
//! e2e` relinks just the binary with
//! `-C link-arg=-Wl,--shuffle-sections=*=<seed>`, the parent with layout
//! seeds `1..=4` and the change with `5..=8`, so even two identical trees
//! are compared across different layouts. It then runs [`PAIRS`] pairs
//! per workload, one run of each side, alternating which side goes first
//! and cycling through the layouts, for the change's `BENCHMARK.json`
//! `run_seconds` (or `--seconds`). The samples of all layouts are pooled.
//!
//! Each workload's metric has a **layout floor**: how far apart the
//! parent's per-layout medians lie, as a share of its median — what
//! relinking alone moves it. A (workload, metric) is a **claim** when the
//! change is better in at least nine of ten pairs and its median beats
//! the parent's by more than both the parent's inter-quartile range and
//! the layout floor; **regressed** is the same rule the other way;
//! anything else is **unresolved**. A tie counts for neither side. The
//! metrics and their directions are `BENCHMARK.json`'s `end_to_end` list
//! (`per_layer` with `--trace 1`).
//!
//! Every run's output goes to `<out>/runs.log`.
//!
//! Exit status: 0 when nothing regressed and every run passed its checks,
//! 1 otherwise, 2 on a usage error or a failed build.

#[allow(dead_code)]
#[path = "e2e/stats.rs"]
mod stats;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Pairs run per workload: the fewest the nine-of-ten rule can judge.
const PAIRS: usize = 10;

/// Link layouts built per side.
const LAYOUTS: usize = 4;

/// What a (workload, metric) reads after its pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Claim,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Claim => "claim",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// How much better `change` reads than `parent`; negative when worse.
fn gain(parent: f64, change: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        change - parent
    } else {
        parent - change
    }
}

/// The verdict on `pairs` of `(parent, change)` samples of one metric
/// whose layout floor is `floor` (a share of the parent's median). The
/// change wins a pair when its sample is better, loses it when worse; a
/// tie counts for neither. A side that wins at least nine pairs in ten
/// and whose median is better than the other's by more than both the
/// parent's inter-quartile range and the floor decides the verdict.
fn verdict(pairs: &[(f64, f64)], higher_is_better: bool, floor: f64) -> Verdict {
    let n = pairs.len();
    if n == 0 {
        return Verdict::Unresolved;
    }
    let wins = pairs
        .iter()
        .filter(|&&(p, c)| gain(p, c, higher_is_better) > 0.0)
        .count();
    let losses = pairs
        .iter()
        .filter(|&&(p, c)| gain(p, c, higher_is_better) < 0.0)
        .count();
    let parent: Vec<f64> = pairs.iter().map(|&(p, _)| p).collect();
    let change: Vec<f64> = pairs.iter().map(|&(_, c)| c).collect();
    let [q1, parent_median, q3] = stats::quartiles(&parent);
    let median_gain = gain(parent_median, stats::median(&change), higher_is_better);
    let margin = (q3 - q1).max(floor * parent_median.abs());
    let decisive = |count: usize| count * 10 >= n * 9;
    if decisive(wins) && median_gain > margin {
        Verdict::Claim
    } else if decisive(losses) && -median_gain > margin {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// How far apart the per-layout medians of `samples` (`(layout,
/// value)`) lie, as a share of the pooled median.
fn layout_floor(samples: &[(usize, f64)]) -> f64 {
    let mut layouts: Vec<usize> = samples.iter().map(|&(l, _)| l).collect();
    layouts.sort_unstable();
    layouts.dedup();
    let medians: Vec<f64> = layouts
        .iter()
        .map(|&l| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|&&(k, _)| k == l)
                .map(|&(_, v)| v)
                .collect();
            stats::median(&v)
        })
        .collect();
    let pooled: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
    let (lo, hi) = medians
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &m| (lo.min(m), hi.max(m)));
    let mid = stats::median(&pooled);
    if medians.is_empty() || mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid.abs()
    }
}

/// A metric the benchmark declares: its name and whether higher is
/// better.
struct Metric {
    name: String,
    higher_is_better: bool,
}

/// What the driver needs from `BENCHMARK.json`.
struct Spec {
    workloads: Vec<String>,
    run_seconds: f64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// The string value of `"key": "..."` in `obj`.
fn string_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let rest = obj.split_once(&format!("\"{key}\": \""))?.1;
    Some(&rest[..rest.find('"')?])
}

/// The `{...}` objects of the array `"key": [...]` in `json` (flat
/// objects only, as `BENCHMARK.json` holds).
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let Some((_, rest)) = json.split_once(&format!("\"{key}\": [")) else {
        return Vec::new();
    };
    let body = &rest[..rest.find(']').unwrap_or(rest.len())];
    body.split('}')
        .filter_map(|o| o.split_once('{').map(|(_, inner)| inner))
        .collect()
}

fn parse_spec(json: &str) -> Result<Spec, String> {
    let metrics = |key: &str| -> Vec<Metric> {
        objects(json, key)
            .into_iter()
            .filter_map(|o| {
                Some(Metric {
                    name: string_field(o, "name")?.to_string(),
                    higher_is_better: string_field(o, "better")? == "higher",
                })
            })
            .collect()
    };
    let workloads: Vec<String> = objects(json, "workloads")
        .into_iter()
        .filter_map(|o| string_field(o, "name").map(str::to_string))
        .collect();
    let run_seconds = json
        .split_once("\"run_seconds\": ")
        .and_then(|(_, rest)| {
            let end = rest.find([',', '\n', '}'])?;
            rest[..end].trim().parse().ok()
        })
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let spec = Spec {
        workloads,
        run_seconds,
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    };
    if spec.workloads.is_empty() || spec.end_to_end.is_empty() {
        return Err("BENCHMARK.json: no workloads or no end_to_end metrics".into());
    }
    Ok(spec)
}

/// The value of `name` in an `e2e` result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split_once(&format!("\"{name}\": {{\"value\": "))?.1;
    rest[..rest.find(',')?].parse().ok()
}

struct Config {
    parent: PathBuf,
    change: PathBuf,
    seed: u64,
    seconds: Option<f64>,
    workloads: Vec<String>,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        parent: PathBuf::new(),
        change: PathBuf::new(),
        seed: 1,
        seconds: None,
        workloads: Vec::new(),
        trace: false,
        out: PathBuf::from("target/pairs"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |what: &str| format!("{flag}: not {what}: {value}");
        match flag.as_str() {
            "--parent" => cfg.parent = PathBuf::from(value),
            "--change" => cfg.change = PathBuf::from(value),
            "--seed" => cfg.seed = value.parse().map_err(|_| number("a seed"))?,
            "--seconds" => cfg.seconds = Some(value.parse().map_err(|_| number("seconds"))?),
            "--workload" => cfg.workloads.push(value.clone()),
            "--trace" => cfg.trace = value == "1",
            "--out" => cfg.out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.parent.as_os_str().is_empty() || cfg.change.as_os_str().is_empty() {
        return Err("--parent and --change are required".into());
    }
    // Runs start in `out`, so the binaries' paths must not be relative.
    cfg.out = std::path::absolute(&cfg.out).map_err(|e| format!("--out: {e}"))?;
    Ok(cfg)
}

/// Build side `side`'s binary for each layout seed, relinking only the
/// `e2e` binary after the first; returns their paths.
fn build_side(
    cfg: &Config,
    side: &str,
    tree: &Path,
    seeds: &[usize],
) -> Result<Vec<PathBuf>, String> {
    let target = cfg.out.join(format!("target-{side}"));
    let mut bins = Vec::new();
    for &seed in seeds {
        eprintln!("pairs: building {side} e2e, layout {seed}");
        let status = Command::new("cargo")
            .current_dir(tree)
            .env("CARGO_TARGET_DIR", &target)
            .args([
                "rustc",
                "--release",
                "-q",
                "-p",
                "nexuspp-bench",
                "--bin",
                "e2e",
            ])
            .args(["--", "-C"])
            .arg(format!("link-arg=-Wl,--shuffle-sections=*={seed}"))
            .status()
            .map_err(|e| format!("cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building {side} layout {seed} failed"));
        }
        let bin = cfg.out.join(format!("e2e-{side}-{seed}"));
        std::fs::copy(target.join("release/e2e"), &bin).map_err(|e| e.to_string())?;
        bins.push(bin);
    }
    Ok(bins)
}

/// One run's result line, or `None` if the run failed or a check did.
fn run(cfg: &Config, bin: &Path, workload: &str, seconds: f64) -> Option<String> {
    let out = Command::new(bin)
        .current_dir(&cfg.out)
        .env("CARGO_TARGET_DIR", ".")
        .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    // Every run's report and result lines, kept for the record.
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(cfg.out.join("runs.log"));
    if let Ok(mut log) = log {
        let _ = write!(log, "# {} {workload}\n{text}", bin.display());
    }
    let line = text.lines().last().unwrap_or_default().to_string();
    if out.status.success() && line.starts_with("{\"correct\": true") {
        Some(line)
    } else {
        eprintln!(
            "pairs: {} {workload} failed\n{}",
            bin.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        None
    }
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.3}M", v / 1e6)
    } else if a >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn summary(v: &[f64]) -> String {
    let [q1, m, q3] = stats::quartiles(v);
    format!("{} [{}-{}]", fmt_value(m), fmt_value(q1), fmt_value(q3))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("pairs: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match std::fs::read_to_string(cfg.change.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|json| parse_spec(&json))
    {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("pairs: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = if cfg.workloads.is_empty() {
        spec.workloads.clone()
    } else {
        cfg.workloads.clone()
    };
    let metrics = if cfg.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let seconds = cfg.seconds.unwrap_or(spec.run_seconds);
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("pairs: {}: {e}", cfg.out.display());
        return ExitCode::from(2);
    }
    let parent_seeds: Vec<usize> = (1..=LAYOUTS).collect();
    let change_seeds: Vec<usize> = (LAYOUTS + 1..=2 * LAYOUTS).collect();
    let built = build_side(&cfg, "parent", &cfg.parent, &parent_seeds)
        .and_then(|p| Ok((p, build_side(&cfg, "change", &cfg.change, &change_seeds)?)));
    let (parent_bins, change_bins) = match built {
        Ok(bins) => bins,
        Err(e) => {
            eprintln!("pairs: {e}");
            return ExitCode::from(2);
        }
    };

    let mut ok = true;
    println!(
        "| workload | metric | pairs | parent median [q1-q3] | change median [q1-q3] | change | won | layout floor | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for w in &workloads {
        // lines[i] = (layout, parent line, change line) of pair i.
        let mut lines = Vec::new();
        for i in 0..PAIRS {
            let layout = i % LAYOUTS;
            let (p_bin, c_bin) = (&parent_bins[layout], &change_bins[layout]);
            let (p, c) = if i % 2 == 0 {
                let p = run(&cfg, p_bin, w, seconds);
                (p, run(&cfg, c_bin, w, seconds))
            } else {
                let c = run(&cfg, c_bin, w, seconds);
                (run(&cfg, p_bin, w, seconds), c)
            };
            eprintln!("pairs: {w} pair {}/{PAIRS} done", i + 1);
            match (p, c) {
                (Some(p), Some(c)) => lines.push((layout, p, c)),
                _ => ok = false,
            }
        }
        for m in metrics {
            let samples: Vec<(usize, f64, f64)> = lines
                .iter()
                .filter_map(|(l, p, c)| {
                    let (p, c) = (metric_in(p, &m.name)?, metric_in(c, &m.name)?);
                    (p.is_finite() && c.is_finite()).then_some((*l, p, c))
                })
                .collect();
            if samples.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = samples.iter().map(|&(_, p, c)| (p, c)).collect();
            let parent: Vec<f64> = pairs.iter().map(|&(p, _)| p).collect();
            let change: Vec<f64> = pairs.iter().map(|&(_, c)| c).collect();
            let floor = layout_floor(&samples.iter().map(|&(l, p, _)| (l, p)).collect::<Vec<_>>());
            let (pm, cm) = (stats::median(&parent), stats::median(&change));
            let delta = if pm == 0.0 {
                0.0
            } else {
                (cm - pm) / pm.abs() * 100.0
            };
            let won = pairs
                .iter()
                .filter(|&&(p, c)| gain(p, c, m.higher_is_better) > 0.0)
                .count();
            let v = verdict(&pairs, m.higher_is_better, floor);
            ok &= v != Verdict::Regressed;
            println!(
                "| {w} | {} | {} | {} | {} | {delta:+.1} % | {}/{} | {:.1} % | {} |",
                m.name,
                pairs.len(),
                summary(&parent),
                summary(&change),
                won,
                pairs.len(),
                floor * 100.0,
                v.name()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten pairs where the change reads `parent * factor`, the parent
    /// spread over 100..=109 (IQR 4.5).
    fn scaled(factor: f64) -> Vec<(f64, f64)> {
        (0..10)
            .map(|i| {
                let p = 100.0 + f64::from(i);
                (p, p * factor)
            })
            .collect()
    }

    #[test]
    fn nine_wins_and_a_median_gain_past_the_parent_iqr_is_a_claim() {
        let mut pairs = scaled(1.10);
        pairs[3].1 = pairs[3].0 - 1.0; // one lost pair of ten
        assert_eq!(verdict(&pairs, true, 0.0), Verdict::Claim);
        // Lower is better: the same samples read the other way.
        assert_eq!(verdict(&pairs, false, 0.0), Verdict::Regressed);
    }

    #[test]
    fn wins_without_a_median_gain_past_the_iqr_are_unresolved() {
        // Every pair won, by 1 %: about one unit against an IQR of 4.5.
        assert_eq!(verdict(&scaled(1.01), true, 0.0), Verdict::Unresolved);
        // A large median gain in only eight pairs of ten.
        let mut pairs = scaled(1.20);
        pairs[0].1 = 50.0;
        pairs[1].1 = 50.0;
        assert_eq!(verdict(&pairs, true, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn nine_losses_past_the_iqr_are_a_regression() {
        assert_eq!(verdict(&scaled(0.90), true, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&scaled(1.10), false, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&scaled(0.90), false, 0.0), Verdict::Claim);
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Eight wins and two ties: short of nine wins however large the
        // gain, and the ties are not losses either.
        let mut pairs = scaled(1.20);
        pairs[0].1 = pairs[0].0;
        pairs[1].1 = pairs[1].0;
        assert_eq!(verdict(&pairs, true, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&pairs, false, 0.0), Verdict::Unresolved);
        // Identical runs decide nothing.
        assert_eq!(verdict(&scaled(1.0), true, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&[], true, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn a_gain_inside_the_layout_floor_is_unresolved() {
        // Every pair won, the median 10 % up against an IQR of 4.5 %:
        // a claim, unless relinking alone moves the metric by 12 %.
        assert_eq!(verdict(&scaled(1.10), true, 0.05), Verdict::Claim);
        assert_eq!(verdict(&scaled(1.10), true, 0.12), Verdict::Unresolved);
        // The floor holds a regression back the same way.
        assert_eq!(verdict(&scaled(0.90), true, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&scaled(0.90), true, 0.12), Verdict::Unresolved);
    }

    #[test]
    fn the_layout_floor_is_the_spread_of_per_layout_medians() {
        let samples = [(0, 100.0), (0, 102.0), (1, 110.0), (1, 112.0)];
        // Medians 101 and 111 against a pooled median of 106.
        assert!((layout_floor(&samples) - 10.0 / 106.0).abs() < 1e-12);
        assert_eq!(layout_floor(&[(0, 5.0), (0, 7.0)]), 0.0);
    }

    #[test]
    fn the_spec_is_read_from_benchmark_json() {
        let json = include_str!("../../../../BENCHMARK.json");
        let spec = parse_spec(json).expect("BENCHMARK.json parses");
        assert!(spec.workloads.iter().any(|w| w == "rt_gaussian"));
        assert!(spec.run_seconds > 0.0);
        let tps = spec.end_to_end.iter().find(|m| m.name == "tasks_per_s");
        assert!(tps.is_some_and(|m| m.higher_is_better));
        let rss = spec.end_to_end.iter().find(|m| m.name == "peak_rss_mb");
        assert!(rss.is_some_and(|m| !m.higher_is_better));
        assert!(spec
            .per_layer
            .iter()
            .any(|m| m.name == "shard.finish_ns_per_task"));
        let line = "{\"correct\": true, \"metrics\": {\"tasks_per_s\": {\"value\": 12.5, \"unit\": \"tasks/s\"}}}";
        assert_eq!(metric_in(line, "tasks_per_s"), Some(12.5));
    }
}
