//! What the process can learn about itself and its host without a new
//! dependency: CPU time and peak memory from `/proc`, and the machine
//! stamp the `BENCH_*.json` files never recorded.

use std::process::Command;
use std::time::Duration;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100
/// on every Linux ABI rustc targets).
const CLK_TCK: u64 = 100;

/// User + system CPU time of the whole process so far, threads that
/// already exited included. Resolution is one tick (10 ms), so callers
/// sum it over whole rounds.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, where utime and stime are the 12th/13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 1000 / CLK_TCK)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host stamp printed with every report.
pub struct Stamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

pub fn stamp() -> Stamp {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    Stamp {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        rustc: first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        // The driver's checkout is not a git repository.
        commit: first_line("git", &["rev-parse", "--short", "HEAD"])
            .unwrap_or_else(|| "unknown".into()),
    }
}
