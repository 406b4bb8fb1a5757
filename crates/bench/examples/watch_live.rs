//! Minimal demonstration of the online-introspection layer: attach a
//! [`Collector`](nexuspp_obs::Collector) to a `Runtime`, submit
//! dependent work, and watch the live task-graph dashboard update
//! while the run executes.
//!
//! ```text
//! cargo run --example watch_live
//! ```
//!
//! This is the library-level version of `repro watch`; see that
//! subcommand for the flag-driven variant (`--quick`, `--frames`,
//! `--csv DIR`).

use nexuspp_bench::watch::{run_watch, WatchOptions};
use std::io::IsTerminal;
use std::time::Duration;

fn main() {
    let opts = WatchOptions {
        frames: 8,
        frame_interval: Duration::from_millis(120),
        ansi: std::io::stdout().is_terminal(),
        ..WatchOptions::default()
    };
    let mut stdout = std::io::stdout().lock();
    let summary = run_watch(&opts, &mut stdout).expect("stdout");
    assert_eq!(
        summary.violations, 0,
        "a healthy runtime emits no illegal transitions"
    );
}
