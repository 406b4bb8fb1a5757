//! `repro bench-diff`: compare two criterion summary JSON files.
//!
//! The CI bench-trajectory steps persist `BENCH_*.json` summaries (via
//! the vendored criterion's `CRITERION_SUMMARY_JSON` sink) so each PR
//! carries the benchmark numbers it shipped with. This module closes
//! the loop the ROADMAP called out: given the checked-in summary and a
//! freshly generated one, print per-benchmark deltas and flag
//! regressions beyond a configurable threshold.
//!
//! [`parse_summary`] walks the value `nexuspp_obs::parse_json` returns
//! and understands exactly the summary schema: everything beyond
//! `benchmarks[].{group, name, best_ns}` is ignored, and malformed
//! input is a readable `Err`, not a panic — CI feeds this from freshly
//! written files.
//!
//! Interpretation note baked into the table: `best_ns` entries are
//! best-of-N single machine samples, so small deltas are noise. The
//! default threshold is deliberately generous (25%) and the CI step
//! runs warn-only; `--strict` turns regressions into a nonzero exit
//! for local bisection sessions.

use crate::table::{f1, TextTable};
use nexuspp_obs::{parse_json, Json};
use std::collections::BTreeMap;

/// One benchmark extracted from a summary file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Criterion group (`wake_delivery/dispatcher`, …).
    pub group: String,
    /// Benchmark name within the group (`lock-free`, …).
    pub name: String,
    /// Best observed per-iteration time, nanoseconds.
    pub best_ns: f64,
}

impl BenchRecord {
    /// `group/name` — the diff key.
    pub fn key(&self) -> String {
        format!("{}/{}", self.group, self.name)
    }
}

/// How one benchmark moved between two summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Faster by more than the threshold.
    Improved,
    /// Within the threshold either way.
    Ok,
    /// Slower by more than the threshold.
    Regressed,
    /// Only in the new summary.
    Added,
    /// Only in the old summary.
    Removed,
}

impl DiffStatus {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            DiffStatus::Improved => "improved",
            DiffStatus::Ok => "ok",
            DiffStatus::Regressed => "REGRESSED",
            DiffStatus::Added => "added",
            DiffStatus::Removed => "removed",
        }
    }
}

/// One row of a bench diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// `group/name`.
    pub key: String,
    /// Old `best_ns`, if the benchmark existed before.
    pub old_ns: Option<f64>,
    /// New `best_ns`, if the benchmark still exists.
    pub new_ns: Option<f64>,
    /// `(new - old) / old`, percent (None unless both sides exist).
    pub delta_pct: Option<f64>,
    /// Classification at the configured threshold.
    pub status: DiffStatus,
}

/// Parse a `CRITERION_SUMMARY_JSON` file into its benchmark records.
pub fn parse_summary(text: &str) -> Result<Vec<BenchRecord>, String> {
    let v = parse_json(text)?;
    let Json::Object(top) = v else {
        return Err("summary root must be a JSON object".into());
    };
    let Some(Json::Array(benches)) = top.iter().find(|(k, _)| k == "benchmarks").map(|(_, v)| v)
    else {
        return Err("summary has no \"benchmarks\" array".into());
    };
    let mut out = Vec::with_capacity(benches.len());
    for (i, b) in benches.iter().enumerate() {
        let Json::Object(fields) = b else {
            return Err(format!("benchmarks[{i}] is not an object"));
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let str_field = |key: &str| match get(key) {
            Some(Json::String(s)) => Ok(s.clone()),
            _ => Err(format!("benchmarks[{i}].{key} missing or not a string")),
        };
        let num_field = |key: &str| match get(key) {
            Some(Json::Number(n)) => Ok(*n),
            _ => Err(format!("benchmarks[{i}].{key} missing or not a number")),
        };
        out.push(BenchRecord {
            group: str_field("group")?,
            name: str_field("name")?,
            best_ns: num_field("best_ns")?,
        });
    }
    Ok(out)
}

/// Diff two summaries at `threshold_pct` (e.g. 25.0 = a benchmark must
/// move more than 25% to count as improved/regressed).
pub fn diff(old: &[BenchRecord], new: &[BenchRecord], threshold_pct: f64) -> Vec<DiffRow> {
    let old_by_key: BTreeMap<String, f64> = old.iter().map(|r| (r.key(), r.best_ns)).collect();
    let new_by_key: BTreeMap<String, f64> = new.iter().map(|r| (r.key(), r.best_ns)).collect();
    let mut keys: Vec<&String> = old_by_key.keys().chain(new_by_key.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.iter()
        .map(|&key| {
            let old_ns = old_by_key.get(key).copied();
            let new_ns = new_by_key.get(key).copied();
            let (delta_pct, status) = match (old_ns, new_ns) {
                (Some(o), Some(n)) if o > 0.0 => {
                    let d = (n - o) / o * 100.0;
                    let s = if d > threshold_pct {
                        DiffStatus::Regressed
                    } else if d < -threshold_pct {
                        DiffStatus::Improved
                    } else {
                        DiffStatus::Ok
                    };
                    (Some(d), s)
                }
                (Some(_), Some(_)) => (None, DiffStatus::Ok),
                (None, Some(_)) => (None, DiffStatus::Added),
                (Some(_), None) => (None, DiffStatus::Removed),
                (None, None) => unreachable!("key came from one of the maps"),
            };
            DiffRow {
                key: key.clone(),
                old_ns,
                new_ns,
                delta_pct,
                status,
            }
        })
        .collect()
}

/// Whether any row regressed past the threshold.
pub fn has_regressions(rows: &[DiffRow]) -> bool {
    rows.iter().any(|r| r.status == DiffStatus::Regressed)
}

/// Render a diff as an aligned text table.
pub fn render(rows: &[DiffRow], threshold_pct: f64) -> String {
    let mut t = TextTable::new(vec!["benchmark", "old us", "new us", "delta", "status"]);
    for r in rows {
        let us = |ns: Option<f64>| ns.map_or("-".to_string(), |v| f1(v / 1e3));
        t.row(vec![
            r.key.clone(),
            us(r.old_ns),
            us(r.new_ns),
            r.delta_pct.map_or("-".to_string(), |d| format!("{d:+.1}%")),
            r.status.name().to_string(),
        ]);
    }
    format!(
        "bench-diff (threshold {threshold_pct:.0}%; best-of-N samples — treat small deltas as noise)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmarks": [
    {"group": "g/a", "name": "locked", "best_ns": 1000, "iters": 3, "throughput": {"elements": 8}},
    {"group": "g/a", "name": "lock-free", "best_ns": 400, "iters": 3, "throughput": null}
  ]
}"#;

    #[test]
    fn parses_the_summary_schema() {
        let recs = parse_summary(SAMPLE).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].key(), "g/a/locked");
        assert_eq!(recs[1].best_ns, 400.0);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "[]",
            "{\"benchmarks\": 4}",
            "{\"benchmarks\": [{\"group\": 1}]}",
            "{\"benchmarks\": [{\"group\": \"g\", \"name\": \"n\"}]}",
            "{\"benchmarks\": [] } trailing",
        ] {
            assert!(parse_summary(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn diff_classifies_all_statuses() {
        let old = vec![
            BenchRecord {
                group: "g".into(),
                name: "steady".into(),
                best_ns: 1000.0,
            },
            BenchRecord {
                group: "g".into(),
                name: "faster".into(),
                best_ns: 1000.0,
            },
            BenchRecord {
                group: "g".into(),
                name: "slower".into(),
                best_ns: 1000.0,
            },
            BenchRecord {
                group: "g".into(),
                name: "gone".into(),
                best_ns: 1000.0,
            },
        ];
        let new = vec![
            BenchRecord {
                group: "g".into(),
                name: "steady".into(),
                best_ns: 1100.0,
            },
            BenchRecord {
                group: "g".into(),
                name: "faster".into(),
                best_ns: 500.0,
            },
            BenchRecord {
                group: "g".into(),
                name: "slower".into(),
                best_ns: 2000.0,
            },
            BenchRecord {
                group: "g".into(),
                name: "fresh".into(),
                best_ns: 10.0,
            },
        ];
        let rows = diff(&old, &new, 25.0);
        let by_key = |k: &str| rows.iter().find(|r| r.key == format!("g/{k}")).unwrap();
        assert_eq!(by_key("steady").status, DiffStatus::Ok);
        assert_eq!(by_key("faster").status, DiffStatus::Improved);
        assert_eq!(by_key("slower").status, DiffStatus::Regressed);
        assert_eq!(by_key("gone").status, DiffStatus::Removed);
        assert_eq!(by_key("fresh").status, DiffStatus::Added);
        assert!(has_regressions(&rows));
        assert_eq!(by_key("slower").delta_pct.unwrap().round(), 100.0);
        let text = render(&rows, 25.0);
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("g/fresh"));
        assert!(text.contains("+100.0%"));
    }

    #[test]
    fn identical_summaries_have_no_regressions() {
        let recs = parse_summary(SAMPLE).unwrap();
        let rows = diff(&recs, &recs, 5.0);
        assert!(!has_regressions(&rows));
        assert!(rows.iter().all(|r| r.status == DiffStatus::Ok));
        assert!(rows.iter().all(|r| r.delta_pct == Some(0.0)));
    }

    #[test]
    fn real_checked_in_summary_parses() {
        // Guard the schema against drift: the checked-in trajectory at
        // the workspace root must stay parseable.
        let root = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_wake_delivery.json"
        );
        if let Ok(text) = std::fs::read_to_string(root) {
            let recs = parse_summary(&text).expect("checked-in summary must parse");
            assert!(!recs.is_empty());
        }
    }
}
