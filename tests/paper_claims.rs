//! The paper's claims in tier-1. Every `repro` experiment runs at quick
//! scale and must finish with no failed check, and every entry of the
//! claim registry (`nexuspp_bench::experiments::CLAIMS`) must have been
//! evaluated by the experiment its id names; one test per paper artefact
//! reads its experiment's result. The paper values, bands and
//! configurations live in the registry alone; README.md, "Reproducing
//! the paper", lists each id beside its `repro` subcommand and reading.

use nexuspp_bench::experiments::{Experiment, CLAIMS, EXPERIMENTS};
use nexuspp_bench::ExpOptions;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Every experiment at quick scale, run once for both tests, one thread
/// each.
fn ran() -> &'static [Experiment] {
    static RAN: OnceLock<Vec<Experiment>> = OnceLock::new();
    RAN.get_or_init(|| {
        let opts = &ExpOptions {
            quick: true,
            ..ExpOptions::default()
        };
        std::thread::scope(|s| {
            let runs: Vec<_> = EXPERIMENTS
                .iter()
                .map(|&(_, experiment)| s.spawn(move || experiment(opts)))
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        })
    })
}

#[test]
fn every_experiment_passes_at_quick_scale() {
    for e in ran() {
        assert!(e.failures.is_empty(), "{}: {:#?}", e.id, e.failures);
    }
}

#[test]
fn every_claim_is_evaluated() {
    let mut ids = HashSet::new();
    for c in CLAIMS {
        assert!(ids.insert(c.id), "{} is registered twice", c.id);
        let (owner, _) = c.id.split_once('.').expect("ids are <experiment>.<name>");
        let e = ran().iter().find(|e| e.id == owner);
        assert!(
            e.is_some_and(|e| e.claims.contains(&c.id)),
            "{} is not evaluated by `repro {owner}`",
            c.id
        );
    }
}

/// `experiment` ran with no failed check and evaluated every claim it
/// owns.
fn claims_hold(experiment: &str) {
    let e = ran().iter().find(|e| e.id == experiment).unwrap();
    assert!(e.failures.is_empty(), "{experiment}: {:#?}", e.failures);
    assert!(e.unevaluated().is_empty(), "{:?}", e.unevaluated());
}

/// One `#[test]` per paper artefact, named `test: "experiment"`.
macro_rules! claims_hold {
    ($($test:ident: $experiment:literal,)*) => {
        $(#[test] fn $test() { claims_hold($experiment) })*
    };
}

claims_hold! {
    table2_counts: "table2",
    storage_budget_claim: "table4",
    figure6_shape: "fig6",
    figure7_shape: "fig7",
    figure8_shape: "fig8",
    headline_speedups_reproduce: "headline",
    double_buffering_wins: "ablate",
    gaussian_runs_on_nexuspp_not_on_classic: "nexus-vs",
}
