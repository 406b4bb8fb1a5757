//! What the docs cite must exist, so a PR that moves or deletes a file,
//! or retires a `repro` subcommand, cannot leave a dangling citation.
//! File citations are `path` + symbol name; `path.rs:NNN` line anchors
//! rot on the next edit above them and are rejected. Subcommand
//! citations are checked against the table `repro` itself dispatches on.
//! ISSUE.md is checked like the docs, so an issue cannot cite a missing
//! file or a retired subcommand either. README's claim ids are checked
//! against the claim registry in both directions.

use nexuspp_bench::experiments::{CLAIMS, EXPERIMENTS};
use std::path::Path;

/// The one checked file that may cite nothing, so an empty scan of it
/// proves nothing; every other file's empty scan means the scan broke.
const ISSUE: &str = "ISSUE.md";

const DOCS: [&str; 3] = ["ARCHITECTURE.md", "README.md", ISSUE];

/// Everything that tells a reader to run `repro <name>`: the docs, CI,
/// and `repro`'s own module doc (its `usage()` is built from
/// [`EXPERIMENTS`] and cannot drift).
const REPRO_CITERS: [&str; 5] = [
    "ARCHITECTURE.md",
    "README.md",
    ISSUE,
    ".github/workflows/ci.yml",
    "crates/bench/src/bin/repro.rs",
];

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `crates/**.rs`, `examples/*.rs` and `vendor/**.rs` paths `text`
/// mentions.
fn cited_paths(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || "_/.-".contains(c)))
        .filter(|t| {
            ["crates/", "examples/", "vendor/"]
                .iter()
                .any(|d| t.starts_with(d))
        })
        .filter(|t| t.ends_with(".rs"))
        .collect()
}

/// The subcommand names `text` cites: the word after `` `repro ``,
/// `/repro ` or `--bin repro ` (with or without cargo's `--`), and the
/// first column of the `experiments:` listing in `repro`'s module doc.
fn cited_subcommands(text: &str) -> Vec<&str> {
    fn word(s: &str) -> Option<&str> {
        let s = s.strip_prefix(' ')?;
        let s = s.strip_prefix("-- ").unwrap_or(s);
        let end = s
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
            .unwrap_or(s.len());
        (end > 0).then(|| &s[..end])
    }
    let mut names: Vec<&str> = text
        .match_indices("repro")
        .filter(|(i, _)| {
            let before = &text[..*i];
            before.ends_with('`') || before.ends_with('/') || before.ends_with("--bin ")
        })
        .filter_map(|(i, m)| word(&text[i + m.len()..]))
        .collect();
    names.extend(
        text.lines()
            .skip_while(|l| l.trim() != "//! experiments:")
            .skip(1)
            .take_while(|l| l.trim() != "//!")
            .filter_map(|l| l.trim_start_matches("//!").split_whitespace().next()),
    );
    names
}

/// The claim ids `text` names: backticked `<experiment>.<name>` words
/// whose `<experiment>` is a `repro` subcommand.
fn cited_claims(text: &str) -> Vec<&str> {
    text.split('`')
        .filter(|w| {
            w.split_once('.').is_some_and(|(exp, name)| {
                EXPERIMENTS.iter().any(|(n, _)| *n == exp)
                    && !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
            })
        })
        .collect()
}

#[test]
fn readme_names_every_claim_and_no_other() {
    let text = read("README.md");
    let cited = cited_claims(&text);
    for c in CLAIMS {
        assert!(cited.contains(&c.id), "README.md omits claim {}", c.id);
    }
    for id in cited {
        assert!(
            CLAIMS.iter().any(|c| c.id == id),
            "README.md names `{id}`, which is not in the claim registry"
        );
    }
    // The scan itself: only backticked ids of live experiments count.
    assert_eq!(
        cited_claims("`fig8.n250-4`, `e2e.rs`, `fig8`, fig8.x, `rts.a b`, `nexus-vs.y`"),
        ["fig8.n250-4", "nexus-vs.y"]
    );
}

#[test]
fn cited_source_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in DOCS {
        let text = read(doc);
        let paths = cited_paths(&text);
        assert!(
            !paths.is_empty() || doc == ISSUE,
            "{doc}: the scan found no citations"
        );
        for p in paths {
            assert!(root.join(p).is_file(), "{doc} cites missing file {p}");
        }
        let anchor = text
            .match_indices(".rs:")
            .find(|(i, _)| text[i + 4..].starts_with(|c: char| c.is_ascii_digit()));
        if let Some((i, _)) = anchor {
            let line = text[..i].lines().count();
            panic!("{doc}:{line}: cite a path and a symbol, not a `path.rs:NNN` line anchor");
        }
    }
    // The scan itself: vendored sources are citations too.
    assert_eq!(
        cited_paths("`vendor/a/src/b.rs`, (examples/c.rs) vendor/ crates/d.rs"),
        ["vendor/a/src/b.rs", "examples/c.rs", "crates/d.rs"]
    );
}

#[test]
fn cited_repro_subcommands_are_live() {
    let live = |name: &str| {
        name == "all" || name == "watch" || EXPERIMENTS.iter().any(|(n, _)| *n == name)
    };
    for file in REPRO_CITERS {
        let text = read(file);
        let names = cited_subcommands(&text);
        assert!(
            !names.is_empty() || file == ISSUE,
            "{file}: the scan found no `repro` call"
        );
        for name in names {
            assert!(live(name), "{file} cites retired subcommand `repro {name}`");
        }
    }
    // The scan itself: it must see through every spelling the docs use.
    assert_eq!(
        cited_subcommands("`repro -- steal`, ./target/release/repro serve, --bin repro -- incr x"),
        ["steal", "serve", "incr"]
    );
}

#[test]
fn retired_instrument_is_not_cited() {
    // The retired bench targets are deleted and the trajectory files live
    // under docs/history/; nothing may point at the old places.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in REPRO_CITERS {
        let text = read(file);
        assert!(
            !text.contains("crates/bench/benches"),
            "{file} cites the deleted bench directory"
        );
        for (i, _) in text.match_indices("BENCH_") {
            assert!(
                text[..i].ends_with("docs/history/"),
                "{file} cites a root-level BENCH_*.json (they moved to docs/history/)"
            );
        }
    }
    let stale: Vec<_> = std::fs::read_dir(root)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_"))
        .collect();
    assert!(stale.is_empty(), "root-level trajectory files: {stale:?}");
}
