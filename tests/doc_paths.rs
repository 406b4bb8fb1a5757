//! Every source file ARCHITECTURE.md and README.md cite must exist, so a
//! PR that moves or deletes a file cannot leave a dangling citation.
//! Citations are `path` + symbol name; `path.rs:NNN` line anchors rot on
//! the next edit above them and are rejected.

use std::path::Path;

const DOCS: [&str; 2] = ["ARCHITECTURE.md", "README.md"];

/// The `crates/**.rs` and `examples/*.rs` paths `text` mentions.
fn cited_paths(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || "_/.-".contains(c)))
        .filter(|t| t.starts_with("crates/") || t.starts_with("examples/"))
        .filter(|t| t.ends_with(".rs"))
        .collect()
}

#[test]
fn cited_source_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is checked in");
        let paths = cited_paths(&text);
        assert!(!paths.is_empty(), "{doc}: the scan found no citations");
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
}
