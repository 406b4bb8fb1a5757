//! In-memory spans recorded by the benchmark's own files, round the
//! calls into each layer. Nothing here reaches into the crates under
//! test; spans inside them are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval. `request` is the task tag for per-task spans and
/// the round number for batch spans; `parent` indexes the span that
/// caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Append-only span store owned by the generator thread. Per-task spans
/// are materialised after a round from the per-tag timestamp slots the
/// task bodies fill, so recording never takes a lock on the hot path.
pub struct Spans {
    epoch: Instant,
    /// Batch spans of every round.
    list: Vec<Span>,
    /// Per-task spans of the last traced round only (their parents
    /// index `list`).
    tasks: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// The instant every `*_ns` field counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        })
    }

    /// Close a span opened by [`begin`](Self::begin); returns its length.
    pub fn end(&mut self, idx: usize) -> Duration {
        let now = self.now_ns();
        let s = &mut self.list[idx];
        s.end_ns = now;
        Duration::from_nanos(now - s.start_ns)
    }

    /// Record a finished span (timestamps taken elsewhere).
    pub fn push(&mut self, span: Span) -> usize {
        self.list.push(span);
        self.list.len() - 1
    }

    /// Keep `tasks` as the per-task spans of the latest traced round.
    pub fn replace_task_spans(&mut self, tasks: Vec<Span>) {
        debug_assert!(tasks.iter().all(|s| s.start_ns <= s.end_ns));
        self.tasks = tasks;
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let all: Vec<Span> = self.list.iter().chain(&self.tasks).cloned().collect();
        for (span, self_ns) in all.iter().zip(self_times(&all)) {
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        let total = self.list.len() + self.tasks.len();
        for (i, s) in self.list.iter().chain(&self.tasks).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < total { "," } else { "" };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}{}",
                s.name, s.start_ns, s.end_ns, parent, s.request, comma
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children clipped to the parent, overlaps between
/// siblings counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span(0, 100, None),      // root
            span(10, 30, Some(0)),   // child
            span(20, 50, Some(0)),   // overlaps its sibling: 10..50 covered once
            span(90, 120, Some(0)),  // sticks out: clipped to 90..100
            span(12, 18, Some(1)),   // grandchild counts against span 1 only
            span(200, 300, Some(0)), // outside the parent: covers nothing
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 100]);
    }

    #[test]
    fn begin_end_nest_and_serialise() {
        let mut s = Spans::new();
        let root = s.begin("round", None, 3);
        let kid = s.begin("runtime.spawn", Some(root), 3);
        s.end(kid);
        s.end(root);
        let by_name = s.self_ms_by_name();
        assert_eq!(
            by_name.keys().copied().collect::<Vec<_>>(),
            ["round", "runtime.spawn"]
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/e2e-spans-unit-test.json");
        s.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.starts_with("[\n{\"name\":\"round\""));
        assert!(text.contains("\"parent\":0,\"request\":3}"));
        assert!(text.trim_end().ends_with(']'));
    }
}
