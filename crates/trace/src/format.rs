//! `.ntr` — a line-oriented text format for task traces.
//!
//! Stands in for the authors' Cell H.264 trace files. The format is
//! deliberately trivial to parse and diff:
//!
//! ```text
//! ntr 1 <name>
//! t <id> <fptr-hex> e<exec-ps> r<cost> w<cost>
//! p <addr-hex> <size> <in|out|inout>     # one line per parameter
//! ...
//! ```
//!
//! where `<cost>` is `-` (none), `t<ps>` (a measured time in picoseconds)
//! or `b<bytes>` (a data volume for the memory model).

use crate::trace::Trace;
use crate::types::{AccessMode, MemCost, Param, TaskRecord};
use nexuspp_desim::SimTime;
use std::collections::HashSet;
use std::io::{self, BufRead, Write};

/// Errors produced when reading an `.ntr` stream.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content, with line number and description.
    Syntax {
        /// 1-based line number of the offending line.
        line: usize,
        /// What is wrong with it.
        msg: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn write_cost(out: &mut impl Write, tag: char, c: MemCost) -> io::Result<()> {
    match c {
        MemCost::None => write!(out, " {tag}-"),
        MemCost::Time(t) => write!(out, " {tag}t{}", t.ps()),
        MemCost::Bytes(b) => write!(out, " {tag}b{b}"),
    }
}

/// Serialize a trace to a writer.
pub fn write_trace(trace: &Trace, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "ntr 1 {}", trace.name)?;
    for t in &trace.tasks {
        write!(out, "t {} {:x} e{}", t.id, t.fptr, t.exec.ps())?;
        write_cost(out, 'r', t.read)?;
        write_cost(out, 'w', t.write)?;
        writeln!(out)?;
        for p in &t.params {
            writeln!(out, "p {:x} {} {}", p.addr, p.size, p.mode)?;
        }
    }
    Ok(())
}

/// Serialize a trace to a string.
pub fn trace_to_string(trace: &Trace) -> String {
    let mut buf = Vec::new();
    write_trace(trace, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("ntr output is ASCII")
}

fn syntax(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError::Syntax {
        line,
        msg: msg.into(),
    }
}

fn parse_cost(tok: &str, tag: char, line: usize) -> Result<MemCost, ParseError> {
    let body = tok
        .strip_prefix(tag)
        .ok_or_else(|| syntax(line, format!("expected {tag}-cost, got `{tok}`")))?;
    match body.as_bytes().first() {
        Some(b'-') => Ok(MemCost::None),
        Some(b't') => body[1..]
            .parse::<u64>()
            .map(|ps| MemCost::Time(SimTime::from_ps(ps)))
            .map_err(|e| syntax(line, format!("bad time: {e}"))),
        Some(b'b') => body[1..]
            .parse::<u64>()
            .map(MemCost::Bytes)
            .map_err(|e| syntax(line, format!("bad bytes: {e}"))),
        _ => Err(syntax(line, format!("bad cost token `{tok}`"))),
    }
}

/// Parse a trace from a buffered reader.
pub fn read_trace(input: &mut impl BufRead) -> Result<Trace, ParseError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| syntax(1, "empty input"))
        .and_then(|(i, r)| r.map(|s| (i, s)).map_err(ParseError::from))?;
    let mut hdr = header.splitn(3, ' ');
    if hdr.next() != Some("ntr") || hdr.next() != Some("1") {
        return Err(syntax(1, "expected `ntr 1 <name>` header"));
    }
    let name = hdr.next().unwrap_or("").to_string();

    let mut trace = Trace::new(name);
    let mut task_addrs = HashSet::new();
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("t") => {
                let id: u64 = toks
                    .next()
                    .ok_or_else(|| syntax(lineno, "missing id"))?
                    .parse()
                    .map_err(|e| syntax(lineno, format!("bad id: {e}")))?;
                let fptr = u64::from_str_radix(
                    toks.next().ok_or_else(|| syntax(lineno, "missing fptr"))?,
                    16,
                )
                .map_err(|e| syntax(lineno, format!("bad fptr: {e}")))?;
                let etok = toks.next().ok_or_else(|| syntax(lineno, "missing exec"))?;
                let exec = etok
                    .strip_prefix('e')
                    .ok_or_else(|| syntax(lineno, "exec must start with `e`"))?
                    .parse::<u64>()
                    .map(SimTime::from_ps)
                    .map_err(|e| syntax(lineno, format!("bad exec: {e}")))?;
                let read = parse_cost(
                    toks.next().ok_or_else(|| syntax(lineno, "missing read"))?,
                    'r',
                    lineno,
                )?;
                let write = parse_cost(
                    toks.next().ok_or_else(|| syntax(lineno, "missing write"))?,
                    'w',
                    lineno,
                )?;
                task_addrs.clear();
                trace.tasks.push(TaskRecord {
                    id,
                    fptr,
                    params: Vec::new(),
                    exec,
                    read,
                    write,
                });
            }
            Some("p") => {
                let task = trace
                    .tasks
                    .last_mut()
                    .ok_or_else(|| syntax(lineno, "parameter before any task"))?;
                let addr = u64::from_str_radix(
                    toks.next().ok_or_else(|| syntax(lineno, "missing addr"))?,
                    16,
                )
                .map_err(|e| syntax(lineno, format!("bad addr: {e}")))?;
                let size: u32 = toks
                    .next()
                    .ok_or_else(|| syntax(lineno, "missing size"))?
                    .parse()
                    .map_err(|e| syntax(lineno, format!("bad size: {e}")))?;
                let mode =
                    AccessMode::parse(toks.next().ok_or_else(|| syntax(lineno, "missing mode"))?)
                        .ok_or_else(|| syntax(lineno, "bad access mode"))?;
                // One entry per address per task is the hardware model's
                // precondition (see `normalize`); a repeat would otherwise
                // surface much later as a simulated deadlock.
                if !task_addrs.insert(addr) {
                    return Err(syntax(
                        lineno,
                        format!("address {addr:x} repeats in task {}", task.id),
                    ));
                }
                task.params.push(Param { addr, size, mode });
            }
            Some(other) => return Err(syntax(lineno, format!("unknown record `{other}`"))),
            None => {}
        }
    }
    Ok(trace)
}

/// Parse a trace from a string.
pub fn trace_from_str(s: &str) -> Result<Trace, ParseError> {
    read_trace(&mut s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_tasks(
            "h264 demo",
            vec![
                TaskRecord {
                    id: 0,
                    fptr: 0xABCD,
                    params: vec![
                        Param::input(0x1A, 1024),
                        Param::input(0x2A, 1024),
                        Param::inout(0x3A, 1024),
                    ],
                    exec: SimTime::from_us(11),
                    read: MemCost::Time(SimTime::from_us(5)),
                    write: MemCost::Time(SimTime::from_us(2)),
                },
                TaskRecord {
                    id: 1,
                    fptr: 0xDCBA,
                    params: vec![Param::output(0x4A, 8)],
                    exec: SimTime::from_ns(500),
                    read: MemCost::None,
                    write: MemCost::Bytes(4096),
                },
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let tr = sample();
        let text = trace_to_string(&tr);
        let back = trace_from_str(&text).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn format_is_stable() {
        let text = trace_to_string(&sample());
        let first_lines: Vec<_> = text.lines().take(3).collect();
        assert_eq!(first_lines[0], "ntr 1 h264 demo");
        assert_eq!(first_lines[1], "t 0 abcd e11000000 rt5000000 wt2000000");
        assert_eq!(first_lines[2], "p 1a 1024 in");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "ntr 1 x\n\n# comment\nt 3 ff e100 r- wb64\np a 4 inout\n";
        let tr = trace_from_str(text).unwrap();
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!(tr.tasks[0].id, 3);
        assert_eq!(tr.tasks[0].write, MemCost::Bytes(64));
        assert_eq!(tr.tasks[0].params[0].mode, AccessMode::InOut);
    }

    #[test]
    fn error_cases() {
        assert!(trace_from_str("").is_err());
        assert!(trace_from_str("bogus\n").is_err());
        assert!(
            trace_from_str("ntr 1 x\np 1 4 in\n").is_err(),
            "param before task"
        );
        assert!(trace_from_str("ntr 1 x\nt 0 zz e1 r- w-\n").is_err());
        assert!(trace_from_str("ntr 1 x\nt 0 1 e1 r- wq9\n").is_err());
        assert!(trace_from_str("ntr 1 x\nt 0 1 e1 r- w-\np 1 4 rw\n").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let tr = sample();
        let dir = std::env::temp_dir().join("nexuspp-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ntr");
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        write_trace(&tr, &mut f).unwrap();
        drop(f);
        let mut r = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let back = read_trace(&mut r).unwrap();
        assert_eq!(tr, back);
    }
}
