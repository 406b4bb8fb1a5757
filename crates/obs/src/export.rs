//! Chrome-trace export (the `chrome://tracing` / Perfetto JSON event
//! format) plus the workspace's one JSON reader, [`validate_json`] (the
//! export's own tests, the `repro -- observe` self-check and the `e2e`
//! benchmark's output check).
//!
//! Execution spans become `"X"` (complete) events — one horizontal bar
//! per task on its worker's row, read from the task's
//! [`TaskTimeline`](crate::TaskTimeline) in the
//! [`GraphTracker`](crate::GraphTracker) fold — and every other
//! lifecycle event becomes an `"i"` (instant) marker on the emitting
//! thread's row, so the full task journey is visible on one timeline.
//! Timestamps are exported in microseconds (the format's unit) at
//! nanosecond precision.

use crate::analyze::timelines;
use crate::event::{Event, EventKind, NO_TASK, NO_WORKER};
use std::fmt::Write as _;

/// Chrome-trace row (`tid`) for an event: workers keep their index + 1
/// and row 0 collects everything emitted off-worker (the submitting
/// master thread).
fn tid(worker: u32) -> u32 {
    if worker == NO_WORKER {
        0
    } else {
        worker + 1
    }
}

fn push_ts(out: &mut String, ts_ns: u64) {
    // µs with ns precision, without float rounding surprises.
    let _ = write!(out, "{}.{:03}", ts_ns / 1_000, ts_ns % 1_000);
}

/// Render an event batch as a Chrome-trace JSON document. Load the
/// string (saved as a `.json` file) in `chrome://tracing` or
/// <https://ui.perfetto.dev> to inspect the run's timeline.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };

    // Thread-name metadata rows.
    let mut tids: Vec<u32> = events.iter().map(|e| tid(e.worker)).collect();
    tids.push(0);
    tids.sort_unstable();
    tids.dedup();
    for t in tids {
        sep(&mut out);
        let name = if t == 0 {
            "submitter".to_string()
        } else {
            format!("worker {}", t - 1)
        };
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }

    // Execution spans: one per task whose timeline has both ends.
    for (task, tl) in &timelines(events) {
        let (Some(start), Some(done)) = (tl.exec_start, tl.exec_done) else {
            continue;
        };
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"task {task}\",\"cat\":\"exec\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":",
            tid(tl.worker)
        );
        push_ts(&mut out, start);
        out.push_str(",\"dur\":");
        push_ts(&mut out, done.saturating_sub(start));
        let _ = write!(out, ",\"args\":{{\"task\":{task}}}}}");
    }

    // Everything else as instant markers.
    for e in events {
        if matches!(e.kind, EventKind::ExecStart | EventKind::ExecDone) {
            continue;
        }
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":0,\"tid\":{},\"ts\":",
            e.kind.name(),
            tid(e.worker)
        );
        push_ts(&mut out, e.ts_ns);
        out.push_str(",\"args\":{");
        let mut args_first = true;
        let mut arg = |out: &mut String, k: &str, v: u64| {
            if !args_first {
                out.push(',');
            }
            args_first = false;
            let _ = write!(out, "\"{k}\":{v}");
        };
        if e.task != NO_TASK {
            arg(&mut out, "task", e.task);
        }
        if e.aux != NO_TASK {
            arg(&mut out, "waker", e.aux);
        }
        if e.shard != crate::event::NO_SHARD {
            arg(&mut out, "shard", u64::from(e.shard));
        }
        out.push_str("}}");
    }

    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `{...}`: `(key, value)` pairs in document order.
    Object(Vec<(String, Json)>),
    /// `[...]`.
    Array(Vec<Json>),
    /// A string, escapes decoded.
    String(String),
    /// Any number, as `f64`.
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parse `s` as exactly one JSON value (objects, arrays, strings,
/// numbers, booleans, null). Returns a short message with the byte
/// offset of the first violation.
pub(crate) fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser { s, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// Check that `s` is exactly one well-formed JSON value; the error is
/// a short message with the byte offset of the first violation.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(drop)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s.as_bytes()[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        // Start of the current escape-free run. Runs end at an ASCII
        // `"` or `\`, so the slices below fall on char boundaries and
        // multi-byte UTF-8 passes through unchanged.
        let mut run = self.i;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                self.i += 1;
                                match self.peek().and_then(|c| (c as char).to_digit(16)) {
                                    Some(d) => code = code * 16 + d,
                                    None => return self.err("bad \\u escape"),
                                }
                            }
                            // A lone surrogate has no `char`.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return self.err("bad escape"),
                    };
                    out.push(c);
                    self.i += 1;
                    run = self.i;
                }
                Some(c) if c < 0x20 => return self.err("control character in string"),
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Parser| {
            let start = p.i;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.i += 1;
            }
            p.i > start
        };
        if !digits(self) {
            return self.err("expected digits");
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !digits(self) {
                return self.err("expected fraction digits");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return self.err("expected exponent digits");
            }
        }
        match self.s[start..self.i].parse() {
            Ok(n) => Ok(Json::Number(n)),
            Err(_) => self.err("number out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_SHARD;

    fn ev(kind: EventKind, task: u64, worker: u32, ts_ns: u64) -> Event {
        Event {
            seq: ts_ns,
            kind,
            task,
            aux: NO_TASK,
            shard: NO_SHARD,
            worker,
            ts_ns,
        }
    }

    #[test]
    fn trace_is_valid_json_with_spans_and_instants() {
        let events = vec![
            ev(EventKind::Submitted, 1, NO_WORKER, 10),
            ev(EventKind::Ready, 1, NO_WORKER, 20),
            ev(EventKind::ExecStart, 1, 0, 1_500),
            ev(EventKind::ExecDone, 1, 0, 2_750),
            ev(EventKind::Finished, 1, 0, 2_800),
        ];
        let json = chrome_trace(&events);
        validate_json(&json).expect("export must be well-formed JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":1.250"));
        assert!(json.contains("\"Submitted\""));
        assert!(json.contains("worker 0"));
    }

    #[test]
    fn empty_batch_still_validates() {
        validate_json(&chrome_trace(&[])).unwrap();
    }

    #[test]
    fn parser_decodes_escapes_and_passes_utf8_through() {
        let v = parse_json(r#"{"k": ["a\"\\\n\u00e9", "µs — é", -1.5e2, true, null]}"#).unwrap();
        let Json::Object(fields) = v else {
            panic!("not an object")
        };
        assert_eq!(fields[0].0, "k");
        assert_eq!(
            fields[0].1,
            Json::Array(vec![
                Json::String("a\"\\\né".into()),
                Json::String("µs — é".into()),
                Json::Number(-150.0),
                Json::Bool(true),
                Json::Null,
            ])
        );
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "null",
            "-12.5e+3",
            "[1, 2, {\"a\": [true, false]}]",
            "\"esc \\u00e9 \\n ok\"",
            "{}",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "{'single':1}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad} should fail");
        }
    }
}
