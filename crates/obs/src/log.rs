//! Leveled structured logging: one JSON object per line, on stderr by
//! default.
//!
//! Every line is a flat JSON object with at least `ts_us` (wall-clock
//! microseconds since the Unix epoch), `level`, and `event`; when a trace
//! context is installed on the emitting thread (see [`crate::trace`]) the
//! line also carries `trace_id`, tying the log to the request's spans.
//! Fields never contain raw newlines — the escaper guarantees exactly one
//! line per record — so stderr is parseable by any JSON-lines consumer
//! (the tier-1 gate pipes a `spiderd` boot through one).
//!
//! The level filter is process-global: `ROUTES_LOG` (error | warn | info |
//! debug | trace, default `info`) read on first use, overridable at any
//! time with [`set_level`] (the `--log-level` flag). The sink is stderr
//! unless a test or benchmark installs its own with [`set_sink`].

use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Environment variable selecting the minimum level (`--log-level` wins).
pub const LOG_ENV: &str = "ROUTES_LOG";

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
}

impl Level {
    /// The lowercase name rendered into the `level` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a level name, case-insensitively.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            3 => Level::Debug,
            4 => Level::Trace,
            _ => Level::Info,
        }
    }
}

/// Sentinel meaning "not initialized from the environment yet".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The current minimum level (lazily initialized from [`LOG_ENV`]).
pub fn level() -> Level {
    let raw = LEVEL.load(Relaxed);
    if raw != LEVEL_UNSET {
        return Level::from_u8(raw);
    }
    let from_env = std::env::var(LOG_ENV)
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Info);
    // A racing set_level wins: only replace the sentinel.
    let _ = LEVEL.compare_exchange(LEVEL_UNSET, from_env as u8, Relaxed, Relaxed);
    Level::from_u8(LEVEL.load(Relaxed))
}

/// Override the minimum level (the `--log-level` flag).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Relaxed);
}

/// Whether a record at `level` would be emitted.
pub fn enabled(level: Level) -> bool {
    level <= self::level()
}

/// A field value. `From` impls cover the common primitives so call sites
/// read `("key", value.into())`.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    Str(&'a str),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<u16> for Value<'_> {
    fn from(v: u16) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Append `s` to `out` as a quoted JSON string: `"`, `\` and control
/// characters are escaped, and each run of bytes between them is copied
/// with one `push_str`. The workspace's only string escaper, shared by
/// log records, `routes-server`'s `Json::encode` and its route-answer
/// writer.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn push_value(out: &mut String, v: &Value<'_>) {
    match *v {
        Value::Str(s) => push_json_string(out, s),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Value::F64(_) => out.push_str("null"),
        Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
    }
}

/// The installed sink; `None` means stderr.
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Redirect log output (tests capture, benchmarks discard). `None`
/// restores stderr.
pub fn set_sink(sink: Option<Box<dyn Write + Send>>) {
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = sink;
}

/// Emit one structured record at `level`. Fields are rendered in call
/// order after the standard `ts_us` / `level` / `event` / `trace_id`
/// prefix; a duplicate of a standard key is the caller's bug, not checked.
pub fn log(level: Level, event: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled(level) {
        return;
    }
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(crate::micros)
        .unwrap_or(0);
    let mut line = String::with_capacity(96 + 24 * fields.len());
    line.push_str("{\"ts_us\":");
    line.push_str(&ts_us.to_string());
    line.push_str(",\"level\":\"");
    line.push_str(level.as_str());
    line.push_str("\",\"event\":");
    push_json_string(&mut line, event);
    if let Some(id) = crate::trace::current_trace_id() {
        line.push_str(",\"trace_id\":");
        push_json_string(&mut line, id.as_str());
    }
    for (key, value) in fields {
        line.push(',');
        push_json_string(&mut line, key);
        line.push(':');
        push_value(&mut line, value);
    }
    line.push_str("}\n");
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    match sink.as_mut() {
        Some(w) => {
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
        None => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    #[derive(Clone)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn levels_order_parse_and_render() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
        for l in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
            assert_eq!(Level::parse(&l.as_str().to_uppercase()), Some(l));
        }
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn escaping_keeps_one_record_per_line() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn escaper_matches_the_char_by_char_rule() {
        // Per char: `"`, `\` and the C0 controls are escaped, everything
        // else (DEL and all non-ASCII included) passes through.
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let mut samples: Vec<String> = (0u8..0x80).map(|b| format!("a{}b", b as char)).collect();
        samples.extend(
            [
                "",
                "plain",
                "say \"hi\"",
                "C:\\tmp",
                "\ttab\r\n",
                "é😀\u{1}",
                "\u{7f}\u{80}\u{1f}",
                "\\\"\\",
            ]
            .map(String::from),
        );
        for s in &samples {
            let mut out = String::new();
            push_json_string(&mut out, s);
            assert_eq!(out, reference(s), "{s:?}");
        }
    }

    #[test]
    fn records_render_as_json_lines_and_respect_the_filter() {
        let buf = Capture(Arc::new(StdMutex::new(Vec::new())));
        set_sink(Some(Box::new(buf.clone())));
        set_level(Level::Info);
        log(
            Level::Info,
            "unit \"test\"",
            &[
                ("count", 3u64.into()),
                ("what", "line\nbreak".into()),
                ("ok", true.into()),
            ],
        );
        log(Level::Debug, "filtered", &[]);
        set_sink(None);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "debug is below the info filter");
        let line = lines[0];
        assert!(line.starts_with("{\"ts_us\":"), "line: {line}");
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"event\":\"unit \\\"test\\\"\""));
        assert!(line.contains("\"count\":3"));
        assert!(line.contains("\"what\":\"line\\nbreak\""));
        assert!(line.contains("\"ok\":true"));
    }
}
