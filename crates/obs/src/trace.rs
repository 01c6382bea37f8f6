//! Structured, leveled, sampled tracing.
//!
//! One global tracer (installed once via [`init`]) formats events either as
//! `key=value` text lines or as one JSON object per line, both written to
//! stderr in a single `write` so concurrent sessions never interleave
//! mid-line. Per-session sampling is deterministic in the session id, so all
//! events of one session are kept or dropped together and a given id traces
//! identically across runs.

use std::io::Write as _;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Output encoding for trace lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `ts=… level=… event=… key=value` lines.
    Text,
    /// One JSON object per line.
    Json,
}

/// Severity of a trace event, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or protocol-violating conditions.
    Error,
    /// Degraded-but-continuing conditions (evictions, fallbacks).
    Warn,
    /// Session lifecycle and state-machine transitions.
    Info,
    /// High-volume per-frame detail.
    Debug,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A typed field value attached to a trace event.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

/// Tracer configuration passed to [`init`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Output encoding.
    pub format: TraceFormat,
    /// Maximum level emitted (events above this severity are dropped).
    pub level: Level,
    /// Fraction of sessions traced, `0.0..=1.0`. Non-session events (no id)
    /// are never sampled away.
    pub sample: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            format: TraceFormat::Text,
            level: Level::Info,
            sample: 1.0,
        }
    }
}

struct Tracer {
    config: TraceConfig,
    threshold: u64,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// Install the global tracer. Returns `false` if one was already installed
/// (the first installation wins; later calls are ignored).
pub fn init(config: TraceConfig) -> bool {
    let sample = config.sample.clamp(0.0, 1.0);
    // Sessions whose mixed id falls below the threshold are traced.
    let threshold = if sample >= 1.0 {
        u64::MAX
    } else {
        (sample * u64::MAX as f64) as u64
    };
    TRACER.set(Tracer { config, threshold }).is_ok()
}

/// Whether any tracer is installed and accepts events at `level`.
#[inline]
pub fn enabled(level: Level) -> bool {
    match TRACER.get() {
        Some(t) => level <= t.config.level,
        None => false,
    }
}

/// SplitMix64 finalizer: decorrelates sequential session ids before the
/// sampling comparison.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Whether a given session id is kept by the configured sample rate.
/// Deterministic: the same id gives the same answer for the life of the
/// process. Returns `false` when no tracer is installed.
#[inline]
pub fn sampled(session_id: u64) -> bool {
    match TRACER.get() {
        Some(t) => t.threshold == u64::MAX || mix(session_id) <= t.threshold,
        None => false,
    }
}

/// Emit one trace event if the tracer is installed, `level` passes, and (for
/// session events) the session id passes sampling.
pub fn event(
    level: Level,
    component: &str,
    session: Option<u64>,
    name: &str,
    fields: &[(&str, Value<'_>)],
) {
    let Some(t) = TRACER.get() else { return };
    if level > t.config.level {
        return;
    }
    if let Some(id) = session {
        if !sampled(id) {
            return;
        }
    }
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_secs_f64();
    let line = format_event(t.config.format, ts, level, component, session, name, fields);
    let stderr = std::io::stderr();
    let mut lock = stderr.lock();
    let _ = writeln!(lock, "{line}");
}

/// Pure formatter behind [`event`].
fn format_event(
    format: TraceFormat,
    ts: f64,
    level: Level,
    component: &str,
    session: Option<u64>,
    name: &str,
    fields: &[(&str, Value<'_>)],
) -> String {
    let mut out = String::new();
    match format {
        TraceFormat::Text => {
            out.push_str(&format!(
                "ts={ts:.3} level={} component={component} event={name}",
                level.as_str()
            ));
            if let Some(id) = session {
                out.push_str(&format!(" session={id}"));
            }
            for (k, v) in fields {
                out.push(' ');
                out.push_str(k);
                out.push('=');
                match v {
                    Value::U64(x) => out.push_str(&x.to_string()),
                    Value::I64(x) => out.push_str(&x.to_string()),
                    Value::F64(x) => out.push_str(&format!("{x:.6}")),
                    Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                    Value::Str(s) => {
                        if s.contains([' ', '"', '=']) {
                            out.push_str(&format!("{:?}", s));
                        } else {
                            out.push_str(s);
                        }
                    }
                }
            }
        }
        TraceFormat::Json => {
            out.push_str(&format!(
                "{{\"ts\":{ts:.3},\"level\":\"{}\",\"component\":\"{}\",\"event\":\"{}\"",
                level.as_str(),
                json_escape(component),
                json_escape(name)
            ));
            if let Some(id) = session {
                out.push_str(&format!(",\"session\":{id}"));
            }
            for (k, v) in fields {
                out.push_str(&format!(",\"{}\":", json_escape(k)));
                match v {
                    Value::U64(x) => out.push_str(&x.to_string()),
                    Value::I64(x) => out.push_str(&x.to_string()),
                    Value::F64(x) => {
                        if x.is_finite() {
                            out.push_str(&format!("{x}"));
                        } else {
                            out.push_str("null");
                        }
                    }
                    Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                    Value::Str(s) => out.push_str(&format!("\"{}\"", json_escape(s))),
                }
            }
            out.push('}');
        }
    }
    out
}

/// Escape a string for inclusion in a JSON string literal: quote,
/// backslash and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_is_stable() {
        let line = format_event(
            TraceFormat::Text,
            12.5,
            Level::Info,
            "session",
            Some(7),
            "phase",
            &[("from", Value::Str("handshake")), ("bytes", Value::U64(42))],
        );
        assert_eq!(
            line,
            "ts=12.500 level=info component=session event=phase session=7 from=handshake bytes=42"
        );
    }

    #[test]
    fn json_format_escapes() {
        let line = format_event(
            TraceFormat::Json,
            1.0,
            Level::Warn,
            "store",
            None,
            "evict",
            &[("name", Value::Str("a\"b"))],
        );
        assert_eq!(
            line,
            "{\"ts\":1.000,\"level\":\"warn\",\"component\":\"store\",\"event\":\"evict\",\"name\":\"a\\\"b\"}"
        );
    }
}
