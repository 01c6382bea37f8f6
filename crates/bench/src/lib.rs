//! Shared experiment harness used by the figure/table regeneration binaries
//! and the Criterion benchmarks.
//!
//! Every `fig*`/`table*`/`section*`/`ablation*` binary in `src/bin/`
//! regenerates the table or figure of the paper its name says, by running
//! [`Reconciler`] implementations
//! on [`protocol::Workload`] instances and aggregating the paper's two
//! metrics: communication overhead and encode/decode time, plus the success
//! rate against ground truth.
//!
//! ## Scale knobs
//!
//! The paper runs `|A| = 10^6`, `d ∈ [10, 10^5]`, 1,000 trials per point on a
//! dedicated workstation. A full-fidelity run is possible here too but takes
//! hours (PinSketch alone is quadratic in `d`), so the binaries default to a
//! reduced-but-same-shape scale and honour these environment variables:
//!
//! * `PBS_BENCH_SET_SIZE` — `|A|` (default 50,000)
//! * `PBS_BENCH_TRIALS` — trials per point (default 5)
//! * `PBS_BENCH_D_VALUES` — comma-separated list of `d` values
//! * `PBS_BENCH_FULL=1` — paper-scale defaults (10^6 elements, 100 trials)
//!
//! Their output is printed, not committed: no file in the repository
//! records a run of them.

#![warn(missing_docs)]

use protocol::{symmetric_difference, Reconciler, Workload};
use std::time::Duration;

/// Scale parameters for one experiment sweep.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Cardinality of Alice's set.
    pub set_size: usize,
    /// Number of independent (A, B) instances per point.
    pub trials: u64,
    /// The set-difference cardinalities to sweep.
    pub d_values: Vec<usize>,
}

impl Scale {
    /// Resolve the scale from the environment, starting from the given
    /// defaults (see the crate docs for the variables).
    pub fn from_env(default_set_size: usize, default_trials: u64, default_d: &[usize]) -> Self {
        let full = std::env::var("PBS_BENCH_FULL")
            .map(|v| v == "1")
            .unwrap_or(false);
        let mut scale = if full {
            Scale {
                set_size: 1_000_000,
                trials: 100,
                d_values: vec![10, 100, 1_000, 10_000, 100_000],
            }
        } else {
            Scale {
                set_size: default_set_size,
                trials: default_trials,
                d_values: default_d.to_vec(),
            }
        };
        if let Ok(v) = std::env::var("PBS_BENCH_SET_SIZE") {
            if let Ok(n) = v.parse() {
                scale.set_size = n;
            }
        }
        if let Ok(v) = std::env::var("PBS_BENCH_TRIALS") {
            if let Ok(n) = v.parse() {
                scale.trials = n;
            }
        }
        if let Ok(v) = std::env::var("PBS_BENCH_D_VALUES") {
            let ds: Vec<usize> = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
            if !ds.is_empty() {
                scale.d_values = ds;
            }
        }
        scale
    }

    /// The default reduced scale used by the figure binaries.
    pub fn default_reduced() -> Self {
        Self::from_env(50_000, 5, &[10, 100, 1_000])
    }
}

/// Aggregated measurements for one scheme at one `d` value.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Scheme name.
    pub scheme: &'static str,
    /// Set-difference cardinality of the workload.
    pub d: usize,
    /// Number of trials aggregated.
    pub trials: u64,
    /// Fraction of trials in which the recovered difference matched ground
    /// truth exactly (the paper's "success rate").
    pub success_rate: f64,
    /// Mean total communication in kilobytes.
    pub mean_comm_kb: f64,
    /// Mean encode time in seconds.
    pub mean_encode_s: f64,
    /// Mean decode time in seconds.
    pub mean_decode_s: f64,
    /// Mean number of protocol rounds.
    pub mean_rounds: f64,
    /// Communication overhead relative to the theoretical minimum
    /// `d·log|U|`.
    pub comm_over_minimum: f64,
}

/// Run `scheme` on `trials` independent instances of the workload and
/// aggregate the paper's metrics.
pub fn run_point(
    scheme: &dyn Reconciler,
    workload: &Workload,
    trials: u64,
    base_seed: u64,
) -> ExperimentPoint {
    let mut successes = 0u64;
    let mut comm_bytes = 0f64;
    let mut encode = Duration::ZERO;
    let mut decode = Duration::ZERO;
    let mut rounds = 0f64;
    for trial in 0..trials {
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trial);
        let pair = workload.generate(seed);
        let outcome = scheme.reconcile(&pair.a, &pair.b, seed ^ 0x5EED);
        let truth = symmetric_difference(&pair.a, &pair.b);
        if outcome.matches(&truth) {
            successes += 1;
        }
        comm_bytes += outcome.comm.total_bytes() as f64;
        encode += outcome.timing.encode;
        decode += outcome.timing.decode;
        rounds += outcome.rounds as f64;
    }
    let t = trials as f64;
    let mean_comm = comm_bytes / t;
    let minimum = protocol::theoretical_minimum_bytes(workload.d.max(1), workload.universe_bits);
    ExperimentPoint {
        scheme: scheme.name(),
        d: workload.d,
        trials,
        success_rate: successes as f64 / t,
        mean_comm_kb: mean_comm / 1000.0,
        mean_encode_s: encode.as_secs_f64() / t,
        mean_decode_s: decode.as_secs_f64() / t,
        mean_rounds: rounds / t,
        comm_over_minimum: mean_comm / minimum,
    }
}

/// Print a header for the standard comparison table.
pub fn print_header(title: &str, scale: &Scale) {
    println!("# {title}");
    println!(
        "# |A| = {}, trials per point = {}, universe = 32-bit",
        scale.set_size, scale.trials
    );
    println!(
        "{:<14} {:>8} {:>10} {:>12} {:>10} {:>12} {:>12} {:>8}",
        "scheme", "d", "success", "comm (KB)", "x-minimum", "encode (s)", "decode (s)", "rounds"
    );
}

/// Print one aggregated point as a table row.
pub fn print_point(p: &ExperimentPoint) {
    println!(
        "{:<14} {:>8} {:>10.4} {:>12.3} {:>10.2} {:>12.6} {:>12.6} {:>8.2}",
        p.scheme,
        p.d,
        p.success_rate,
        p.mean_comm_kb,
        p.comm_over_minimum,
        p.mean_encode_s,
        p.mean_decode_s,
        p.mean_rounds
    );
}

/// The CI bench-regression gate: a dependency-free JSON reader and the
/// baseline-vs-current comparison the `check_bench` binary runs.
///
/// The two benchmark binaries (`bench_gf_bch`, `bench_decode_path`) emit
/// flat JSON reports with two classes of *tracked metrics*: wall-clock
/// costs of the optimized path (`fast_ns_per_op` / `fast_ms`, lower is
/// better) and same-run fast-vs-reference `speedup` ratios (higher is
/// better, and robust across machines). `compare` pairs each tracked
/// metric of the committed baseline with the freshly emitted report by its
/// structural path (e.g. `gf_mul[2].fast_ns_per_op`) and flags any that
/// degraded beyond the tolerance (default 25%, `BENCH_GATE_TOLERANCE`
/// overrides).
pub mod gate {
    /// A parsed JSON value. Only what the bench reports need: numbers are
    /// `f64`, object key order is preserved.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (parsed as `f64`)
        Num(f64),
        /// A string
        Str(String),
        /// An array
        Arr(Vec<Json>),
        /// An object, key order preserved
        Obj(Vec<(String, Json)>),
    }

    /// Parse a JSON document. Errors carry the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    expect(b, pos, b':')?;
                    let val = parse_value(b, pos)?;
                    fields.push((key, val));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                s.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("invalid number {s:?} at byte {start}"))
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        other => other as char,
                    });
                }
                other => out.push(other as char),
            }
        }
        Err("unterminated string".into())
    }

    /// Walk a document and collect every numeric leaf with its structural
    /// path (`section.field`, arrays indexed as `section[3].field`).
    pub fn numeric_leaves(json: &Json) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        collect(json, String::new(), &mut out);
        out
    }

    fn collect(json: &Json, path: String, out: &mut Vec<(String, f64)>) {
        match json {
            Json::Num(v) => out.push((path, *v)),
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    collect(item, format!("{path}[{i}]"), out);
                }
            }
            Json::Obj(fields) => {
                for (k, v) in fields {
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    collect(v, p, out);
                }
            }
            _ => {}
        }
    }

    /// How a tracked metric regresses.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MetricKind {
        /// Absolute wall-clock of the optimized path (`fast_ms`,
        /// `fast_ns_per_op`): lower is better. Comparable across runs on
        /// the *same* machine; cross-machine runs need a wide tolerance.
        Time,
        /// Same-run fast-vs-reference ratio (`speedup`): higher is better.
        /// Both sides of the ratio are measured in the same process on the
        /// same machine, so this stays meaningful when the gate runs on a
        /// different box than the one that recorded the baseline.
        Speedup,
    }

    /// Classify a numeric leaf as a tracked performance metric.
    pub fn tracked_metric(path: &str) -> Option<MetricKind> {
        if path.ends_with("fast_ns_per_op") || path.ends_with("fast_ms") {
            Some(MetricKind::Time)
        } else if path.ends_with("speedup") {
            Some(MetricKind::Speedup)
        } else {
            None
        }
    }

    /// One tracked metric compared between baseline and current run.
    #[derive(Debug, Clone)]
    pub struct Comparison {
        /// Structural path of the metric inside the report.
        pub path: String,
        /// Which way this metric regresses.
        pub kind: MetricKind,
        /// Committed baseline value.
        pub baseline: f64,
        /// Freshly measured value.
        pub current: f64,
        /// Degradation factor, normalized so `> 1` always means worse
        /// (`current / baseline` for times, `baseline / current` for
        /// speedups).
        pub ratio: f64,
        /// `true` when the degradation exceeds the tolerance.
        pub regressed: bool,
    }

    /// Compare every tracked metric of `baseline` against `current`.
    /// `tolerance` is the allowed fractional degradation (0.25 = 25%
    /// slower, or a 25% smaller speedup ratio). A tracked baseline metric
    /// missing from the current report is an error: a silently dropped
    /// metric must not pass the gate.
    pub fn compare(
        baseline: &Json,
        current: &Json,
        tolerance: f64,
    ) -> Result<Vec<Comparison>, String> {
        let cur: std::collections::HashMap<String, f64> =
            numeric_leaves(current).into_iter().collect();
        let mut out = Vec::new();
        for (path, base) in numeric_leaves(baseline) {
            let Some(kind) = tracked_metric(&path) else {
                continue;
            };
            let Some(&now) = cur.get(&path) else {
                return Err(format!("tracked metric {path} missing from current report"));
            };
            let ratio = match kind {
                // A non-positive baseline time cannot gate anything — the
                // committed report is broken and must be regenerated, not
                // silently skipped.
                MetricKind::Time if base <= 0.0 => {
                    return Err(format!(
                        "baseline metric {path} is {base}, cannot gate against it"
                    ));
                }
                MetricKind::Time => now / base,
                // A current speedup that rounds to zero is a total fast-path
                // collapse: infinitely worse, never "unchanged".
                MetricKind::Speedup if now <= 0.0 => f64::INFINITY,
                MetricKind::Speedup => base / now,
            };
            out.push(Comparison {
                path,
                kind,
                baseline: base,
                current: now,
                ratio,
                regressed: ratio > 1.0 + tolerance,
            });
        }
        if out.is_empty() {
            return Err("baseline report contains no tracked metrics".into());
        }
        Ok(out)
    }

    /// The gate tolerance: `BENCH_GATE_TOLERANCE` (fractional, e.g. `0.4`)
    /// or the default 25%.
    pub fn tolerance_from_env() -> f64 {
        std::env::var("BENCH_GATE_TOLERANCE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|t| *t >= 0.0)
            .unwrap_or(0.25)
    }
}

#[cfg(test)]
mod gate_tests {
    use super::gate::{self, Json};

    const REPORT: &str = r#"{
      "bench": "demo", "hardware_clmul": true,
      "gf_mul": [
        {"m": 11, "backend": "tables", "fast_ns_per_op": 1.0, "reference_ns_per_op": 30.0, "speedup": 30.0},
        {"m": 32, "backend": "clmul-barrett", "fast_ns_per_op": 5.0, "reference_ns_per_op": 100.0, "speedup": 20.0}
      ],
      "decode": {"d": 100, "fast_ms": 5.5, "reference_ms": 61.0, "speedup": 11.09}
    }"#;

    #[test]
    fn parses_and_flattens_reports() {
        let doc = gate::parse(REPORT).unwrap();
        let leaves = gate::numeric_leaves(&doc);
        let get = |p: &str| leaves.iter().find(|(k, _)| k == p).map(|(_, v)| *v);
        assert_eq!(get("gf_mul[0].m"), Some(11.0));
        assert_eq!(get("gf_mul[1].fast_ns_per_op"), Some(5.0));
        assert_eq!(get("decode.fast_ms"), Some(5.5));
        assert!(matches!(doc, Json::Obj(_)));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(gate::parse("{\"a\": ").is_err());
        assert!(gate::parse("{\"a\": 1} trailing").is_err());
        assert!(gate::parse("[1, ]").is_err());
    }

    #[test]
    fn compare_flags_only_excessive_slowdowns() {
        let base = gate::parse(REPORT).unwrap();
        let current = gate::parse(
            &REPORT
                .replace("\"fast_ns_per_op\": 1.0", "\"fast_ns_per_op\": 1.2") // +20%: ok
                .replace("\"fast_ms\": 5.5", "\"fast_ms\": 9.9"), // +80%: regression
        )
        .unwrap();
        let cmp = gate::compare(&base, &current, 0.25).unwrap();
        assert_eq!(cmp.len(), 6, "three time metrics + three speedup ratios");
        let by_path = |p: &str| cmp.iter().find(|c| c.path.ends_with(p)).unwrap();
        assert!(!by_path("gf_mul[0].fast_ns_per_op").regressed);
        assert!(!by_path("gf_mul[1].fast_ns_per_op").regressed);
        assert!(by_path("decode.fast_ms").regressed);
        assert!(!by_path("decode.speedup").regressed, "ratio did not move");
        // Getting *faster* never trips the gate.
        let faster = gate::parse(&REPORT.replace("\"fast_ms\": 5.5", "\"fast_ms\": 0.5")).unwrap();
        assert!(gate::compare(&base, &faster, 0.25)
            .unwrap()
            .iter()
            .all(|c| !c.regressed));
    }

    #[test]
    fn compare_flags_collapsed_speedup_ratio() {
        // The machine-robust check: even if absolute times pass (e.g. the
        // gate runs on a faster machine), a collapsed same-run
        // fast-vs-reference ratio is a regression.
        let base = gate::parse(REPORT).unwrap();
        let collapsed = gate::parse(
            &REPORT
                .replace("\"fast_ms\": 5.5", "\"fast_ms\": 5.0") // faster in absolute terms
                .replace("\"speedup\": 11.09", "\"speedup\": 4.0"), // ratio collapsed
        )
        .unwrap();
        let cmp = gate::compare(&base, &collapsed, 0.25).unwrap();
        let by_path = |p: &str| cmp.iter().find(|c| c.path.ends_with(p)).unwrap();
        assert!(!by_path("decode.fast_ms").regressed);
        assert!(by_path("decode.speedup").regressed);
        assert_eq!(by_path("decode.speedup").kind, gate::MetricKind::Speedup);
        // A *larger* speedup is fine.
        let better =
            gate::parse(&REPORT.replace("\"speedup\": 11.09", "\"speedup\": 20.0")).unwrap();
        assert!(gate::compare(&base, &better, 0.25)
            .unwrap()
            .iter()
            .all(|c| !c.regressed));
    }

    #[test]
    fn degenerate_values_never_slip_through() {
        let base = gate::parse(REPORT).unwrap();
        // A speedup that rounds to 0.00 is a total collapse, not "no change".
        let collapsed =
            gate::parse(&REPORT.replace("\"speedup\": 11.09", "\"speedup\": 0.00")).unwrap();
        let cmp = gate::compare(&base, &collapsed, 0.25).unwrap();
        let c = cmp.iter().find(|c| c.path == "decode.speedup").unwrap();
        assert!(c.regressed && c.ratio.is_infinite());
        // A zero baseline time is a broken report, not a free pass.
        let zero_base =
            gate::parse(&REPORT.replace("\"fast_ms\": 5.5", "\"fast_ms\": 0.0")).unwrap();
        assert!(gate::compare(&zero_base, &base, 0.25).is_err());
    }

    #[test]
    fn compare_errors_on_missing_tracked_metric() {
        let base = gate::parse(REPORT).unwrap();
        let missing = gate::parse(&REPORT.replace("\"fast_ms\": 5.5, ", "")).unwrap();
        assert!(gate::compare(&base, &missing, 0.25).is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_core::Pbs;

    #[test]
    fn run_point_aggregates_sane_values() {
        let workload = Workload {
            set_size: 2_000,
            d: 20,
            universe_bits: 32,
            subset_mode: true,
        };
        let p = run_point(&Pbs::paper_default(), &workload, 3, 1);
        assert_eq!(p.scheme, "PBS");
        assert_eq!(p.d, 20);
        assert_eq!(p.trials, 3);
        assert!(p.success_rate > 0.0);
        assert!(p.mean_comm_kb > 0.0);
        assert!(p.comm_over_minimum > 1.0);
        assert!(p.mean_rounds >= 1.0);
    }

    #[test]
    fn scale_from_env_defaults() {
        let s = Scale::from_env(1234, 7, &[1, 2, 3]);
        // Environment variables may be absent in the test environment; the
        // defaults must then carry through.
        if std::env::var("PBS_BENCH_SET_SIZE").is_err() && std::env::var("PBS_BENCH_FULL").is_err()
        {
            assert_eq!(s.set_size, 1234);
            assert_eq!(s.trials, 7);
            assert_eq!(s.d_values, vec![1, 2, 3]);
        }
    }
}
