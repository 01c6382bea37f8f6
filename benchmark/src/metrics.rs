//! Turning what a run measured into named metrics, and the benchmark's
//! definition file (`BENCHMARK.json`) into the lists of names a run must
//! print.

use crate::engine::{Loopback, Timed};
use crate::host::Slowdown;
use crate::json::{self, Json};
use crate::stats::{mean, median, quantile};
use crate::workload::{Workload, PUSH_LIMIT};
use std::collections::BTreeMap;
use std::path::Path;

/// `name → (value, unit)`.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program reads.
#[derive(Debug, Clone)]
pub struct Definition {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Definition {
    pub fn load(path: &Path) -> Result<Definition, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: m
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("metric without name")?
                            .to_string(),
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .ok_or("metric without unit")?
                            .to_string(),
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Definition {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }
}

/// The three bounded timings as read off the wall clock, before the host's
/// slowdown is divided out — written next to the metrics in `out/`.
pub fn raw_timings(run: &Loopback) -> Metrics {
    let raw = |samples: &[Timed]| median(&samples.iter().map(|t| t.raw).collect::<Vec<f64>>());
    let sync_ms: Vec<f64> = run.syncs.iter().map(|s| s.ms).collect();
    Metrics::from([
        ("setup_s".into(), (raw(&run.setup_s), "s")),
        ("sync_p50_ms".into(), (median(&sync_ms), "ms")),
        ("write_catchup_p50_us".into(), (raw(&run.pair_us), "us")),
    ])
}

/// Every metric the untraced pass can report. `BENCHMARK.json` decides
/// which of them are end-to-end (bounded) and which are per-layer. The
/// three bounded timings are scaled to the reference box's speed, sample by
/// sample (`host.rs`) — `setup_s` and `sync_p50_ms` by the compute reading,
/// `write_catchup_p50_us` by the connect reading; everything else is raw
/// wall clock.
pub fn from_loopback(w: &Workload, run: &Loopback) -> Metrics {
    let mut m = Metrics::new();
    let scaled = |samples: &[Timed], by: fn(&Slowdown) -> f64| {
        median(
            &samples
                .iter()
                .map(|t| t.raw / by(&t.slowdown))
                .collect::<Vec<f64>>(),
        )
    };
    let sync_ms: Vec<f64> = run.syncs.iter().map(|s| s.ms).collect();
    let sync_scaled_ms: Vec<f64> = run
        .syncs
        .iter()
        .map(|s| s.ms / s.slowdown.compute)
        .collect();
    let bursts =
        |by: fn(&Slowdown) -> f64| median(&run.host_slowdown.iter().map(by).collect::<Vec<f64>>());
    m.insert("setup_s".into(), (scaled(&run.setup_s, |s| s.compute), "s"));
    m.insert("sync_p50_ms".into(), (median(&sync_scaled_ms), "ms"));
    m.insert(
        "write_catchup_p50_us".into(),
        (scaled(&run.pair_us, |s| s.connect), "us"),
    );
    m.insert(
        "harness.host_compute_x".into(),
        (bursts(|s| s.compute), "x"),
    );
    m.insert(
        "harness.host_connect_x".into(),
        (bursts(|s| s.connect), "x"),
    );
    m.insert("sync_p90_ms".into(), (quantile(&sync_ms, 0.9), "ms"));
    m.insert(
        "syncs_per_s".into(),
        (
            sync_ms.len() as f64 / (sync_ms.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
    );

    // Exact-repeat metrics: over the first `min_syncs` sessions only, which
    // every run completes, so the value is a function of the seed alone.
    let prefix = &run.syncs[..w.min_syncs.min(run.syncs.len())];
    let minimum = protocol::theoretical_minimum_bytes(w.d(), 32);
    let bytes: Vec<f64> = prefix.iter().map(|s| s.bytes as f64 / minimum).collect();
    let rounds: Vec<f64> = prefix.iter().map(|s| s.rounds as f64).collect();
    m.insert("overhead_x_min".into(), (mean(&bytes), "x"));
    m.insert("rounds_mean".into(), (mean(&rounds), "count"));
    m.insert(
        "delta_bytes_per_change".into(),
        (run.delta_bytes as f64 / run.delta_changes as f64, "B"),
    );

    m.insert("peak_rss_mb".into(), (run.peak_rss_mb, "MB"));
    m.insert("delta_sync_p50_us".into(), (median(&run.delta_us), "us"));
    m.insert(
        "delta_sync_p99_us".into(),
        (quantile(&run.delta_us, 0.99), "us"),
    );
    m.insert("apply_p50_us".into(), (median(&run.apply_us), "us"));
    m.insert("push_p50_ms".into(), (median(&run.push_ms), "ms"));
    m.insert("push_p99_ms".into(), (quantile(&run.push_ms, 0.99), "ms"));
    let limit_ms = PUSH_LIMIT.as_secs_f64() * 1e3;
    let within = run.push_ms.iter().filter(|&&ms| ms <= limit_ms).count();
    m.insert(
        "push_within_10ms_share".into(),
        (within as f64 / run.push_ms.len() as f64, "share"),
    );
    m
}

/// `{name: {"value": v, "unit": u}}` — the shape of the result line's
/// `metrics` and of the files under `out/`.
pub fn to_json<'a>(
    metrics: impl IntoIterator<Item = (&'a String, &'a (f64, &'static str))>,
) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, (value, unit))| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The contract's result line: `correct`, `attempted`, `failed` and the
/// metrics named in `wanted`, each with its unit.
pub fn result_line(
    wanted: &[Declared],
    metrics: &Metrics,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut printed = Vec::new();
    let mut correct = failed == 0;
    for want in wanted {
        let (name, entry) = metrics.get_key_value(&want.name).ok_or_else(|| {
            format!(
                "BENCHMARK.json names metric {:?}, which this program does not produce",
                want.name
            )
        })?;
        if entry.1 != want.unit {
            return Err(format!(
                "metric {}: unit {} here, {} in BENCHMARK.json",
                want.name, entry.1, want.unit
            ));
        }
        // A metric that could not be computed (no samples) is a failed run,
        // not a silent null.
        correct &= entry.0.is_finite();
        printed.push((name, entry));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", to_json(printed)),
    ])
    .render())
}
