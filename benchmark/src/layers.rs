//! Per-layer metrics: what the traced replay's spans, the counts read at
//! the layer boundaries and the untraced pass's public phase timers say
//! about where a session's time and bytes go.

use crate::engine::Loopback;
use crate::json::Json;
use crate::metrics::{self, Metrics};
use crate::replay::Replay;
use crate::span::SessionSpans;
use crate::stats::{mean, median, quantile};
use crate::workload::Workload;

/// Frame types a replayed session can put on the wire.
const FRAME_KINDS: [&str; 7] = [
    "hello",
    "estimator",
    "sketches",
    "reports",
    "done",
    "delta_batch",
    "delta_done",
];

/// The critical path of one replayed full sync. A run is pinned to one CPU
/// (`pin.rs`), so nothing a real session does overlaps anything else: the
/// path is simply every span in protocol order — exactly what the replay
/// runs. Only the payload-codec spans are left out: they are side
/// measurements of work the frame spans already contain. (`README.md` names
/// the two pairs of calls that *would* overlap with client and server on
/// CPUs of their own.)
fn critical_path_ms(s: &SessionSpans) -> f64 {
    s.total_ms - s.ms("core.wire_codec")
}

/// Per-layer metrics of one traced run, plus the fields of the layer table
/// written to `out/layers_<workload>.json`.
pub fn analyse(
    w: &Workload,
    loopback: &Loopback,
    traced: &Replay,
    untraced: &Replay,
) -> (Metrics, Vec<(&'static str, Json)>) {
    let mut m = Metrics::new();
    let sessions = traced.tracer.sessions("session.full_sync");
    let per_session = |f: &dyn Fn(&SessionSpans) -> f64| -> f64 {
        median(&sessions.iter().map(f).collect::<Vec<f64>>())
    };
    let mut span_ms = |metric: &str, name: &'static str| {
        m.insert(metric.into(), (per_session(&|s| s.ms(name)), "ms"));
    };
    span_ms(
        "estimator.tow_insert_client_ms",
        "estimator.tow_insert_client",
    );
    span_ms(
        "estimator.tow_insert_server_ms",
        "estimator.tow_insert_server",
    );
    span_ms("store.snapshot_ms", "store.snapshot");
    span_ms("store.apply_missing_ms", "store.apply_missing");
    span_ms("core.alice_new_ms", "core.alice_new");
    span_ms("core.bob_new_ms", "core.bob_new");
    span_ms("core.encode_ms", "core.encode");
    span_ms("core.bob_decode_ms", "core.bob_decode");
    span_ms("core.apply_ms", "core.apply");
    span_ms("core.wire_codec_ms", "core.wire_codec");
    span_ms("client.glue_ms", "client.glue");

    // One `plan` call (each side makes one per session).
    let mut plans = traced.tracer.durations_us("analysis.plan.client");
    plans.extend(traced.tracer.durations_us("analysis.plan.server"));
    m.insert("analysis.plan_ms".into(), (median(&plans) / 1e3, "ms"));
    m.insert(
        "estimator.tow_codec_us".into(),
        (per_session(&|s| s.ms("estimator.tow_codec")) * 1e3, "us"),
    );
    m.insert(
        "frame.encode_ms".into(),
        (per_session(&|s| s.ms_prefixed("frame.encode.")), "ms"),
    );
    m.insert(
        "frame.decode_ms".into(),
        (per_session(&|s| s.ms_prefixed("frame.decode.")), "ms"),
    );

    // Counts at the layer boundaries.
    let facts = &traced.syncs;
    let count = |f: &dyn Fn(&crate::replay::SyncFacts) -> f64| -> Vec<f64> {
        facts.iter().map(f).collect()
    };
    m.insert(
        "estimator.d_param_over_d".into(),
        (median(&count(&|f| f.d_param as f64 / w.d() as f64)), "x"),
    );
    m.insert(
        "core.groups".into(),
        (median(&count(&|f| f.groups as f64)), "count"),
    );
    m.insert(
        "core.decode_failures".into(),
        (mean(&count(&|f| f.decode_failures as f64)), "count"),
    );
    m.insert(
        "core.fakes_rejected".into(),
        (mean(&count(&|f| f.fakes_rejected as f64)), "count"),
    );
    m.insert(
        "core.round_trips_mean".into(),
        (mean(&count(&|f| f.round_trips as f64)), "count"),
    );
    for kind in FRAME_KINDS {
        let per_sync = median(&count(&|f| {
            f.frame_bytes.get(kind).copied().unwrap_or(0) as f64
        }));
        // A full sync ships no DeltaBatch; that type's bytes are those of
        // one write batch's catch-up.
        let bytes = match kind {
            "delta_batch" => traced.delta_frame_bytes.get(kind).copied().unwrap_or(0) as f64,
            _ => per_sync,
        };
        m.insert(format!("frame.bytes.{kind}"), (bytes, "B"));
    }

    // The write path.
    let applies = traced.tracer.durations_us("store.apply");
    m.insert("store.apply_p50_us".into(), (median(&applies), "us"));
    m.insert(
        "store.apply_p999_us".into(),
        (quantile(&applies, 0.999), "us"),
    );
    m.insert(
        "store.apply_max_ms".into(),
        (applies.iter().copied().fold(f64::NAN, f64::max) / 1e3, "ms"),
    );
    m.insert(
        "store.changes_since_us".into(),
        (
            median(&traced.tracer.durations_us("store.changes_since")),
            "us",
        ),
    );
    m.insert(
        "wal.bytes_per_change_byte".into(),
        (
            traced.file_bytes_written as f64 / traced.change_bytes.max(1) as f64,
            "x",
        ),
    );
    m.insert("wal.snapshots".into(), (traced.snapshots as f64, "count"));

    // The untraced pass: the client's public phase timers and the server's
    // counters.
    let phase = |f: &dyn Fn(&pbs_net::SyncPhases) -> std::time::Duration| -> f64 {
        median(
            &loopback
                .syncs
                .iter()
                .map(|s| f(&s.phases).as_secs_f64() * 1e3)
                .collect::<Vec<f64>>(),
        )
    };
    m.insert("client.connect_ms".into(), (phase(&|p| p.connect), "ms"));
    m.insert(
        "client.handshake_ms".into(),
        (phase(&|p| p.handshake), "ms"),
    );
    m.insert("client.estimate_ms".into(), (phase(&|p| p.estimate), "ms"));
    m.insert("client.rounds_ms".into(), (phase(&|p| p.rounds), "ms"));
    m.insert("client.transfer_ms".into(), (phase(&|p| p.transfer), "ms"));
    m.insert(
        "client.delta_ms".into(),
        (median(&loopback.delta_phase_us) / 1e3, "ms"),
    );
    m.insert(
        "server.bytes_in".into(),
        (loopback.server.bytes_in as f64, "B"),
    );
    m.insert(
        "server.bytes_out".into(),
        (loopback.server.bytes_out as f64, "B"),
    );
    m.insert(
        "server.rounds".into(),
        (loopback.server.rounds as f64, "count"),
    );
    m.insert(
        "harness.push_late_p99_ms".into(),
        (
            if loopback.writer_late_ms.is_empty() {
                0.0
            } else {
                quantile(&loopback.writer_late_ms, 0.99)
            },
            "ms",
        ),
    );

    // What the replayed layers do not explain, against the session whose
    // critical path is the median one — so the table below sums exactly.
    let sync_ms: Vec<f64> = loopback.syncs.iter().map(|s| s.ms).collect();
    let sync_p50_ms = median(&sync_ms);
    let mut by_path: Vec<(f64, &SessionSpans)> =
        sessions.iter().map(|s| (critical_path_ms(s), s)).collect();
    by_path.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (path_ms, typical) = by_path[(by_path.len() - 1) / 2];
    m.insert("net.unattributed_ms".into(), (sync_p50_ms - path_ms, "ms"));
    let common = traced.cycle_s.len().min(untraced.cycle_s.len());
    let wall = |r: &Replay| r.cycle_s[..common].iter().sum::<f64>();
    m.insert(
        "trace.overhead_share".into(),
        ((wall(traced) - wall(untraced)) / wall(untraced), "share"),
    );

    // ---- The layer table ----
    let shares = m
        .iter()
        .filter(|(_, (_, unit))| *unit == "ms")
        .map(|(name, (value, _))| (format!("share.{name}"), Json::Num(value / sync_p50_ms)))
        .collect();
    let mut critical: Vec<(String, Json)> = typical
        .by_name
        .iter()
        .filter(|(name, _)| **name != "core.wire_codec")
        .map(|(name, ms)| (name.to_string(), Json::Num(*ms)))
        .collect();
    critical.push(("harness.self".into(), Json::Num(typical.self_ms)));
    critical.push(("net.unattributed".into(), Json::Num(sync_p50_ms - path_ms)));
    let table = vec![
        ("sync_p50_ms", Json::Num(sync_p50_ms)),
        ("sync_samples", Json::Num(sync_ms.len() as f64)),
        ("replayed_sessions", Json::Num(sessions.len() as f64)),
        ("metrics", metrics::to_json(&m)),
        ("shares_of_sync_p50", Json::Obj(shares)),
        // Every span of the median session plus the unattributed rest: the
        // terms sum to sync_p50_ms.
        ("critical_path_ms", Json::Obj(critical)),
    ];
    (m, table)
}
