//! Admin-endpoint integration tests: a live server is scraped over real
//! sockets and the rendered `/metrics` must reconcile *exactly* with the
//! [`ServerStats`] snapshot and the client-side wire-byte ledgers — the
//! telemetry layer is only trustworthy if it never drifts from the
//! counters the protocol tests already pin down.
//!
//! Covered here:
//! * `/metrics` after a batch of full reconciliations: every one of the
//!   24 `pbs_server_*_total` counters equals its snapshot field, the
//!   per-store `pbs_store_*{store="default"}` mirror agrees, and
//!   `bytes_in`/`bytes_out` equal the sums of the clients' own
//!   `SyncReport` byte ledgers;
//! * `/metrics` after a subscription push: the push counters move, the
//!   server's `bytes_out` delta equals the subscriber's received-byte
//!   ledger, and the phase/push-dispatch histograms carry the sessions;
//! * `/healthz` flips `200 ok` → `503 draining` when the server shuts
//!   down (the admin listener outlives the drain);
//! * `/stats.json` and 404/405 routing;
//! * the documentation lint: every metric family a fully-populated server
//!   registers — a mesh's per-peer families included — is
//!   documented in `docs/OBSERVABILITY.md`.

use pbs_net::admin::{AdminServer, AdminState};
use pbs_net::server::{Server, ServerConfig, StatsSnapshot};
use pbs_net::wal::DurableOptions;
use pbs_net::{MeshStats, StoreRegistry, SyncClient};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pbs_admin_{tag}_{}_{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One blocking HTTP/1.0 request; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    assert!(
        head.contains(&format!("Content-Length: {}", body.len())),
        "Content-Length must match the body"
    );
    (status, body.to_string())
}

/// Parse Prometheus text exposition into `name{labels}` → value.
fn parse_metrics(body: &str) -> HashMap<String, f64> {
    body.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').expect("sample line");
            (
                name.to_string(),
                value.parse::<f64>().expect("sample value"),
            )
        })
        .collect()
}

/// Block until the server has reaped every started session (counters are
/// folded at reap time, so only a quiescent server reconciles exactly).
///
/// A session can be counted completed before it is reaped: a subscription
/// is, at its catch-up's `DeltaDone`, while the bytes of its pushes are
/// folded only when its connection closes. The close also records the
/// session's wall clock, so a settled server has one
/// `pbs_server_session_seconds` sample per session started.
fn settle(server: &Server, started: u64) -> StatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(10);
    let closed = server
        .metrics()
        .histogram("pbs_server_session_seconds", "", &[], 1e-9);
    loop {
        let s = server.stats().snapshot();
        if s.sessions_started == started
            && s.sessions_completed + s.sessions_failed == started
            && closed.count() == started
        {
            return s;
        }
        assert!(
            Instant::now() < deadline,
            "sessions failed to settle: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn counter(metrics: &HashMap<String, f64>, key: &str) -> u64 {
    *metrics.get(key).unwrap_or_else(|| {
        panic!("metric {key} missing from /metrics");
    }) as u64
}

#[test]
fn metrics_reconcile_with_stats_snapshot_and_wire_ledger() {
    let root = tempdir("reconcile");
    let registry = Arc::new(StoreRegistry::new());
    registry.set_persistence_root(&root);
    let (store, _recovery) = registry
        .open_store("", DurableOptions::default())
        .expect("open durable store");
    store.apply(&(2..=100u64).collect::<Vec<_>>(), &[]);

    let server = Server::bind_registry(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig {
            // Keep keepalive pings out of the byte accounting.
            keepalive: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let admin = AdminServer::bind("127.0.0.1:0", AdminState::of(&server)).expect("bind admin");

    // ---- Phase A: full reconciliations, scraped and reconciled ----
    let client = SyncClient::connect(server.local_addr()).expect("resolve");
    let mut ledger_sent = 0u64;
    let mut ledger_received = 0u64;
    for salt in 0..3u64 {
        let alice: Vec<u64> = (1..=99).map(|e| e + salt).collect();
        let report = client.sync(&alice).expect("sync");
        assert!(report.verified);
        assert!(report.phases.total >= report.phases.rounds);
        ledger_sent += report.bytes_sent;
        ledger_received += report.bytes_received;
    }
    // The three rode the one connection the client keeps; dropping the
    // client closes it, which ends the last.
    drop(client);
    let snap = settle(&server, 3);
    assert_eq!(snap.sessions_reused, 2);
    let (status, body) = http_get(admin.local_addr(), "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        settle(&server, 3),
        snap,
        "server must be quiescent across the scrape"
    );
    let metrics = parse_metrics(&body);

    // Every snapshot counter appears verbatim, globally and per store.
    for (name, value) in snap.fields() {
        assert_eq!(
            counter(&metrics, &format!("pbs_server_{name}_total")),
            value,
            "pbs_server_{name}_total"
        );
        assert_eq!(
            counter(
                &metrics,
                &format!("pbs_store_{name}_total{{store=\"default\"}}")
            ),
            value,
            "single-store server: the store mirror must agree on {name}"
        );
    }
    // The server's wire counters equal the clients' own ledgers.
    assert_eq!(snap.bytes_in, ledger_sent, "client sent == server received");
    assert_eq!(
        snap.bytes_out, ledger_received,
        "server sent == client received"
    );

    // Phase histograms carried every session.
    for phase in ["handshake", "estimate", "rounds"] {
        assert_eq!(
            counter(
                &metrics,
                &format!("pbs_server_phase_seconds_count{{phase=\"{phase}\"}}")
            ),
            3,
            "phase {phase}"
        );
    }
    assert_eq!(counter(&metrics, "pbs_server_session_seconds_count"), 3);
    // Store-level gauges and timers registered and carry data.
    assert_eq!(
        counter(&metrics, "pbs_store_elements{store=\"default\"}"),
        store.len() as u64
    );
    assert!(counter(&metrics, "pbs_store_apply_seconds_count{store=\"default\"}") >= 1);
    assert!(
        counter(
            &metrics,
            "pbs_store_wal_append_seconds_count{store=\"default\"}"
        ) >= 1
    );

    // ---- Phase B: a subscription push, scraped again ----
    let client = SyncClient::connect(server.local_addr()).expect("resolve");
    let mut sub = client.subscribe(store.epoch()).expect("subscribe");
    sub.next().expect("catch-up").expect("catch-up ok");
    // The first mutation may race the server's Subscribe processing and be
    // served by the catch-up (correctly not a push dispatch); once its
    // report arrives the session is provably Streaming, so the second
    // mutation must flow through the live push path and be timed.
    store.apply(&[777_777], &[]);
    let report = sub.next().expect("push").expect("push ok");
    assert_eq!(report.added, vec![777_777]);
    store.apply(&[888_888], &[]);
    let report = sub.next().expect("push").expect("push ok");
    assert_eq!(report.added, vec![888_888]);
    let sub_received = sub.bytes_received();
    drop(sub);

    let snap2 = settle(&server, 4);
    let (status, body) = http_get(admin.local_addr(), "/metrics");
    assert_eq!(status, 200);
    let metrics = parse_metrics(&body);
    assert_eq!(counter(&metrics, "pbs_server_subscriptions_total"), 1);
    assert_eq!(
        counter(&metrics, "pbs_server_push_elements_total"),
        snap2.push_elements
    );
    assert!(snap2.push_batches >= 1);
    assert_eq!(
        snap2.bytes_out - snap.bytes_out,
        sub_received,
        "push-path bytes must match the subscriber's ledger"
    );
    assert_eq!(
        counter(
            &metrics,
            "pbs_server_phase_seconds_count{phase=\"delta_catchup\"}"
        ),
        1
    );
    assert!(counter(&metrics, "pbs_server_push_dispatch_seconds_count") >= 1);

    // ---- Routing and the stats.json view ----
    let (status, body) = http_get(admin.local_addr(), "/stats.json");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"server\":{\"sessions_started\":4,"));
    assert!(body.contains("\"stores\":{\"\":{\"sessions_started\":4,"));
    let (status, _) = http_get(admin.local_addr(), "/nope");
    assert_eq!(status, 404);
    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    // ---- Drain: /healthz flips while the admin listener stays up ----
    server.shutdown();
    let (status, body) = http_get(admin.local_addr(), "/healthz");
    assert_eq!(status, 503);
    assert_eq!(body, "draining\n");
    drop(admin);
    let _ = std::fs::remove_dir_all(&root);
}

/// Scraping `/metrics` *while* sessions are in flight: every scrape is a
/// consistent-enough view — counters only ever move forward, and
/// `started >= completed + failed` in every sample (sessions are counted
/// started before they are reaped) — and once the load drains the
/// counters reconcile exactly. This is the invariant a dashboard polling
/// a loaded server depends on; the load harness leans on the same
/// counters for its own accounting.
#[test]
fn concurrent_scrapes_reconcile_under_load() {
    const THREADS: usize = 12;
    const SYNCS_PER_THREAD: usize = 4;

    let base: Vec<u64> = (1..=400u64).collect();
    let store = Arc::new(pbs_net::store::MutableStore::new(base.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind server");
    let admin = AdminServer::bind("127.0.0.1:0", AdminState::of(&server)).expect("bind admin");
    let addr = server.local_addr();

    let done = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let done = Arc::clone(&done);
            let base = base.clone();
            std::thread::spawn(move || {
                for i in 0..SYNCS_PER_THREAD {
                    // A small subset of the server's set: d is exactly
                    // the handful of dropped elements and nothing is
                    // pushed, so the store never mutates under the
                    // scrapes.
                    let drop_from = (t * SYNCS_PER_THREAD + i) * 7 % 350;
                    let local: Vec<u64> = base
                        .iter()
                        .copied()
                        .filter(|e| !(drop_from as u64..drop_from as u64 + 6).contains(e))
                        .collect();
                    let report = SyncClient::connect(addr)
                        .expect("resolve")
                        .sync(&local)
                        .expect("sync under scrape load");
                    assert!(report.verified);
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();

    // Scrape continuously while the load runs: monotone counters, the
    // accounting inequality in every sample.
    let mut scrapes = 0u64;
    let (mut last_started, mut last_completed, mut last_failed) = (0u64, 0u64, 0u64);
    loop {
        let finished = done.load(Ordering::SeqCst) == THREADS;
        let (status, body) = http_get(admin.local_addr(), "/metrics");
        assert_eq!(status, 200);
        let metrics = parse_metrics(&body);
        let started = counter(&metrics, "pbs_server_sessions_started_total");
        let completed = counter(&metrics, "pbs_server_sessions_completed_total");
        let failed = counter(&metrics, "pbs_server_sessions_failed_total");
        assert!(
            started >= last_started && completed >= last_completed && failed >= last_failed,
            "a counter moved backwards across scrapes: \
             started {last_started}→{started}, completed {last_completed}→{completed}, \
             failed {last_failed}→{failed}"
        );
        assert!(
            started >= completed + failed,
            "scrape {scrapes}: {started} started < {completed} completed + {failed} failed"
        );
        (last_started, last_completed, last_failed) = (started, completed, failed);
        scrapes += 1;
        if finished {
            break;
        }
    }
    for worker in workers {
        worker.join().expect("sync thread");
    }
    assert!(
        scrapes >= 3,
        "the load finished before the scrapes overlapped"
    );

    // Drained: the counters settle to the exact identity.
    let total = (THREADS * SYNCS_PER_THREAD) as u64;
    let snap = settle(&server, total);
    assert_eq!(snap.sessions_failed, 0);
    let (_, body) = http_get(admin.local_addr(), "/metrics");
    let metrics = parse_metrics(&body);
    assert_eq!(
        counter(&metrics, "pbs_server_sessions_started_total"),
        total
    );
    assert_eq!(
        counter(&metrics, "pbs_server_sessions_completed_total")
            + counter(&metrics, "pbs_server_sessions_failed_total"),
        total,
        "the drained scrape must reconcile exactly"
    );

    server.shutdown();
    drop(admin);
}

/// Documentation lint (the CI leg that keeps `docs/OBSERVABILITY.md`
/// honest): spin up a server whose store exercises every registration
/// path — durable store, so the WAL/recovery families exist too — and
/// assert each registered family name appears in the catalog.
#[test]
fn every_registered_metric_family_is_documented() {
    let root = tempdir("catalog");
    let registry = Arc::new(StoreRegistry::new());
    registry.set_persistence_root(&root);
    let (store, _recovery) = registry
        .open_store("", DurableOptions::default())
        .expect("open durable store");
    store.apply(&(1..=50u64).collect::<Vec<_>>(), &[]);
    let server = Server::bind_registry(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind server");
    // One sync so the lint covers a registry in its steady serving state
    // (families register at bind/attach time, but this guards against any
    // family that would only appear lazily).
    let alice: Vec<u64> = (1..=49).collect();
    SyncClient::connect(server.local_addr())
        .expect("resolve")
        .sync(&alice)
        .expect("sync");

    // A node running a mesh registers its per-peer families in the same
    // registry, as `pbs-syncd --anti-entropy` does; no round need run.
    let _mesh = MeshStats::registered(&registry.metrics(), &["127.0.0.1:7412".into()]);

    let doc_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc_path.display()));
    let families = server.metrics().families();
    assert!(
        families.iter().any(|f| f.starts_with("pbs_mesh_")),
        "the mesh registered no family: {families:?}"
    );
    assert!(!families.is_empty(), "the server registered no metrics");
    let undocumented: Vec<String> = families
        .into_iter()
        .filter(|family| !doc.contains(family.as_str()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metric families missing from docs/OBSERVABILITY.md: {undocumented:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
