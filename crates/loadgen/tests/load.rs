//! The load-harness acceptance test: thousands of concurrent in-flight
//! sessions — most of them parked subscribers — against a loopback
//! server, with the accounting identity holding *exactly* and every
//! protocol phase showing up in the JSON report.
//!
//! This is the claim the crate exists to measure: a session population in
//! the thousands on one box, mixed full/delta/pipelined reconciliations
//! streaming through beside a standing crowd of parked `Subscribe`
//! streams, and nobody lost — `started == completed + failed + evicted`
//! down to the last session.

use loadgen::{build_plan, Engine, EngineConfig, Kind, Mix, PlanConfig, Report};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::setio;
use pbs_net::store::MutableStore;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn two_thousand_concurrent_sessions_settle_exactly() {
    const SESSIONS: usize = 2_600;
    // 90% subscribe: the parked population carries the concurrency floor
    // (≥ 2,000 in flight, ≥ 1,000 parked) while full/delta/pipelined
    // sessions keep every phase histogram populated.
    const MIX: Mix = Mix {
        full: 1,
        delta: 1,
        pipelined: 1,
        subscribe: 27,
    };

    let base: Vec<u64> = setio::demo_set(256, 0xB0B);
    let store = Arc::new(MutableStore::new(base.iter().copied()));
    let epoch = store.epoch();
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig {
            max_subscribers: 8192,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");

    let plan_config = PlanConfig {
        sessions: SESSIONS,
        rate: 2_000.0,
        mix: MIX,
        seed: 0x10AD_ACCE,
    };
    let plan = build_plan(&plan_config);
    let subscribers = plan.iter().filter(|a| a.kind == Kind::Subscribe).count();
    assert!(
        subscribers >= 2_000,
        "the seeded mix must park ≥ 2,000 subscribers, drew {subscribers}"
    );

    let mut engine = Engine::start(EngineConfig {
        target: server.local_addr(),
        workers: 4,
        client: pbs_net::ClientConfig::default(),
        base_set: Arc::new(base),
        drops: 8,
        delta_epoch: epoch,
    })
    .expect("start engine");
    let started = Instant::now();
    engine.run_plan(&plan, started);

    // Let the active sessions finish and the subscribers park: in flight
    // == parked means the whole surviving population is parked.
    let metrics = Arc::clone(engine.metrics());
    let settle_deadline = Instant::now() + Duration::from_secs(120);
    while metrics.inflight.load(Ordering::SeqCst) != metrics.parked.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < settle_deadline,
            "active sessions did not finish: {} in flight, {} parked",
            metrics.inflight.load(Ordering::SeqCst),
            metrics.parked.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // One store mutation while the crowd is parked: every subscriber gets
    // the push, proving they are live sessions, not leaked sockets.
    store.apply(&[9_000_001, 9_000_002, 9_000_003], &[]);
    let (metrics, elapsed) = engine.drain(Duration::from_secs(120), Duration::from_secs(2));

    let report = Report::build(&metrics, &plan_config, elapsed);
    eprintln!("{}", report.table());
    assert!(
        report.settled(),
        "accounting violation: {} started != {} + {} + {}",
        report.counts.started,
        report.counts.completed,
        report.counts.failed,
        report.counts.evicted
    );
    assert_eq!(report.counts.started, SESSIONS as u64);
    assert_eq!(report.counts.failed, 0, "errors: {:?}", report.errors);
    assert_eq!(report.counts.evicted, 0, "errors: {:?}", report.errors);
    assert!(
        report.peak_inflight >= 2_000,
        "peak in-flight {} under the 2,000 floor",
        report.peak_inflight
    );
    assert!(
        report.peak_parked >= 1_000,
        "peak parked {} under the 1,000 floor",
        report.peak_parked
    );
    assert_eq!(
        report.counts.delta_fallbacks, 0,
        "the baseline epoch never ages out"
    );
    assert!(
        report.counts.pushes >= 1_000,
        "only {} of ~{} parked subscribers saw the push",
        report.counts.pushes,
        subscribers
    );

    // The JSON report carries p50/p99/p999 for every protocol phase, and
    // the mix exercised every phase at least once.
    let json = report.json();
    for phase in [
        "connect",
        "handshake",
        "estimate",
        "rounds",
        "transfer",
        "delta",
        "total",
    ] {
        assert!(
            json.contains(&format!("\"{phase}\": {{\"p50\"")),
            "phase {phase} missing from JSON:\n{json}"
        );
    }
    let phase_count = |name: &str| {
        report
            .phases
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(_, _, _, _, count)| count)
            .expect("phase present")
    };
    assert_eq!(phase_count("connect"), report.counts.completed);
    assert_eq!(phase_count("total"), report.counts.completed);
    assert!(phase_count("estimate") > 0, "no full/pipelined session ran");
    assert!(phase_count("rounds") > 0);
    assert!(phase_count("transfer") > 0);
    assert!(phase_count("delta") > 0, "no delta/subscribe session ran");

    // The server saw the same story: every accepted session accounted
    // for, no panics, no evictions.
    let stats = server.shutdown();
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed,
        "a server-side session leaked"
    );
    assert_eq!(stats.subscribers_evicted, 0);
    assert!(stats.subscriptions >= subscribers as u64);
}
