//! Loopback integration: client and server reconcile 100k-element sets with
//! d ∈ {10, 100, 1000} differences over real TCP sockets.
//!
//! For each difference size the test also runs the *in-process* protocol —
//! the same state machines exchanging the same frames by function call —
//! and records every frame's serialized payload into a
//! [`protocol::Transcript`] via `send_encoded`. The networked run must then
//! (a) recover the exact symmetric difference, (b) converge the server's
//! store onto `A ∪ B`, (c) put *exactly* the predicted payload bytes plus
//! 8 bytes of len/CRC framing per frame on the wire, and (d) pay for its
//! sketch/report rounds what Formula (1) charges for the same messages,
//! within 15% and the batch headers.

use estimator::{inflate_estimate, Estimator, TowEstimator};
use pbs_core::{AliceSession, BobSession, Pbs, PbsConfig, ESTIMATOR_SEED_SALT};
use pbs_net::client::{sync, ClientConfig, Pipeline, SyncReport};
use pbs_net::frame::{EstimatorMsg, Frame, Hello, FRAME_OVERHEAD};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, StoreRegistry};
use pbs_net::NetError;
use protocol::{Direction, Transcript};
use std::collections::HashSet;
use std::sync::Arc;

/// `count` distinct nonzero 32-bit-universe elements.
fn distinct_keys(count: usize, salt: u64) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut x = salt | 1;
    while out.len() < count {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (x >> 16 & 0xFFFF_FFFF) | 1;
        if seen.insert(key) {
            out.push(key);
        }
    }
    out
}

/// Split a pool into Alice's and Bob's sets with a two-sided difference of
/// `d` elements (`⌈d/2⌉` exclusive to Alice, `⌊d/2⌋` exclusive to Bob).
fn two_sided_pair(pool: &[u64], d: usize) -> (Vec<u64>, Vec<u64>) {
    let only_alice = d.div_ceil(2);
    let only_bob = d / 2;
    let alice = pool[..pool.len() - only_bob].to_vec();
    let bob = pool[only_alice..].to_vec();
    (alice, bob)
}

struct ReferencePrediction {
    transcript: Transcript,
    frames: u64,
    recovered: Vec<u64>,
    pushed: usize,
    rounds: u32,
    round_trips: u32,
    d_param: u64,
}

/// Run the protocol in-process, mirroring the client/server state machines
/// frame for frame, and ledger every frame's serialized body into a
/// transcript (`wire_bytes` = type byte + payload; the socket adds
/// [`FRAME_OVERHEAD`] per frame on top). `pipeline` is the client's layer
/// depth — 1 reproduces the classic one-round-per-trip protocol.
fn reference_run(
    alice_set: &[u64],
    bob_set: &[u64],
    cfg: PbsConfig,
    seed: u64,
    round_cap: u32,
    pipeline: u32,
) -> ReferencePrediction {
    let mut transcript = Transcript::new();
    let mut frames = 0u64;
    let mut record = |t: &mut Transcript, dir, label, bits: u64, frame: &Frame| {
        t.send_encoded(dir, label, bits, frame.encode_body().len() as u64);
        frames += 1;
    };

    // Handshake: the server echoes the client's Hello — naming the
    // session's seed in a field of the same width — so both frames
    // serialize to the same length.
    let hello = Hello::from_config(&cfg, seed, 0);
    let hello_frame = Frame::Hello(hello);
    let hello_bits = hello_frame.encode_body().len() as u64 * 8;
    record(
        &mut transcript,
        Direction::AliceToBob,
        "hello",
        hello_bits,
        &hello_frame,
    );
    record(
        &mut transcript,
        Direction::BobToAlice,
        "hello",
        hello_bits,
        &hello_frame,
    );

    // Estimator exchange.
    let est_seed = xhash::derive_seed(seed, ESTIMATOR_SEED_SALT);
    let mut bank_a = TowEstimator::new(cfg.estimator_sketches, est_seed);
    bank_a.insert_slice(alice_set);
    let mut bank_b = TowEstimator::new(cfg.estimator_sketches, est_seed);
    bank_b.insert_slice(bob_set);
    let bank_frame = Frame::EstimatorExchange(EstimatorMsg::TowBank(bank_a.to_bytes()));
    record(
        &mut transcript,
        Direction::AliceToBob,
        "estimator-bank",
        bank_a.wire_bits(),
        &bank_frame,
    );
    let d_hat = bank_a.estimate(&bank_b);
    let d_param = inflate_estimate(d_hat) as u64;
    record(
        &mut transcript,
        Direction::BobToAlice,
        "estimate",
        64 + 64,
        &Frame::EstimatorExchange(EstimatorMsg::Estimate { d_param, d_hat }),
    );

    // Round loop — the exact shape of `pbs_net::client::sync`.
    let params = Pbs::new(cfg).plan(d_param as usize);
    let mut alice = AliceSession::new(cfg, params, alice_set, seed);
    let mut bob = BobSession::new(cfg, params, bob_set, seed);
    while alice.round() < round_cap {
        let layers = pipeline.min(round_cap - alice.round());
        let batch = alice.start_rounds(layers);
        let sketch_bits: u64 = batch.iter().map(|s| s.wire_bits(params.m)).sum();
        record(
            &mut transcript,
            Direction::AliceToBob,
            "sketches",
            sketch_bits,
            &Frame::Sketches {
                m: params.m,
                batch: batch.clone(),
            },
        );
        let reports = bob.handle_sketches(&batch);
        let report_bits: u64 = reports
            .iter()
            .map(|r| r.wire_bits(params.m, cfg.universe_bits))
            .sum();
        record(
            &mut transcript,
            Direction::BobToAlice,
            "reports",
            report_bits,
            &Frame::Reports(reports.clone()),
        );
        transcript.record_round_trip();
        let status = alice.apply_reports(&reports);
        if status.all_verified {
            break;
        }
    }

    // Final transfer + ack.
    let rounds = alice.round();
    let round_trips = alice.round_trips();
    let holdings: HashSet<u64> = alice_set.iter().copied().collect();
    let recovered = alice.into_recovered();
    let pushed: Vec<u64> = recovered
        .iter()
        .copied()
        .filter(|e| holdings.contains(e))
        .collect();
    record(
        &mut transcript,
        Direction::AliceToBob,
        "final-transfer",
        pushed.len() as u64 * cfg.universe_bits as u64,
        &Frame::Done(pushed.clone()),
    );
    // The ack carries the epoch of the session's snapshot: a fresh store's 0.
    record(
        &mut transcript,
        Direction::BobToAlice,
        "final-ack",
        0,
        &Frame::DeltaDone { epoch: 0 },
    );

    ReferencePrediction {
        transcript,
        frames,
        recovered,
        pushed: pushed.len(),
        rounds,
        round_trips,
        d_param,
    }
}

impl ReferencePrediction {
    /// Every `Sketches` and `Reports` frame of the run, framing included,
    /// against the Formula (1) bits the transcript charged for the same
    /// messages: within 15%, plus what a round trip pays outside the
    /// messages — two frames' len/CRC and type byte, two batch headers, one
    /// section entry per layer.
    fn assert_rounds_within_formula_one(&self, case: &str, layers: u64) {
        let t = &self.transcript;
        let trips = self.round_trips as u64;
        let wire = t.wire_bytes_for_label("sketches")
            + t.wire_bytes_for_label("reports")
            + 2 * FRAME_OVERHEAD * trips;
        let formula_one = (t.bits_for_label("sketches") + t.bits_for_label("reports")) / 8;
        let headers = (2 * (FRAME_OVERHEAD + 1 + 8) + 8 * layers) * trips;
        assert!(
            wire * 100 <= formula_one * 115 + headers * 100,
            "{case}: rounds cost {wire} B on the wire, Formula (1) charges {formula_one} B \
             (+ {headers} B of headers)"
        );
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

#[test]
fn loopback_reconciles_100k_sets_within_the_transcript_byte_envelope() {
    let pool = distinct_keys(100_000 + 500, 0x100C_BACC);
    for &d in &[10usize, 100, 1000] {
        let (alice_set, bob_set) = two_sided_pair(&pool[..100_000 + d / 2], d);
        assert_eq!(alice_set.len(), 100_000);
        let truth: Vec<u64> = sorted(
            pool[..d.div_ceil(2)]
                .iter()
                .chain(&pool[100_000 - d / 2 + d.div_ceil(2)..100_000 + d / 2])
                .copied()
                .collect(),
        );
        assert_eq!(truth.len(), d);

        let seed = 0xAB5_0000 + d as u64;
        let client_cfg = ClientConfig {
            seed,
            ..ClientConfig::default()
        };
        // The networked run, over a real socket pair.
        let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&store) as Arc<_>,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        let report = sync(server.local_addr(), &alice_set, &client_cfg).expect("sync");

        // The same session in-process, under the seed the server's reply
        // named (a fresh store keeps no view, so: the one proposed).
        assert_eq!(report.seed, seed, "d={d}: no view, no other seed");
        let predicted = reference_run(
            &alice_set,
            &bob_set,
            client_cfg.pbs,
            report.seed,
            client_cfg.round_cap,
            1,
        );
        assert_eq!(
            sorted(predicted.recovered.clone()),
            truth,
            "d={d} reference"
        );

        // (a) Exact recovery.
        assert!(report.verified, "d={d}: checksums did not verify");
        assert_eq!(sorted(report.recovered.clone()), truth, "d={d} recovery");
        assert_eq!(report.rounds, predicted.rounds, "d={d} round count");
        assert_eq!(report.d_param, predicted.d_param, "d={d} parameterization");
        assert_eq!(
            report.pushed.len(),
            predicted.pushed,
            "d={d} final transfer"
        );

        // (b) The server's store converged on A ∪ B.
        assert_eq!(store.len(), 100_000 + d / 2, "d={d} server union size");
        assert!(pool[..d.div_ceil(2)].iter().all(|&e| store.contains(e)));

        // (c) Byte accounting: the wire carried exactly the predicted
        // payloads plus 8 bytes of framing per frame.
        let wire_total = report.bytes_sent + report.bytes_received;
        let frames_total = report.frames_sent + report.frames_received;
        let payload_total = predicted.transcript.wire_bytes_total();
        assert_eq!(frames_total, predicted.frames, "d={d} frame count");
        assert_eq!(
            wire_total,
            payload_total + FRAME_OVERHEAD * frames_total,
            "d={d}: wire bytes diverged from the predicted frames"
        );
        // (d) The wire pays what Formula (1) charges — no less over the
        // whole session than the paper's accounting of it, the rounds
        // within 15% of that accounting for the same messages, and at
        // d = 1000 — where the handshake and the estimator no longer
        // dominate — the whole session within 3.3 × the d·log|U| minimum
        // (§8.1.2 reports 2.13–2.87 ×, the estimator left out).
        let paper_bytes = predicted.transcript.stats().total_bytes();
        assert!(
            wire_total >= paper_bytes,
            "d={d}: {wire_total} wire bytes below the {paper_bytes} B the transcript charges"
        );
        predicted.assert_rounds_within_formula_one(&format!("d={d}"), 1);
        if d == 1000 {
            let minimum = protocol::theoretical_minimum_bytes(d, 32);
            assert!(
                wire_total as f64 <= 3.3 * minimum,
                "d={d}: {wire_total} wire bytes above 3.3 × the {minimum} B minimum"
            );
        }

        let stats = server.shutdown();
        assert_eq!(stats.sessions_started, 1);
        assert_eq!(stats.sessions_completed, 1);
        assert_eq!(stats.sessions_failed, 0);
        assert_eq!(stats.rounds, report.rounds as u64);
        assert_eq!(stats.estimator_exchanges, 1);
        assert_eq!(stats.elements_received, predicted.pushed as u64);
        assert_eq!(stats.bytes_in, report.bytes_sent, "d={d} server bytes in");
        assert_eq!(stats.bytes_out, report.bytes_received, "d={d} bytes out");
    }
}

#[test]
fn out_of_universe_elements_fail_fast_client_side() {
    // No server needed: the check runs before the connection is opened.
    let config = ClientConfig::default();
    match sync("127.0.0.1:1", &[1, 2, 1u64 << 40], &config) {
        Err(NetError::Protocol(msg)) => assert!(msg.contains("universe"), "{msg}"),
        other => panic!("expected universe refusal, got {other:?}"),
    }
    match sync("127.0.0.1:1", &[1, 0], &config) {
        Err(NetError::Protocol(msg)) => assert!(msg.contains("universe"), "{msg}"),
        other => panic!("expected zero-element refusal, got {other:?}"),
    }
}

#[test]
fn known_d_skips_the_estimator_exchange() {
    let pool = distinct_keys(5_000, 0xD00D);
    let (alice_set, bob_set) = two_sided_pair(&pool, 40);
    let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let config = ClientConfig {
        known_d: Some(40),
        seed: 7,
        ..ClientConfig::default()
    };
    let report = sync(server.local_addr(), &alice_set, &config).expect("sync");
    assert!(report.verified);
    assert_eq!(report.d_param, 40);
    assert_eq!(report.estimated_d, None);
    assert_eq!(report.recovered.len(), 40);
    // A classic (no-epoch-cache) sync still receives its baseline: the ack
    // carries the epoch of the snapshot the session reconciled against.
    assert_eq!(report.epoch, Some(0));
    assert!(report.delta.is_none() && !report.delta_fallback);
    let stats = server.shutdown();
    assert_eq!(stats.estimator_exchanges, 0);
    assert_eq!(stats.sessions_completed, 1);
}

#[test]
fn concurrent_clients_share_the_worker_pool() {
    let pool = distinct_keys(3_000, 0xCAFE);
    let (alice_set, bob_set) = two_sided_pair(&pool, 20);
    let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let set = alice_set.clone();
            std::thread::spawn(move || {
                let config = ClientConfig {
                    seed: 100 + i,
                    known_d: Some(20),
                    ..ClientConfig::default()
                };
                sync(addr, &set, &config).expect("concurrent sync")
            })
        })
        .collect();
    for handle in handles {
        let report = handle.join().expect("client thread");
        assert!(report.verified);
        // A session that snapshots the store *after* another client's final
        // transfer landed sees only Bob's exclusive elements (A ∪ B is
        // already converging), so the recovered difference is 20 or 10.
        assert!(
            report.recovered.len() == 20 || report.recovered.len() == 10,
            "unexpected |A△B| = {}",
            report.recovered.len()
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 4);
    assert_eq!(stats.sessions_failed, 0);
    // Every client pushed A \ B; the store holds the full union.
    assert_eq!(store.len(), 3_000);
}

#[test]
fn server_rejects_protocol_violations() {
    let store = Arc::new(MutableStore::new(1..=100u64));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig {
            round_cap: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let transport = pbs_net::TransportConfig::default();

    // A Hello from any other protocol version — stale or from the future,
    // in this version's shape or (as a real v1 peer would send it) cut
    // short after the fields v1 had — is refused with the typed error,
    // never a decode failure or a silent close.
    for version in [0u16, 1, 3, 4, 5, 7, 0xFFFF] {
        for v1_shaped in [false, true] {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            let mut hello = Hello::from_config(&PbsConfig::default(), 1, 1);
            hello.version = version;
            let mut body = Frame::Hello(hello).encode_body();
            if v1_shaped {
                body.truncate(body.len() - 3); // store length, pipeline, epoch flag
            }
            let mut wire = (body.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&pbs_net::crc::crc32(&body).to_le_bytes());
            wire.extend_from_slice(&body);
            std::io::Write::write_all(&mut stream, &wire).unwrap();
            let mut framed = pbs_net::FramedStream::from_tcp(stream, &transport).unwrap();
            match framed.recv() {
                Err(NetError::Remote { code, message }) => {
                    assert_eq!(code, pbs_net::frame::ErrorCode::Version, "{message}");
                    assert_eq!(code.to_string(), "version-unsupported");
                }
                other => panic!("v{version}: expected version refusal, got {other:?}"),
            }
        }
    }

    // A mid-session frame before the handshake is a protocol error.
    {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut framed = pbs_net::FramedStream::from_tcp(stream, &transport).unwrap();
        framed.send(&Frame::Done(vec![1, 2, 3])).unwrap();
        match framed.recv() {
            Err(NetError::Remote { code, .. }) => {
                assert_eq!(code, pbs_net::frame::ErrorCode::Protocol)
            }
            other => panic!("expected protocol refusal, got {other:?}"),
        }
    }

    // A hostile delta of zero is refused as bad config.
    {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut framed = pbs_net::FramedStream::from_tcp(stream, &transport).unwrap();
        let mut hello = Hello::from_config(&PbsConfig::default(), 1, 1);
        hello.delta = 0;
        framed.send(&Frame::Hello(hello)).unwrap();
        match framed.recv() {
            Err(NetError::Remote { code, .. }) => {
                assert_eq!(code, pbs_net::frame::ErrorCode::BadConfig)
            }
            other => panic!("expected config refusal, got {other:?}"),
        }
    }

    // δ and the target round count size the parameter search the server
    // runs inline on its event loop (`Hello{delta: 40, known_d: 1}` once
    // bought 31 s of it, `delta: 200` a 4 GB allocation per grid cell):
    // out-of-range values are refused by name before any planning runs,
    // and the worker goes on serving.
    for (delta, target_rounds, field) in [
        (40u32, 3u32, "delta"),
        (200, 3, "delta"),
        (u32::MAX, 3, "delta"),
        (5, 17, "target_rounds"),
        (5, u32::MAX, "target_rounds"),
    ] {
        let started = std::time::Instant::now();
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut framed = pbs_net::FramedStream::from_tcp(stream, &transport).unwrap();
        let mut hello = Hello::from_config(&PbsConfig::default(), 1, 1);
        (hello.delta, hello.target_rounds) = (delta, target_rounds);
        framed.send(&Frame::Hello(hello)).unwrap();
        match framed.recv() {
            Err(NetError::Remote { code, message }) => {
                assert_eq!(code, pbs_net::frame::ErrorCode::BadConfig);
                assert!(message.starts_with(field), "{message}");
            }
            other => panic!("expected config refusal, got {other:?}"),
        }
        let hello = Frame::Hello(Hello::from_config(&PbsConfig::default(), 1, 1));
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut framed = pbs_net::FramedStream::from_tcp(stream, &transport).unwrap();
        framed.send(&hello).unwrap();
        assert!(matches!(framed.recv(), Ok(Frame::Hello(_))));
        assert!(
            started.elapsed() < std::time::Duration::from_millis(100),
            "{field} = {delta}/{target_rounds}: refusal and the next handshake took {:?}",
            started.elapsed()
        );
    }

    // A final transfer with out-of-universe elements must not poison the
    // store (they could never verify in any later session).
    {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut framed = pbs_net::FramedStream::from_tcp(stream, &transport).unwrap();
        framed
            .send(&Frame::Hello(Hello::from_config(
                &PbsConfig::default(),
                5,
                1,
            )))
            .unwrap();
        let Ok(Frame::Hello(_)) = framed.recv() else {
            panic!("handshake refused")
        };
        framed
            .send(&Frame::Done(vec![0x7777, 0, 1u64 << 40]))
            .unwrap();
        match framed.recv() {
            Err(NetError::Remote { code, .. }) => {
                assert_eq!(code, pbs_net::frame::ErrorCode::BadConfig)
            }
            other => panic!("expected poisoning refusal, got {other:?}"),
        }
        // The whole batch is refused — even its in-universe element.
        assert!(!store.contains(0) && !store.contains(0x7777) && !store.contains(1u64 << 40));
    }

    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 0);
    assert_eq!(stats.sessions_failed, 14 + 3 + 2 * 5);
    assert_eq!(stats.elements_received, 0);
}

#[test]
fn pipelined_rounds_cut_round_trips_at_d_1000_within_the_byte_envelope() {
    // Same sets, same seed, two identical servers: one sync in the classic
    // one-round-per-trip shape, one with three pipelined layers per
    // trip. The pipelined run must recover the identical difference in
    // strictly fewer request-response round trips, and its wire bytes must
    // still match its own transcript prediction exactly and its rounds
    // stay within 15% of their own Formula (1) accounting.
    let d = 1000usize;
    let pool = distinct_keys(100_000 + d / 2, 0x91BE_11FE);
    let (alice_set, bob_set) = two_sided_pair(&pool, d);
    let truth: Vec<u64> = sorted(
        pool[..d.div_ceil(2)]
            .iter()
            .chain(&pool[100_000 - d / 2 + d.div_ceil(2)..])
            .copied()
            .collect(),
    );
    assert_eq!(truth.len(), d);
    let seed = 0x1175_1000u64;

    let mut reports = Vec::new();
    for pipeline in [1u32, 3] {
        let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&store) as Arc<_>,
            ServerConfig::default(),
        )
        .expect("bind");
        let config = ClientConfig {
            seed,
            pipeline: Pipeline::Depth(pipeline),
            ..ClientConfig::default()
        };
        let report = sync(server.local_addr(), &alice_set, &config).expect("sync");
        let predicted = reference_run(
            &alice_set,
            &bob_set,
            config.pbs,
            report.seed,
            config.round_cap,
            pipeline,
        );
        assert_eq!(
            sorted(predicted.recovered.clone()),
            truth,
            "pipeline={pipeline} reference recovery"
        );
        assert!(report.verified, "pipeline={pipeline}: did not verify");
        assert_eq!(sorted(report.recovered.clone()), truth);
        assert_eq!(report.round_trips, predicted.round_trips);
        assert_eq!(report.rounds, predicted.rounds);
        assert_eq!(
            predicted.transcript.round_trips(),
            predicted.round_trips,
            "transcript round-trip ledger"
        );

        // Byte accounting against this run's own transcript.
        let wire_total = report.bytes_sent + report.bytes_received;
        let frames_total = report.frames_sent + report.frames_received;
        let payload_total = predicted.transcript.wire_bytes_total();
        assert_eq!(frames_total, predicted.frames);
        assert_eq!(
            wire_total,
            payload_total + FRAME_OVERHEAD * frames_total,
            "pipeline={pipeline}: wire bytes diverged from the prediction"
        );
        predicted
            .assert_rounds_within_formula_one(&format!("pipeline={pipeline}"), pipeline as u64);

        let stats = server.shutdown();
        assert_eq!(stats.round_trips, report.round_trips as u64);
        assert_eq!(stats.rounds, report.rounds as u64);
        reports.push(report);
    }
    let (serial, pipelined) = (&reports[0], &reports[1]);
    assert_eq!(serial.round_trips, serial.rounds);
    assert!(
        pipelined.round_trips < serial.round_trips,
        "pipelined {} trips not fewer than serial {}",
        pipelined.round_trips,
        serial.round_trips
    );
}

#[test]
fn two_named_stores_sync_concurrently_through_one_server() {
    // One server, two named stores plus a default store; two clients per
    // named store reconcile concurrently. Each store must converge on its
    // own union and count its own sessions.
    let pool_a = distinct_keys(4_000, 0xA11A);
    let pool_b = distinct_keys(4_000, 0xB22B);
    let (alice_a, bob_a) = two_sided_pair(&pool_a, 30);
    let (alice_b, bob_b) = two_sided_pair(&pool_b, 50);

    let registry = Arc::new(StoreRegistry::new());
    registry.register("", Arc::new(MutableStore::new(1..=10u64)));
    let store_a = Arc::new(MutableStore::new(bob_a.iter().copied()));
    let store_b = Arc::new(MutableStore::new(bob_b.iter().copied()));
    registry.register("alpha", Arc::clone(&store_a) as Arc<_>);
    registry.register("beta", Arc::clone(&store_b) as Arc<_>);

    let server = Server::bind_registry(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let spawn = |store: &str, set: Vec<u64>, d: u64, seed: u64| {
        let store = store.to_string();
        std::thread::spawn(move || {
            let config = ClientConfig {
                store,
                known_d: Some(d),
                seed,
                pipeline: Pipeline::Depth(2),
                ..ClientConfig::default()
            };
            sync(addr, &set, &config).expect("store sync")
        })
    };
    let handles = vec![
        spawn("alpha", alice_a.clone(), 30, 1),
        spawn("beta", alice_b.clone(), 50, 2),
        spawn("alpha", alice_a.clone(), 30, 3),
        spawn("beta", alice_b.clone(), 50, 4),
    ];
    for handle in handles {
        let report = handle.join().expect("client thread");
        assert!(report.verified);
    }

    // Each store converged on its own union; the default store is untouched.
    assert_eq!(store_a.len(), 4_000);
    assert_eq!(store_b.len(), 4_000);
    assert!(pool_a[..15].iter().all(|&e| store_a.contains(e)));
    assert!(pool_b[..25].iter().all(|&e| store_b.contains(e)));

    // Per-store stats add up to the server-wide stats. Shut down first:
    // joining the workers guarantees every session's counters are folded.
    let total = server.shutdown();
    let alpha = registry.get("alpha").unwrap().stats().snapshot();
    let beta = registry.get("beta").unwrap().stats().snapshot();
    let default = registry.get("").unwrap().stats().snapshot();
    assert_eq!(alpha.sessions_started, 2);
    assert_eq!(alpha.sessions_completed, 2);
    assert_eq!(beta.sessions_started, 2);
    assert_eq!(beta.sessions_completed, 2);
    assert_eq!(default.sessions_started, 0);
    assert!(alpha.elements_received >= 15);
    assert!(beta.elements_received >= 25);
    assert_eq!(total.sessions_completed, 4);
    assert_eq!(
        total.rounds,
        alpha.rounds + beta.rounds + default.rounds,
        "global rounds are the sum of the per-store rounds"
    );
    assert_eq!(
        total.bytes_in,
        alpha.bytes_in + beta.bytes_in + default.bytes_in
    );
}

#[test]
fn unknown_store_is_refused_by_name() {
    let pool = distinct_keys(2_000, 0xD0D0);
    let (alice_set, bob_set) = two_sided_pair(&pool, 20);
    let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let config = ClientConfig {
        store: "nope".into(),
        known_d: Some(20),
        ..ClientConfig::default()
    };
    match sync(server.local_addr(), &alice_set, &config) {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, pbs_net::frame::ErrorCode::UnknownStore)
        }
        other => panic!("expected unknown-store refusal, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn adaptive_pipeline_is_within_a_trip_of_the_best_fixed_depth_for_unpipelined_bytes_at_d_1000() {
    // The `--pipeline auto` acceptance criterion: on the d = 1000 loopback
    // run, the controller (price each trip's speculative layers against
    // what the session has already sent) must verify in no more round
    // trips than the unpipelined protocol and within one of the best fixed
    // depth in {1, 2, 3, 4} on the same seed — for at most 1.15 × the
    // unpipelined protocol's wire bytes, where a fixed depth k pays about
    // k ×. Everything here is deterministic for a fixed seed, so this is an
    // exact pin, not a statistical one.
    let d = 1000usize;
    let pool = distinct_keys(100_000 + d / 2, 0xADA_971E);
    let (alice_set, bob_set) = two_sided_pair(&pool, d);
    let truth: Vec<u64> = sorted(
        pool[..d.div_ceil(2)]
            .iter()
            .chain(&pool[100_000 - d / 2 + d.div_ceil(2)..])
            .copied()
            .collect(),
    );
    let seed = 0xAD_A901u64;

    let run = |pipeline: Pipeline| {
        let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&store) as Arc<_>,
            ServerConfig::default(),
        )
        .expect("bind");
        let config = ClientConfig {
            seed,
            pipeline,
            ..ClientConfig::default()
        };
        let report = sync(server.local_addr(), &alice_set, &config).expect("sync");
        assert!(report.verified, "{pipeline:?}");
        assert_eq!(sorted(report.recovered.clone()), truth);
        server.shutdown();
        report
    };
    let wire = |report: &SyncReport| report.bytes_sent + report.bytes_received;

    let fixed: Vec<SyncReport> = (1..=4).map(|k| run(Pipeline::Depth(k))).collect();
    let fixed_trips: Vec<u32> = fixed.iter().map(|r| r.round_trips).collect();
    let auto = run(Pipeline::Auto);
    let best = *fixed_trips.iter().min().expect("four runs");
    assert!(
        auto.round_trips <= fixed_trips[0] && auto.round_trips <= best + 1,
        "auto took {} trips; fixed depths took {:?}",
        auto.round_trips,
        fixed_trips
    );
    assert!(
        wire(&auto) * 100 <= wire(&fixed[0]) * 115,
        "auto put {} B on the wire, Depth(1) {} B",
        wire(&auto),
        wire(&fixed[0])
    );
    // The dense first trip went out once: what was speculated is the
    // sparse tail, a small fraction of the group-layers sent.
    assert_eq!(fixed[0].speculative_layers, 0);
    assert!(auto.speculative_layers > 0 && auto.speculative_unused <= auto.speculative_layers);
    assert!(auto.speculative_layers * 4 < fixed[3].speculative_layers);
}

#[test]
fn pipeline_depth_is_negotiated_down_to_the_server_cap() {
    // A client asking for depth 8 against a server capped at 2 must not be
    // refused mid-session: the handshake grants 2 and the sync proceeds at
    // that depth.
    let pool = distinct_keys(3_000, 0xCA9);
    let (alice_set, bob_set) = two_sided_pair(&pool, 30);
    let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig {
            max_pipeline_depth: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let config = ClientConfig {
        known_d: Some(30),
        seed: 9,
        pipeline: Pipeline::Depth(8),
        ..ClientConfig::default()
    };
    let report = sync(server.local_addr(), &alice_set, &config).expect("negotiated sync");
    assert!(report.verified);
    // Depth 2 granted: every full trip carries exactly two rounds.
    assert_eq!(report.rounds.div_ceil(2), report.round_trips);
    assert!(report.round_trips < report.rounds || report.rounds == 1);
    server.shutdown();
}

#[test]
fn mutable_store_feeds_sessions_between_mutations() {
    // A MutableStore-backed server: reconcile, mutate the store from the
    // server side, reconcile again — the second session sees the new
    // epoch's set, and the changelog reports both the local mutation and
    // the client's final transfer.
    let pool = distinct_keys(3_000, 0xFACE);
    let (alice_set, bob_set) = two_sided_pair(&pool, 20);
    let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let config = ClientConfig {
        known_d: Some(20),
        seed: 11,
        ..ClientConfig::default()
    };
    let report = sync(server.local_addr(), &alice_set, &config).expect("first sync");
    assert!(report.verified);
    let epoch_after_first = store.epoch();
    assert!(epoch_after_first >= 1, "final transfer bumps the epoch");

    // Server-side mutation between sessions: drop 10 elements.
    let removed: Vec<u64> = bob_set[..10].to_vec();
    store.apply(&[], &removed);
    let changes = store.changes_since(epoch_after_first).expect("log intact");
    assert_eq!(changes.len(), 1);
    assert_eq!(changes[0].removed.len(), 10);

    // The next session reconciles against the mutated set: a client
    // holding the full union sees exactly the removed elements as the
    // difference.
    let report2 = sync(
        server.local_addr(),
        &pool,
        &ClientConfig {
            known_d: Some(10),
            seed: 12,
            ..ClientConfig::default()
        },
    )
    .expect("second sync");
    assert!(report2.verified);
    assert_eq!(sorted(report2.recovered.clone()), sorted(removed));
    server.shutdown();
}

#[test]
fn server_round_cap_refuses_marathon_sessions() {
    // A deliberately under-parameterized client (known_d = 1 against 60
    // real differences) needs many split rounds; a server capped at 2
    // rounds refuses it with the round-limit error code.
    let pool = distinct_keys(2_000, 0xFEED);
    let (alice_set, bob_set) = two_sided_pair(&pool, 60);
    let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig {
            round_cap: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let config = ClientConfig {
        known_d: Some(1),
        seed: 3,
        ..ClientConfig::default()
    };
    match sync(server.local_addr(), &alice_set, &config) {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, pbs_net::frame::ErrorCode::RoundLimit)
        }
        Ok(report) => assert!(
            report.verified && report.rounds <= 2,
            "under-parameterized sync unexpectedly finished in {} rounds",
            report.rounds
        ),
        Err(other) => panic!("expected round-limit refusal, got {other:?}"),
    }
    server.shutdown();
}
