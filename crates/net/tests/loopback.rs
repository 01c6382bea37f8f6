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
//!
//! The rest is what needs a socket: the worker pool under concurrent
//! clients, and two named stores served at once. What the protocol refuses
//! and what pipelining buys are tested without one (`Duet`, in
//! `src/machine.rs`, `src/server_machine.rs` and `src/conn.rs`).

use estimator::{inflate_estimate, Estimator, TowEstimator};
use pbs_core::{AliceSession, BobSession, Pbs, PbsConfig, ESTIMATOR_SEED_SALT};
use pbs_net::client::{sync, ClientConfig, Pipeline};
use pbs_net::frame::{EstimatorMsg, Frame, Hello, FRAME_OVERHEAD};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, StoreRegistry};
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
/// frame for frame, one round a trip, and ledger every frame's serialized
/// body into a transcript (`wire_bytes` = type byte + payload; the socket
/// adds [`FRAME_OVERHEAD`] per frame on top).
fn reference_run(
    alice_set: &[u64],
    bob_set: &[u64],
    cfg: PbsConfig,
    seed: u64,
    round_cap: u32,
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
        let batch = alice.start_rounds(1);
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
    /// section entry.
    fn assert_rounds_within_formula_one(&self, case: &str) {
        let t = &self.transcript;
        let trips = self.round_trips as u64;
        let wire = t.wire_bytes_for_label("sketches")
            + t.wire_bytes_for_label("reports")
            + 2 * FRAME_OVERHEAD * trips;
        let formula_one = (t.bits_for_label("sketches") + t.bits_for_label("reports")) / 8;
        let headers = (2 * (FRAME_OVERHEAD + 1 + 8) + 8) * trips;
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
        predicted.assert_rounds_within_formula_one(&format!("d={d}"));
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
