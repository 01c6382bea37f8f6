//! Regenerates `BENCH_decode_path.json`: the decode/estimate-path speedup
//! report, the PR-2 counterpart of `BENCH_gf_bch.json`.
//!
//! Measures the batched kernels against the seed's per-element scalar path
//! (kept in-tree as `*_reference` entry points) on the workloads that
//! dominate the non-sketching half of a reconciliation round trip:
//!
//! * IBLT insert and peel of an n = 10^5 difference (the D.Digest decode),
//! * the two batched estimator insert paths (ToW, Strata) over 10^5
//!   elements, against their per-element inserts,
//! * `Poly::mul` at BCH-locator-like degrees (Karatsuba vs schoolbook),
//! * Bob's per-group PBS decode for a d = 100 difference over |A| = 10^5
//!   (batched syndrome build + dense bin accumulation + `par_map` groups vs
//!   the seed's serial scalar loop),
//! * the network frame codec round trip of one full d = 1000 protocol round
//!   (one batched sketches frame + one reports frame, CRC verified, vs a
//!   naive frame-per-message transport) — this is the `net_roundtrip`
//!   metric `check_bench` gates serialization regressions with,
//! * the wire-v3 delta short-circuit: serving 50 changes of a 100k-element
//!   store from the changelog (`delta_since` + chunked `DeltaBatch`
//!   encode/decode + client-side collapse) vs running the full in-process
//!   reconciliation of the same 50-element difference — the gated
//!   `delta_sync` metric; its speedup is the CPU-side win the
//!   delta-subscription protocol exists to deliver,
//! * the durable-store recovery path: reopening a 100k-element store from
//!   its newest snapshot plus a 5-batch WAL tail vs replaying its entire
//!   2000-batch churny change history from a genesis WAL — the gated
//!   `wal_recovery` metric; its speedup is what snapshot compaction buys
//!   every restart,
//! * the live-push subscription path: apply→`DeltaDone` latency over one
//!   parked push subscription vs a tight poll of one-shot delta syncs on
//!   fresh connections, against a real loopback server — the gated
//!   `push_latency` metric; its speedup is the per-event connect +
//!   handshake that live push amortizes away,
//! * the telemetry overhead: one full reconciliation against two otherwise
//!   identical loopback servers, `ServerConfig::telemetry` on (fast, the
//!   default) vs off (reference) — the gated `metrics_overhead` metric;
//!   its speedup must stay ~1.0, proving the histogram layer documented in
//!   `docs/OBSERVABILITY.md` costs no measurable share of a sync.
//! * the load-harness tail: p99 `total` session latency of 150 open-loop
//!   delta catch-ups at 300/s, driven by the loadgen engine's multiplexing
//!   worker pool (fast) vs one blocking OS thread per arrival (reference)
//!   over the same seeded schedule — the gated `load_p99` metric; a
//!   regression means the measuring instrument itself got slower.
//!
//! Run with `cargo run --release -p bench --bin bench_decode_path`.
//! The CI bench gate (`check_bench`) compares every `fast_*` metric of the
//! freshly emitted report against the committed baseline.

use estimator::{Estimator, StrataEstimator, TowEstimator};
use gf::{Field, Poly};
use iblt::{Iblt, PeelStrategy, SubtableIblt, DEFAULT_SHARD_CELLS};
use pbs_core::{AliceSession, BobSession, Pbs, PbsConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall-clock time of `f`, in nanoseconds.
fn best_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        let ns = start.elapsed().as_nanos() as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

fn keys(n: usize, salt: u64) -> Vec<u64> {
    let mut x = salt | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x | 1 // keep keys nonzero
        })
        .collect()
}

struct Row {
    name: String,
    detail: String,
    fast_ms: f64,
    reference_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.fast_ms
    }
    fn print(&self) {
        println!(
            "{:<18} {:<26} {:>9.2} ms fast, {:>9.2} ms reference, {:>5.1}x",
            self.name,
            self.detail,
            self.fast_ms,
            self.reference_ms,
            self.speedup()
        );
    }
}

fn bench_iblt(n: usize) -> (Row, Row) {
    let cells = 2 * n;
    let hashes = 4u32;
    let ks = keys(n, 0xB10C);

    let fast_insert_ns = best_ns(3, || {
        let mut t = Iblt::new(cells, hashes, 7);
        t.insert_batch(&ks);
        black_box(&t);
    });
    let reference_insert_ns = best_ns(3, || {
        let mut t = Iblt::new(cells, hashes, 7);
        for &k in &ks {
            t.insert_reference(k);
        }
        black_box(&t);
    });

    // The peel input: a difference table holding all n keys.
    let mut table = Iblt::new(cells, hashes, 7);
    table.insert_batch(&ks);
    let expected = table.peel_reference();
    let fast_peel_ns = best_ns(3, || {
        let r = table.peel();
        assert_eq!(r.complete, expected.complete, "peel completeness diverged");
        assert_eq!(r.len(), expected.len(), "peel recovery diverged");
        black_box(r);
    });
    let reference_peel_ns = best_ns(3, || {
        black_box(table.peel_reference());
    });

    (
        Row {
            name: "iblt_insert".into(),
            detail: format!("n={n} cells={cells} k={hashes}"),
            fast_ms: fast_insert_ns / 1e6,
            reference_ms: reference_insert_ns / 1e6,
        },
        Row {
            name: "iblt_peel".into(),
            detail: format!("n={n} cells={cells} k={hashes}"),
            fast_ms: fast_peel_ns / 1e6,
            reference_ms: reference_peel_ns / 1e6,
        },
    )
}

/// The sub-table ratio: a [`SubtableIblt`] — elements grouped by a
/// top-level hash into L2-sized mini-IBLTs, so every peel probe is
/// cache-resident — against the committed flat-peel fast path (the wave
/// peeler) decoding the same difference with the same total cell budget.
/// Measured at a table size well past any cache so the flat peeler is
/// genuinely DRAM-bound. Each rep peels a *pre-made, untimed* clone so
/// the measurement is the destructive peel cascade itself: the clone's
/// cost is pure allocator behaviour (one 24 MB memcpy vs ~120 shard-sized
/// ones, huge-page luck included) and would otherwise drown the cascade
/// difference in noise that says nothing about peeling. Same-run ratio
/// per the 1-CPU gating policy: only ratios are robust across machines.
fn bench_iblt_subtable(n: usize) -> Row {
    let cells = 2 * n;
    let hashes = 4u32;
    let ks = keys(n, 0xB10C);

    let mut flat = Iblt::new(cells, hashes, 7);
    flat.insert_batch(&ks);
    let mut sharded = SubtableIblt::new(cells, hashes, 7, DEFAULT_SHARD_CELLS);
    sharded.insert_batch(&ks);

    let mut subtable_ns = f64::INFINITY;
    for _ in 0..5 {
        let mut work = sharded.clone();
        let t = std::time::Instant::now();
        let r = work.try_peel_mut().expect("sharded bench table decodes");
        subtable_ns = subtable_ns.min(t.elapsed().as_nanos() as f64);
        assert_eq!(r.len(), ks.len(), "sharded peel diverged");
        black_box(r);
    }
    let mut wave_ns = f64::INFINITY;
    for _ in 0..5 {
        let mut work = flat.clone();
        let t = std::time::Instant::now();
        let r = work
            .try_peel_mut_with(PeelStrategy::Wave)
            .expect("flat bench table decodes");
        wave_ns = wave_ns.min(t.elapsed().as_nanos() as f64);
        assert_eq!(r.len(), ks.len(), "wave peel diverged");
        black_box(r);
    }

    Row {
        name: "iblt_peel_subtable".into(),
        detail: format!(
            "n={n} cells={cells} k={hashes} shard={DEFAULT_SHARD_CELLS} sharded layout vs flat wave"
        ),
        fast_ms: subtable_ns / 1e6,
        reference_ms: wave_ns / 1e6,
    }
}

fn bench_estimators(n: usize) -> Vec<Row> {
    let elems = keys(n, 0xE571);
    let mut rows = Vec::new();

    let tow_fast = best_ns(3, || {
        let mut e = TowEstimator::new(128, 3);
        e.insert_slice(&elems);
        black_box(e.sketches().len());
    });
    let tow_ref = best_ns(3, || {
        let mut e = TowEstimator::new(128, 3);
        for &x in &elems {
            e.insert(x);
        }
        black_box(e.sketches().len());
    });
    rows.push(Row {
        name: "tow_insert".into(),
        detail: format!("n={n} sketches=128"),
        fast_ms: tow_fast / 1e6,
        reference_ms: tow_ref / 1e6,
    });

    let strata_fast = best_ns(3, || {
        let mut e = StrataEstimator::new(32, 3);
        e.insert_slice(&elems);
        black_box(e.strata_count());
    });
    let strata_ref = best_ns(3, || {
        let mut e = StrataEstimator::new(32, 3);
        for &x in &elems {
            e.insert(x);
        }
        black_box(e.strata_count());
    });
    rows.push(Row {
        name: "strata_insert".into(),
        detail: format!("n={n} strata=32"),
        fast_ms: strata_fast / 1e6,
        reference_ms: strata_ref / 1e6,
    });

    rows
}

fn bench_poly_mul(len: usize) -> Row {
    let f = Field::new(32);
    let coeffs =
        |salt: u64| Poly::from_coeffs(keys(len, salt).into_iter().map(|k| k % f.order()).collect());
    let a = coeffs(0x90);
    let b = coeffs(0x91);
    assert_eq!(
        a.mul(&b, &f),
        a.mul_schoolbook(&b, &f),
        "Karatsuba product diverged from schoolbook"
    );
    let fast = best_ns(5, || {
        black_box(a.mul(&b, &f));
    });
    let reference = best_ns(5, || {
        black_box(a.mul_schoolbook(&b, &f));
    });
    Row {
        name: "poly_mul".into(),
        detail: format!("deg={} m=32", len - 1),
        fast_ms: fast / 1e6,
        reference_ms: reference / 1e6,
    }
}

fn bench_bob_decode(set_size: usize, d: usize) -> Row {
    let cfg = PbsConfig::default();
    let params = Pbs::new(cfg).plan(d);
    let alice: Vec<u64> = keys(set_size, 0xA11CE);
    let bob: Vec<u64> = alice[d..].to_vec();
    let seed = 42u64;

    let mut a = AliceSession::new(cfg, params, &alice, seed);
    let sketches = a.start_round();

    // Bob's state is only mutated on decode failures; at this d the sketches
    // decode cleanly, so one session per path can be timed repeatedly.
    let mut bob_fast = BobSession::new(cfg, params, &bob, seed);
    let mut bob_ref = BobSession::new(cfg, params, &bob, seed);
    let expect = bob_ref.handle_sketches_reference(&sketches);
    let fast = best_ns(5, || {
        let reports = bob_fast.handle_sketches(&sketches);
        assert_eq!(reports, expect, "batched reports diverged from reference");
        black_box(reports);
    });
    let reference = best_ns(3, || {
        black_box(bob_ref.handle_sketches_reference(&sketches));
    });
    assert_eq!(bob_fast.decode_failures(), 0, "unexpected decode failure");

    Row {
        name: "bob_decode".into(),
        detail: format!("|A|={set_size} d={d} g={} t={}", params.groups, params.t),
        fast_ms: fast / 1e6,
        reference_ms: reference / 1e6,
    }
}

fn bench_net_roundtrip(set_size: usize, d: usize) -> Row {
    use pbs_net::frame::{read_frame, write_frame, Frame, DEFAULT_MAX_FRAME};

    let cfg = PbsConfig::default();
    let params = Pbs::new(cfg).plan(d);
    let alice: Vec<u64> = keys(set_size, 0xF4A3);
    let bob: Vec<u64> = alice[d..].to_vec();
    let seed = 9u64;
    let mut a = AliceSession::new(cfg, params, &alice, seed);
    let batch = a.start_round();
    let mut b = BobSession::new(cfg, params, &bob, seed);
    let reports = b.handle_sketches(&batch);

    // Fast path: the deployed transport — one frame per message *batch*,
    // length-prefixed and CRC-checked, decoded back through the same codec.
    let sketches_frame = Frame::Sketches {
        m: params.m,
        batch: batch.clone(),
    };
    let reports_frame = Frame::Reports(reports.clone());
    let mut wire = Vec::new();
    let fast = best_ns(5, || {
        wire.clear();
        write_frame(&mut wire, &sketches_frame, DEFAULT_MAX_FRAME).expect("write sketches");
        write_frame(&mut wire, &reports_frame, DEFAULT_MAX_FRAME).expect("write reports");
        let mut cursor = wire.as_slice();
        let (s, _) = read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read sketches");
        let (r, _) = read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read reports");
        black_box((s, r));
    });

    // Reference: the naive transport that frames every group message
    // individually (per-message headers, CRCs and payload preambles).
    let per_message: Vec<Frame> = batch
        .iter()
        .map(|s| Frame::Sketches {
            m: params.m,
            batch: vec![s.clone()],
        })
        .chain(reports.iter().map(|r| Frame::Reports(vec![r.clone()])))
        .collect();
    let reference = best_ns(5, || {
        wire.clear();
        for f in &per_message {
            write_frame(&mut wire, f, DEFAULT_MAX_FRAME).expect("write message");
        }
        let mut cursor = wire.as_slice();
        for _ in 0..per_message.len() {
            black_box(read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read message"));
        }
    });

    Row {
        name: "net_roundtrip".into(),
        detail: format!("|A|={set_size} d={d} groups={}", params.groups),
        fast_ms: fast / 1e6,
        reference_ms: reference / 1e6,
    }
}

fn bench_delta_sync(set_size: usize, changes: usize) -> Row {
    use pbs_net::frame::{
        delta_batch_frames, delta_chunk_capacity, read_frame, write_frame, Frame, DEFAULT_MAX_FRAME,
    };
    use pbs_net::store::{DeltaAnswer, MutableStore, SetStore};

    let pool = keys(set_size + changes / 2, 0xDE17A);
    let baseline = &pool[..set_size];
    let store = MutableStore::new(baseline.iter().copied());
    // `changes` changed elements in one batch: half inserts, half removes.
    store.apply(&pool[set_size..], &baseline[..changes - changes / 2]);

    // Fast path: what the server + client do on a granted delta
    // subscription — read the changelog tail, chunk and frame it, CRC and
    // parse it back, collapse into the client's net add/remove sets.
    let capacity = delta_chunk_capacity(DEFAULT_MAX_FRAME);
    let mut wire = Vec::new();
    let fast = best_ns(25, || {
        wire.clear();
        let DeltaAnswer::Changes { batches, current } = store.delta_since(0) else {
            panic!("changelog must be intact");
        };
        for batch in &batches {
            for frame in delta_batch_frames(batch.epoch, &batch.added, &batch.removed, capacity) {
                write_frame(&mut wire, &frame, DEFAULT_MAX_FRAME).expect("write delta");
            }
        }
        write_frame(
            &mut wire,
            &Frame::DeltaDone { epoch: current },
            DEFAULT_MAX_FRAME,
        )
        .expect("write done");
        let mut cursor = wire.as_slice();
        // The client's own collapse rule: pbs_net::DeltaFold, shared with
        // client::sync so this metric cannot drift from what ships.
        let mut fold = pbs_net::DeltaFold::new();
        loop {
            match read_frame(&mut cursor, DEFAULT_MAX_FRAME)
                .expect("read delta")
                .0
            {
                Frame::DeltaBatch {
                    added: a,
                    removed: r,
                    ..
                } => fold.fold(a, r),
                Frame::DeltaDone { .. } => break,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(fold.len(), changes);
        black_box(fold);
    });

    // Reference: the same 50-element difference reconciled the classic way
    // — both session state machines built from scratch (that O(|set|) cost
    // is exactly what a real fallback session pays), one sketch/report
    // round through the frame codec, reports applied.
    let cfg = PbsConfig::default();
    let params = Pbs::new(cfg).plan(changes);
    let client_set = baseline;
    let server_set = store.snapshot();
    let seed = 77u64;
    let reference = best_ns(3, || {
        let mut alice = AliceSession::new(cfg, params, client_set, seed);
        let mut bob = BobSession::new(cfg, params, &server_set, seed);
        wire.clear();
        let batch = alice.start_round();
        write_frame(
            &mut wire,
            &Frame::Sketches { m: params.m, batch },
            DEFAULT_MAX_FRAME,
        )
        .expect("write sketches");
        let mut cursor = wire.as_slice();
        let Frame::Sketches { batch, .. } = read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .expect("read sketches")
            .0
        else {
            panic!("expected sketches");
        };
        let reports = bob.handle_sketches(&batch);
        wire.clear();
        write_frame(&mut wire, &Frame::Reports(reports), DEFAULT_MAX_FRAME).expect("write reports");
        let mut cursor = wire.as_slice();
        let Frame::Reports(reports) = read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .expect("read reports")
            .0
        else {
            panic!("expected reports");
        };
        black_box(alice.apply_reports(&reports));
    });

    Row {
        name: "delta_sync".into(),
        detail: format!("|store|={set_size} changes={changes}"),
        fast_ms: fast / 1e6,
        reference_ms: reference / 1e6,
    }
}

/// The durable-store recovery path: reopening a store that was compacted
/// (newest snapshot + a short WAL tail) vs replaying the entire change
/// history from a genesis WAL. Both land on the identical (set, epoch);
/// the speedup is what snapshot compaction buys every restart.
fn bench_wal_recovery(batches: usize, batch_size: usize, tail: usize) -> Row {
    use pbs_net::store::ChangeBatch;
    use pbs_net::wal::{recover, DurableOptions, Wal};

    let root = std::env::temp_dir().join(format!("pbs_bench_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let genesis_dir = root.join("genesis");
    let compacted_dir = root.join("compacted");
    std::fs::create_dir_all(&genesis_dir).expect("create bench dir");
    std::fs::create_dir_all(&compacted_dir).expect("create bench dir");

    // snapshot_every: usize::MAX — compaction is driven by hand below.
    let options = DurableOptions {
        snapshot_every: usize::MAX,
        ..DurableOptions::default()
    };
    // Churn: every batch adds `batch_size` elements and removes 3/4 of the
    // previous batch's adds, so the change *history* is several times the
    // final *state* — the regime snapshots exist for.
    let churn = batch_size * 3 / 4;
    let pool = keys(batches * batch_size, 0x57A1);
    let mut genesis = Wal::open(&genesis_dir, options).expect("open genesis WAL");
    let mut compacted = Wal::open(&compacted_dir, options).expect("open compacted WAL");
    let mut state: std::collections::HashSet<u64> =
        std::collections::HashSet::with_capacity(batches * batch_size);
    let mut log_tail: Vec<ChangeBatch> = Vec::new();
    let mut prev_added: &[u64] = &[];
    for i in 0..batches {
        let epoch = (i + 1) as u64;
        let added = &pool[i * batch_size..(i + 1) * batch_size];
        let removed = &prev_added[..churn.min(prev_added.len())];
        genesis.append(epoch, added, removed).expect("append");
        if i + tail == batches {
            // Snapshot everything before the tail, then log only the tail.
            let snap: Vec<u64> = state.iter().copied().collect();
            compacted
                .compact(&snap, epoch - 1, &log_tail)
                .expect("compact");
        }
        if i + tail >= batches {
            compacted
                .append(epoch, added, removed)
                .expect("append tail");
        }
        for e in removed {
            state.remove(e);
        }
        state.extend(added.iter().copied());
        log_tail.push(ChangeBatch {
            epoch,
            added: added.to_vec(),
            removed: removed.to_vec(),
        });
        if log_tail.len() > tail {
            log_tail.remove(0);
        }
        prev_added = added;
    }

    let cap = pbs_net::store::DEFAULT_CHANGELOG_CAPACITY;
    let fast_state = recover(&compacted_dir, cap).expect("recover compacted");
    let reference_state = recover(&genesis_dir, cap).expect("recover genesis");
    assert_eq!(fast_state.epoch, reference_state.epoch, "epoch diverged");
    assert_eq!(
        fast_state.elements, reference_state.elements,
        "recovered set diverged"
    );

    let fast = best_ns(15, || {
        black_box(recover(&compacted_dir, cap).expect("recover compacted"));
    });
    let reference = best_ns(3, || {
        black_box(recover(&genesis_dir, cap).expect("recover genesis"));
    });
    let _ = std::fs::remove_dir_all(&root);

    Row {
        name: "wal_recovery".into(),
        detail: format!(
            "|store|={} history={batches}x{batch_size} tail={tail}",
            batches * batch_size - (batches - 1) * churn
        ),
        fast_ms: fast / 1e6,
        reference_ms: reference / 1e6,
    }
}

/// Live-push latency: the time from `MutableStore::apply` on the server to
/// the subscriber holding the event's `DeltaDone`, over one parked push
/// subscription (fast) vs a tight poll of one-shot delta syncs on fresh
/// connections (reference). Both observe the same mutations over the same
/// loopback server; the speedup is the per-event TCP connect + handshake
/// that the push path amortizes away.
fn bench_push_latency(set_size: usize, events: usize) -> Row {
    use pbs_net::client::{sync, ClientConfig, SyncClient};
    use pbs_net::server::{Server, ServerConfig};
    use pbs_net::store::MutableStore;
    use std::sync::Arc;

    let store = Arc::new(MutableStore::new(keys(set_size, 0xF011)));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind bench server");
    let addr = server.local_addr();
    let pool = keys(8 * events, 0xE7E27);
    let mut pool = pool.iter().copied();

    // Fast path: park one subscription; each event is pushed the moment it
    // commits, and the loop blocks until that event's DeltaDone arrives.
    let mut sub = SyncClient::connect(addr)
        .expect("resolve")
        .subscribe(store.epoch())
        .expect("subscribe");
    let mut epoch = sub.next().expect("catch-up").expect("catch-up ok").to_epoch;
    let fast_ns = best_ns(2, || {
        for _ in 0..events {
            store.apply(&[pool.next().expect("element pool")], &[]);
            let target = epoch + 1;
            while epoch < target {
                epoch = sub.next().expect("push").expect("push ok").to_epoch;
            }
        }
    }) / events as f64;
    drop(sub);

    // Reference: the tightest possible poll — one fresh connection per
    // probe, served by the same delta short-circuit (the mutation lands
    // before the probe, so every event costs exactly one poll; a real
    // poller pays this *per interval*, event or not).
    let mut base_epoch = store.epoch();
    let reference_ns = best_ns(2, || {
        for _ in 0..events {
            store.apply(&[pool.next().expect("element pool")], &[]);
            let target = base_epoch + 1;
            while base_epoch < target {
                let config = ClientConfig::builder().delta_epoch(base_epoch).build();
                let report = sync(addr, &[], &config).expect("poll sync");
                base_epoch = report.delta.expect("delta poll granted").to_epoch;
            }
        }
    }) / events as f64;
    server.shutdown();

    Row {
        name: "push_latency".into(),
        detail: format!("|store|={set_size} events={events}"),
        fast_ms: fast_ns / 1e6,
        reference_ms: reference_ns / 1e6,
    }
}

/// Telemetry overhead: the same full reconciliation against two otherwise
/// identical loopback servers, one with `ServerConfig::telemetry` on (the
/// default — per-phase histograms and push-dispatch timing recorded) and
/// one with it off (counters only). The contract is a speedup of ~1.0:
/// the instrumentation must cost no measurable share of a sync, and the
/// `check_bench` gate fails if the instrumented path regresses.
fn bench_metrics_overhead(set_size: usize, d: usize) -> Row {
    use pbs_net::client::SyncClient;
    use pbs_net::server::{Server, ServerConfig};
    use pbs_net::store::InMemoryStore;
    use std::sync::Arc;

    // Distinct nonzero keys inside the default 32-bit universe (odd
    // multiplier → bijection mod 2^32; i ≥ 1 keeps 0 out).
    let server_set: Vec<u64> = (1..=set_size as u64)
        .map(|i| i.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF)
        .collect();
    // Alice holds a strict subset, so every repetition reconciles the
    // identical d-element difference and never mutates the server store.
    let alice: Vec<u64> = server_set[d..].to_vec();
    let syncs = 5usize;
    let time_sync = |telemetry: bool| {
        let store = Arc::new(InMemoryStore::new(server_set.iter().copied()));
        let server = Server::bind(
            "127.0.0.1:0",
            store as Arc<_>,
            ServerConfig {
                telemetry,
                ..ServerConfig::default()
            },
        )
        .expect("bind bench server");
        let client = SyncClient::connect(server.local_addr()).expect("resolve");
        let ns = best_ns(3, || {
            for _ in 0..syncs {
                let report = client.sync(&alice).expect("sync");
                assert!(report.verified);
                assert_eq!(report.recovered.len(), d);
            }
        }) / syncs as f64;
        server.shutdown();
        ns
    };
    let fast_ns = time_sync(true);
    let reference_ns = time_sync(false);

    Row {
        name: "metrics_overhead".into(),
        detail: format!("|B|={set_size} d={d} telemetry on/off"),
        fast_ms: fast_ns / 1e6,
        reference_ms: reference_ns / 1e6,
    }
}

/// Open-loop load-harness p99: the `total` session latency at p99 when
/// `sessions` delta catch-ups arrive at `rate`/s against a loopback
/// server, driven by the loadgen worker pool multiplexing every session
/// on a handful of threads (fast) vs a thread-per-arrival driver that
/// gives each session its own OS thread and blocking client (reference).
/// Same seeded arrival schedule, same server, same workload — the
/// difference is purely the session-driving discipline, and the gated
/// `fast_ms` keeps the harness's own measurement path honest: a
/// regression here means the instrument got slower, not the server.
fn bench_load_p99(sessions: usize, rate: f64) -> Row {
    use loadgen::{build_plan, Engine, EngineConfig, Kind, Mix, PlanConfig, Report, SessionSpec};
    use pbs_net::client::{sync, ClientConfig};
    use pbs_net::server::{Server, ServerConfig};
    use pbs_net::store::MutableStore;
    use std::sync::Arc;
    use std::time::Duration;

    let base: Vec<u64> = keys(10_000, 0x10AD);
    let store = Arc::new(MutableStore::new(base.iter().copied()));
    let epoch = store.epoch();
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind bench server");
    let addr = server.local_addr();

    // All-delta mix: the cheapest session the protocol serves, so the
    // measured tail is the driving machinery, not the decode.
    let plan_config = PlanConfig {
        sessions,
        rate,
        mix: Mix {
            full: 0,
            delta: 1,
            pipelined: 0,
            subscribe: 0,
        },
        seed: 0x10AD_BE9C,
    };
    let plan = build_plan(&plan_config);
    assert!(plan.iter().all(|a| a.kind == Kind::Delta));

    // The open-loop tail on a small shared box is dominated by scheduler
    // noise — multi-second throttle bursts inflate a whole pass 10x — so
    // both sides take the best p99 over repeated passes, and passes keep
    // running until (a) the two best values on each side agree within 30%
    // (one quiet pass is luck, two agreeing passes are a measurement) and
    // (b) the best values sit within a sane multiple of the floor: the
    // best-of-N latency of an isolated one-shot sync, itself re-sampled
    // every pass so one quiet 100µs rep anywhere in the run anchors it.
    // (a) alone converges happily on a uniformly-throttled triple; the
    // floor check is what rejects that. Fast and reference passes are
    // interleaved so a burst degrades both sides alike instead of skewing
    // the gated speedup ratio.
    const MIN_PASSES: usize = 3;
    const MAX_PASSES: usize = 8;
    let converged = |samples: &[u64]| {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        sorted[1] <= sorted[0] + sorted[0] * 3 / 10
    };
    let base = Arc::new(base);
    let mut fast_samples_us: Vec<u64> = Vec::new();
    let mut reference_samples_us: Vec<u64> = Vec::new();
    let mut floor_ns = f64::INFINITY;
    for pass in 0..MAX_PASSES {
        floor_ns = floor_ns.min(best_ns(20, || {
            let config = ClientConfig::builder().delta_epoch(epoch).build();
            let report = sync(addr, &[], &config).expect("floor sync");
            black_box(report.delta.is_some());
        }));
        let quiet = |samples: &[u64]| {
            *samples.iter().min().expect("non-empty") as f64 * 1e3 <= floor_ns * 15.0
        };
        if pass >= MIN_PASSES
            && converged(&fast_samples_us)
            && converged(&reference_samples_us)
            && quiet(&fast_samples_us)
            && quiet(&reference_samples_us)
        {
            break;
        }
        // Fast: the loadgen engine — 2 workers multiplexing every
        // in-flight session, per-phase latency recorded inside the state
        // machine.
        let mut engine = Engine::start(EngineConfig {
            target: addr,
            workers: 2,
            spec: SessionSpec::default(),
            base_set: Arc::clone(&base),
            drops: 1,
            delta_epoch: epoch,
        })
        .expect("start engine");
        let started = Instant::now();
        engine.run_plan(&plan, started);
        let (metrics, elapsed) = engine.drain(Duration::from_secs(60), Duration::ZERO);
        let report = Report::build(&metrics, &plan_config, elapsed);
        assert!(
            report.settled() && report.failed == 0,
            "engine run degraded"
        );
        let p99 = report
            .phases
            .iter()
            .find(|(name, ..)| *name == "total")
            .map(|&(_, _, p99, _, _)| p99)
            .expect("total phase");
        fast_samples_us.push(p99);

        // Reference: the same schedule, one OS thread + blocking client
        // per arrival.
        let ref_started = Instant::now();
        let handles: Vec<_> = plan
            .iter()
            .map(|arrival| {
                let due = ref_started + arrival.at;
                std::thread::spawn(move || {
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let begun = Instant::now();
                    let config = ClientConfig::builder().delta_epoch(epoch).build();
                    let report = sync(addr, &[], &config).expect("reference sync");
                    assert!(report.delta.is_some());
                    begun.elapsed()
                })
            })
            .collect();
        let mut latencies: Vec<Duration> = handles
            .into_iter()
            .map(|h| h.join().expect("reference session thread"))
            .collect();
        latencies.sort_unstable();
        let ref_p99 = latencies[(latencies.len() - 1) * 99 / 100];
        reference_samples_us.push(ref_p99.as_micros() as u64);
    }
    server.shutdown();
    let fast_p99_us = *fast_samples_us.iter().min().expect("at least one pass");
    let reference_p99_us = *reference_samples_us
        .iter()
        .min()
        .expect("at least one pass");

    Row {
        name: "load_p99".into(),
        detail: format!(
            "sessions={sessions} rate={rate:.0}/s delta-only best-of-{}",
            fast_samples_us.len()
        ),
        fast_ms: fast_p99_us as f64 / 1e3,
        reference_ms: reference_p99_us as f64 / 1e3,
    }
}

fn main() {
    let n = 100_000usize;
    let (iblt_insert, iblt_peel) = bench_iblt(n);
    iblt_insert.print();
    iblt_peel.print();
    // 10× the difference size of the flat rows: the sub-table layout's win
    // is cache (and TLB) residency, so it is measured where the table
    // (~48 MiB) dwarfs any cache level and the flat peeler's probe stream
    // spans more 4 KiB pages than a TLB holds.
    let iblt_peel_subtable = bench_iblt_subtable(10 * n);
    iblt_peel_subtable.print();
    let estimators = bench_estimators(n);
    for r in &estimators {
        r.print();
    }
    let poly = bench_poly_mul(512);
    poly.print();
    let bob = bench_bob_decode(n, 100);
    bob.print();
    let net = bench_net_roundtrip(n / 2, 1000);
    net.print();
    let delta = bench_delta_sync(n, 50);
    delta.print();
    let wal = bench_wal_recovery(2000, 200, 5);
    wal.print();
    let push = bench_push_latency(n / 10, 20);
    push.print();
    let overhead = bench_metrics_overhead(n / 10, 100);
    overhead.print();
    let load = bench_load_p99(300, 300.0);
    load.print();

    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let parallel = cfg!(feature = "parallel");

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"decode_path\",\n");
    let _ = writeln!(json, "  \"parallel_feature\": {parallel},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let emit = |json: &mut String, key: &str, row: &Row, tail: &str| {
        let _ = writeln!(
            json,
            "  \"{key}\": {{\"detail\": \"{}\", \"fast_ms\": {:.3}, \"reference_ms\": {:.3}, \"speedup\": {:.2}}}{tail}",
            row.detail,
            row.fast_ms,
            row.reference_ms,
            row.speedup()
        );
    };
    emit(&mut json, "iblt_insert", &iblt_insert, ",");
    emit(&mut json, "iblt_peel", &iblt_peel, ",");
    emit(&mut json, "iblt_peel_subtable", &iblt_peel_subtable, ",");
    json.push_str("  \"estimator_insert\": [\n");
    for (i, r) in estimators.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"fast_ms\": {:.3}, \"reference_ms\": {:.3}, \"speedup\": {:.2}}}",
            r.name,
            r.detail,
            r.fast_ms,
            r.reference_ms,
            r.speedup()
        );
        json.push_str(if i + 1 < estimators.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    emit(&mut json, "poly_mul", &poly, ",");
    emit(&mut json, "bob_decode", &bob, ",");
    emit(&mut json, "net_roundtrip", &net, ",");
    emit(&mut json, "delta_sync", &delta, ",");
    emit(&mut json, "wal_recovery", &wal, ",");
    emit(&mut json, "push_latency", &push, ",");
    emit(&mut json, "metrics_overhead", &overhead, ",");
    emit(&mut json, "load_p99", &load, "");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decode_path.json");
    std::fs::write(path, &json).expect("write BENCH_decode_path.json");
    println!("wrote {path}");
}
