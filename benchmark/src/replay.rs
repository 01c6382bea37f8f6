//! The traced pass: the same generated inputs replayed **in-process**, one
//! thread, every call into a layer's public functions wrapped in a span.
//!
//! The replay re-enacts what `client::sync` and the server's event loop do
//! for one session — the same calls, in protocol order, with every frame
//! really encoded (`write_frame`) and decoded (`read_frame`) through
//! memory — but sequentially, so each layer's cost is read off its span
//! without sockets, scheduling or the other side's concurrency in the way.
//! `README.md` documents which of these calls overlap in a real session
//! (the critical-path model behind `net.unattributed_ms`).

use crate::engine::{build_store, Checks};
use crate::gen::Inputs;
use crate::span::Tracer;
use crate::workload::{Workload, CHURN_STEP};
use estimator::{Estimator, TowEstimator};
use pbs_core::{AliceSession, BobSession, Pbs, PbsConfig, ESTIMATOR_SEED_SALT};
use pbs_net::frame::{
    delta_batch_frames, delta_chunk_capacity, read_frame, write_frame, EstimatorMsg, Frame, Hello,
    DEFAULT_MAX_FRAME,
};
use pbs_net::{ClientConfig, DeltaAnswer, DeltaFold, MutableStore, Pipeline, SetStore};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// The server's `max_pipeline_depth` default: the grant an adaptive client
/// works under.
const PIPELINE_GRANT: u32 = 4;
/// The client's `round_cap` default.
const ROUND_CAP: u32 = 32;

/// Wire bytes per frame type of one replayed session.
pub type FrameBytes = BTreeMap<&'static str, u64>;

/// Counts read at the layer boundaries of one replayed full sync.
#[derive(Debug, Clone, Default)]
pub struct SyncFacts {
    pub d_param: u64,
    pub groups: usize,
    pub decode_failures: u32,
    pub fakes_rejected: u64,
    pub round_trips: u32,
    pub frame_bytes: FrameBytes,
}

#[derive(Debug)]
pub struct Replay {
    pub tracer: Tracer,
    pub syncs: Vec<SyncFacts>,
    /// Frame bytes of one write batch's delta catch-up.
    pub delta_frame_bytes: FrameBytes,
    /// Wall clock of each replayed cycle. Cycle `i` does the same work in
    /// every replay of the same seed, so two replays compare over their
    /// common prefix.
    pub cycle_s: Vec<f64>,
    /// Bytes the process wrote to files during the loop (WAL appends and
    /// snapshots — the replay opens no socket), and the user bytes the
    /// write batches carried.
    pub file_bytes_written: u64,
    pub change_bytes: u64,
    pub snapshots: u64,
    pub checks: Checks,
}

/// Encode `frame` to memory and decode it back, each in its own span, and
/// book its wire size under `kind`.
fn ship(
    tr: &mut Tracer,
    bytes: &mut FrameBytes,
    kind: &'static str,
    encode: &'static str,
    decode: &'static str,
    frame: &Frame,
) -> Frame {
    let mut wire = Vec::new();
    tr.leaf(encode, || write_frame(&mut wire, frame, DEFAULT_MAX_FRAME))
        .expect("frame fits the default cap");
    *bytes.entry(kind).or_default() += wire.len() as u64;
    tr.leaf(decode, || {
        read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME)
    })
    .expect("a frame just encoded decodes")
    .0
}

macro_rules! ship {
    ($tr:expr, $bytes:expr, $kind:literal, $frame:expr) => {
        ship(
            $tr,
            $bytes,
            $kind,
            concat!("frame.encode.", $kind),
            concat!("frame.decode.", $kind),
            $frame,
        )
    };
}

fn bytes_written_to_files() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            let line = io.lines().find(|l| l.starts_with("wchar:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Replay one full reconciliation of `client_set` against `store`.
fn replay_sync(
    tr: &mut Tracer,
    store: &MutableStore,
    client_set: &[u64],
    pipeline: Pipeline,
    hello_seed: u64,
) -> (SyncFacts, Vec<u64>, Vec<u64>, bool) {
    let mut facts = SyncFacts::default();
    let mut frame_bytes = FrameBytes::new();
    let bytes = &mut frame_bytes;
    let cfg: PbsConfig = ClientConfig::default().pbs;
    tr.next_session();
    let root = tr.enter("session.full_sync");

    // ---- Handshake ----
    let requested = match pipeline {
        Pipeline::Auto => u8::MAX as u32,
        Pipeline::Depth(depth) => depth.max(1),
    };
    let hello = Hello::from_config(&cfg, hello_seed, 0)
        .with_store(String::new())
        .with_pipeline(requested);
    let Frame::Hello(mut negotiated) = ship!(tr, bytes, "hello", &Frame::Hello(hello)) else {
        unreachable!("a Hello decodes to a Hello")
    };
    negotiated.pipeline = negotiated.pipeline.max(1).min(PIPELINE_GRANT as u8);
    let Frame::Hello(negotiated) = ship!(tr, bytes, "hello", &Frame::Hello(negotiated)) else {
        unreachable!("a Hello decodes to a Hello")
    };
    let grant = requested.min(negotiated.pipeline as u32);

    // ---- Estimate: server snapshots while the client builds its bank ----
    let (snapshot, snapshot_epoch) = tr.leaf("store.snapshot", || store.epoch_snapshot());
    let est_seed = xhash::derive_seed(hello_seed, ESTIMATOR_SEED_SALT);
    let mut client_bank = TowEstimator::new(cfg.estimator_sketches, est_seed);
    tr.leaf("estimator.tow_insert_client", || {
        client_bank.insert_slice(client_set)
    });
    let bank_bytes = tr.leaf("estimator.tow_codec", || client_bank.to_bytes());
    let Frame::EstimatorExchange(EstimatorMsg::TowBank(bank_bytes)) = ship!(
        tr,
        bytes,
        "estimator",
        &Frame::EstimatorExchange(EstimatorMsg::TowBank(bank_bytes))
    ) else {
        unreachable!("a TowBank decodes to a TowBank")
    };
    let received_bank = tr
        .leaf("estimator.tow_codec", || {
            TowEstimator::from_bytes(&bank_bytes)
        })
        .expect("a bank just serialized deserializes");
    let mut own = TowEstimator::new(cfg.estimator_sketches, est_seed);
    tr.leaf("estimator.tow_insert_server", || {
        own.insert_slice(&snapshot)
    });
    let d_hat = tr.leaf("estimator.estimate", || received_bank.estimate(&own));
    let d_param = estimator::inflate_estimate(d_hat) as u64;
    ship!(
        tr,
        bytes,
        "estimator",
        &Frame::EstimatorExchange(EstimatorMsg::Estimate { d_param, d_hat })
    );
    facts.d_param = d_param;

    // ---- Both sides plan and partition (concurrently, in a real session) ----
    let params = tr.leaf("analysis.plan.client", || {
        Pbs::new(cfg).plan(d_param as usize)
    });
    let mut alice = tr.leaf("core.alice_new", || {
        AliceSession::new(cfg, params, client_set, hello_seed)
    });
    let server_params = tr.leaf("analysis.plan.server", || {
        Pbs::new(cfg).plan(d_param as usize)
    });
    let mut bob = tr.leaf("core.bob_new", || {
        BobSession::new(cfg, server_params, &snapshot, hello_seed)
    });
    drop(snapshot);
    facts.groups = params.groups;

    // ---- Round loop ----
    let mut verified = false;
    while alice.round() < ROUND_CAP {
        let depth = match pipeline {
            Pipeline::Auto => alice.next_pipeline_depth(grant),
            Pipeline::Depth(_) => grant,
        };
        let layers = depth.min(ROUND_CAP - alice.round());
        let batch = tr.leaf("core.encode", || alice.start_rounds(layers));
        // The payload codec on its own; the frame spans below contain it.
        tr.leaf("core.wire_codec", || {
            let encoded = pbs_core::wire::encode_sketches(&batch, params.m);
            pbs_core::wire::decode_sketches(&encoded).map(|decoded| decoded.len())
        })
        .expect("sketches round-trip");
        let Frame::Sketches { batch, .. } = ship!(
            tr,
            bytes,
            "sketches",
            &Frame::Sketches { m: params.m, batch }
        ) else {
            unreachable!("Sketches decode to Sketches")
        };
        let reports = tr.leaf("core.bob_decode", || bob.handle_sketches(&batch));
        tr.leaf("core.wire_codec", || {
            let encoded = pbs_core::wire::encode_reports(&reports);
            pbs_core::wire::decode_reports(&encoded).map(|decoded| decoded.len())
        })
        .expect("reports round-trip");
        let Frame::Reports(reports) = ship!(tr, bytes, "reports", &Frame::Reports(reports)) else {
            unreachable!("Reports decode to Reports")
        };
        let status = tr.leaf("core.apply", || alice.apply_reports(&reports));
        if status.all_verified {
            verified = true;
            break;
        }
    }
    facts.round_trips = alice.round_trips();
    facts.fakes_rejected = alice.fakes_rejected();
    facts.decode_failures = bob.decode_failures();

    // ---- Final transfer ----
    // `client::sync` has no public function for this step; the replay
    // re-enacts it (holdings set, recovered ∩ holdings) under `client.glue`.
    let (recovered, pushed) = tr.leaf("client.glue", || {
        let holdings: HashSet<u64> = client_set.iter().copied().collect();
        let recovered = alice.into_recovered();
        let pushed: Vec<u64> = recovered
            .iter()
            .copied()
            .filter(|e| holdings.contains(e))
            .collect();
        (recovered, pushed)
    });
    let Frame::Done(elements) = ship!(tr, bytes, "done", &Frame::Done(pushed.clone())) else {
        unreachable!("Done decodes to Done")
    };
    tr.leaf("store.apply_missing", || store.apply_missing(&elements));
    ship!(
        tr,
        bytes,
        "delta_done",
        &Frame::DeltaDone {
            epoch: snapshot_epoch.unwrap_or(0)
        }
    );
    tr.exit(root);
    facts.frame_bytes = frame_bytes;
    (facts, recovered, pushed, verified)
}

/// Replay one write batch and the delta catch-up it triggers.
fn replay_write(
    tr: &mut Tracer,
    store: &MutableStore,
    cached_epoch: u64,
    added: &[u64],
    removed: &[u64],
    bytes: &mut FrameBytes,
) -> (u64, bool) {
    tr.next_session();
    let root = tr.enter("session.write_catch_up");
    tr.leaf("store.apply", || store.apply(added, removed));

    let config = ClientConfig::default();
    let hello = Hello::from_config(&config.pbs, config.seed, 0)
        .with_store(String::new())
        .with_pipeline(1)
        .with_delta_epoch(cached_epoch);
    let Frame::Hello(hello) = ship!(tr, bytes, "hello", &Frame::Hello(hello)) else {
        unreachable!("a Hello decodes to a Hello")
    };
    ship!(tr, bytes, "hello", &Frame::Hello(hello.clone()));
    let answer = tr.leaf("store.changes_since", || {
        store.delta_since(hello.delta_epoch.unwrap_or(0))
    });
    let DeltaAnswer::Changes { batches, current } = answer else {
        tr.exit(root);
        return (store.epoch(), false);
    };
    let capacity = delta_chunk_capacity(DEFAULT_MAX_FRAME);
    let mut fold = DeltaFold::new();
    for batch in &batches {
        for frame in delta_batch_frames(batch.epoch, &batch.added, &batch.removed, capacity) {
            if let Frame::DeltaBatch { added, removed, .. } =
                ship!(tr, bytes, "delta_batch", &frame)
            {
                tr.leaf("client.delta_fold", || fold.fold(added, removed));
            }
        }
    }
    ship!(
        tr,
        bytes,
        "delta_done",
        &Frame::DeltaDone { epoch: current }
    );
    let report = tr.leaf("client.delta_fold", || {
        fold.into_report(cached_epoch, current)
    });
    tr.exit(root);
    let mut want_added = added.to_vec();
    let mut want_removed = removed.to_vec();
    want_added.sort_unstable();
    want_removed.sort_unstable();
    (
        current,
        report.added == want_added && report.removed == want_removed,
    )
}

/// Replay cycles of workload `w` for about `seconds` (at least one cycle),
/// with spans recorded (`traced`) or not.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    traced: bool,
) -> std::io::Result<Replay> {
    let dir = scratch.join("replay-store");
    let inputs = Inputs::generate(seed, w.store_len, w.extra);
    let store = build_store(w, &inputs, &dir)?;
    store.compact_now()?;
    // A store registered with a server always has its instruments attached;
    // give the replayed one the same, which also counts its compactions.
    let registry = obs::Registry::new();
    store.attach_metrics(&registry, "replay");
    let compactions = registry.histogram(
        "pbs_store_compaction_seconds",
        "",
        &[("store", "replay")],
        1e-9,
    );

    let mut tr = Tracer::new(traced);
    let mut checks = Checks::default();
    let mut syncs = Vec::new();
    let mut delta_frame_bytes = FrameBytes::new();
    let mut window = 0usize;
    let mut change_bytes = 0u64;
    let wchar_before = bytes_written_to_files();
    let clock = Instant::now();
    let mut cycle_s = Vec::new();
    loop {
        let number = cycle_s.len() as u64 + 1;
        let (client_set, truth) = inputs.sync_case(window, w.miss, number);
        let cycle_clock = Instant::now();
        let (facts, mut recovered, mut pushed, verified) = replay_sync(
            &mut tr,
            &store,
            &client_set,
            w.pipeline,
            seed.wrapping_add(number),
        );
        drop(client_set);
        recovered.sort_unstable();
        pushed.sort_unstable();
        let mut extras = inputs.extras.clone();
        extras.sort_unstable();
        checks.record(verified && recovered == truth && pushed == extras, || {
            format!(
                "replayed sync {number}: verified={verified} recovered={} of {}",
                recovered.len(),
                truth.len()
            )
        });
        syncs.push(facts);
        store.apply(&[], &inputs.extras);

        let mut cached_epoch = store.epoch();
        for i in 0..w.churn_per_cycle {
            let (added, removed) = inputs.slide(window, CHURN_STEP);
            let mut bytes = FrameBytes::new();
            let (epoch, ok) =
                replay_write(&mut tr, &store, cached_epoch, &added, &removed, &mut bytes);
            checks.record(ok, || {
                format!("replayed delta catch-up from epoch {cached_epoch}")
            });
            cached_epoch = epoch;
            window += CHURN_STEP;
            change_bytes += 4 * (added.len() + removed.len()) as u64;
            if cycle_s.is_empty() && i == 0 {
                delta_frame_bytes = bytes;
            }
        }
        cycle_s.push(cycle_clock.elapsed().as_secs_f64());
        if clock.elapsed().as_secs_f64() + cycle_s[cycle_s.len() - 1] > seconds {
            break;
        }
    }
    let file_bytes_written = bytes_written_to_files().saturating_sub(wchar_before);
    let snapshots = compactions.count();
    drop(store);
    if w.durable {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(Replay {
        tracer: tr,
        syncs,
        delta_frame_bytes,
        cycle_s,
        file_bytes_written,
        change_bytes,
        snapshots,
        checks,
    })
}
