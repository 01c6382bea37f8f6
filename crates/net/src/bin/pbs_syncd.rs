//! `pbs-syncd` — the multi-store PBS reconciliation session server.
//!
//! ```text
//! pbs-syncd [--listen ADDR] [--set-file PATH | --range N]
//!           [--store NAME=SPEC]... [--watch-dir DIR [--watch-every SECS]]
//!           [--changelog-cap N] [--data-dir DIR] [--snapshot-every N]
//!           [--fsync] [--event-workers W] [--max-subscribers N]
//!           [--round-cap R] [--max-pipeline L]
//!           [--stats-every SECS] [--admin ADDR] [--log json|text]
//!           [--trace-sample R]
//!           [--anti-entropy PEER[,PEER...] [--anti-entropy-every SECS]
//!            [--anti-entropy-seed N]]
//! ```
//!
//! Serves the `docs/WIRE.md` protocol. One process serves any number of
//! named stores; each client selects one with the store name in its
//! `Hello`. Sources of stores:
//!
//! * `--set-file PATH` / `--range N` — the **default** store (the one the
//!   empty name routes to).
//! * `--store NAME=SPEC` — a named store; `SPEC` is a set-file path or
//!   `range:N` for a deterministic demo set.
//! * `--watch-dir DIR` — every `*.set` file in `DIR` becomes a live
//!   [`pbs_net::store::MutableStore`] named after the file stem. The directory is polled
//!   every `--watch-every` seconds (default 5); edits to a file are
//!   applied to its store as an epoch-stamped change batch between
//!   sessions, and new files become new stores without a restart.
//!
//! Every store — default, named, watched — is a
//! [`pbs_net::store::MutableStore`] and serves the **delta-subscription**
//! path: a returning client carrying the epoch of its previous sync
//! receives exactly the changes since it. `--changelog-cap N` sets how many
//! change batches each store retains (default 1024) — a client older than
//! the retained window is told to run a full reconciliation instead; 0
//! disables the delta feed entirely.
//!
//! **Durability** (`--data-dir DIR`): every store becomes persistent:
//! effective change batches are written ahead to a per-store WAL under
//! `DIR` before memory is mutated, compacted into snapshots every
//! `--snapshot-every` batches, and recovered (tolerating torn WAL tails) on
//! restart, so store epochs continue exactly where they left off and
//! surviving client `--epoch-cache` baselines stay warm. Without
//! `--data-dir` everything is in-memory and starts over at epoch 0.
//!
//! Every store also serves **live subscriptions**: a client that sends a
//! `Subscribe` frame after its delta catch-up stays connected and has
//! every further change batch pushed to it as the store mutates
//! (`pbs-sync --follow`). `--event-workers W` sizes the event-loop worker
//! pool each connection is multiplexed onto; `--max-subscribers N` caps
//! concurrently parked subscribers server-wide.
//!
//! A numeric flag whose value does not parse is a usage error (exit 2).
//!
//! **Anti-entropy mesh** (`--anti-entropy PEER[,PEER…]`): the node also
//! takes the *client role*, periodically reconciling every local store
//! pairwise against each listed peer with the ordinary wire protocol and
//! applying what the peer had that this node lacked. The applies are
//! normal epoch-advancing change batches, so local subscribers see
//! remotely-originated elements pushed live, and the stores of a connected
//! mesh converge to the union without any coordinator.
//! `--anti-entropy-every SECS` paces the rotation (default 5, ±25 % seeded
//! jitter), `--anti-entropy-seed N` pins it for reproducible soaks; the
//! main thread runs the rounds, between its stats lines.
//!
//! **Observability**: `--admin ADDR` binds an HTTP endpoint serving
//! `GET /metrics` (Prometheus text format), `GET /healthz` (`503` once
//! shutdown begins), and `GET /stats.json`; the metric catalog is in
//! `docs/OBSERVABILITY.md`. `--log json|text` turns on structured
//! per-session trace events on stderr, `--trace-sample R` keeps only the
//! fraction `R` of sessions (deterministic by session id, default 1.0).
//!
//! Per-store and server-wide stats are printed every `--stats-every`
//! seconds (`--stats-every 0` disables the stats line entirely — scrape
//! `--admin` instead) and the process runs until killed.

use obs::trace::{Level, TraceConfig, TraceFormat};
use pbs_net::admin::{AdminServer, AdminState};
use pbs_net::mesh::{anti_entropy_round, MeshConfig, MeshSchedule, MeshStats};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::setio;
use pbs_net::store::StoreRegistry;
use pbs_net::wal::{DurableOptions, DEFAULT_SNAPSHOT_EVERY};
use pbs_net::watch::DirWatcher;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    listen: String,
    set_file: Option<PathBuf>,
    range: Option<usize>,
    stores: Vec<(String, String)>,
    watch_dir: Option<PathBuf>,
    watch_every: u64,
    changelog_cap: usize,
    data_dir: Option<PathBuf>,
    snapshot_every: usize,
    fsync: bool,
    workers: Option<usize>,
    max_subscribers: Option<usize>,
    round_cap: Option<u32>,
    max_pipeline: Option<u32>,
    stats_every: u64,
    admin: Option<String>,
    log: Option<String>,
    trace_sample: f64,
    anti_entropy: Vec<String>,
    anti_entropy_every: u64,
    anti_entropy_seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: pbs-syncd [--listen ADDR] [--set-file PATH | --range N] \
         [--store NAME=SPEC]... [--watch-dir DIR [--watch-every SECS]] \
         [--changelog-cap N] [--data-dir DIR] [--snapshot-every N] [--fsync] \
         [--event-workers W] [--max-subscribers N] [--round-cap R] \
         [--max-pipeline L] [--stats-every SECS] \
         [--admin ADDR] [--log json|text] [--trace-sample R] \
         [--anti-entropy PEER[,PEER...]] [--anti-entropy-every SECS] \
         [--anti-entropy-seed N]\n\
         SPEC is a set-file path or range:N; at least one store is required\n\
         --stats-every 0 disables the periodic stats line; --admin serves \
         GET /metrics, /healthz, /stats.json\n\
         --anti-entropy gives the node a client role: every local store is \
         periodically reconciled pairwise against each PEER"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7171".into(),
        set_file: None,
        range: None,
        stores: Vec::new(),
        watch_dir: None,
        watch_every: 5,
        changelog_cap: pbs_net::store::DEFAULT_CHANGELOG_CAPACITY,
        data_dir: None,
        snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        fsync: false,
        workers: None,
        max_subscribers: None,
        round_cap: None,
        max_pipeline: None,
        stats_every: 30,
        admin: None,
        log: None,
        trace_sample: 1.0,
        anti_entropy: Vec::new(),
        anti_entropy_every: 5,
        anti_entropy_seed: 0xA17E_E471,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--listen" => args.listen = value(),
            "--set-file" => args.set_file = Some(PathBuf::from(value())),
            "--range" => args.range = Some(value().parse().unwrap_or_else(|_| usage())),
            "--store" => {
                let spec = value();
                let Some((name, source)) = spec.split_once('=') else {
                    usage()
                };
                args.stores.push((name.to_string(), source.to_string()));
            }
            "--watch-dir" => args.watch_dir = Some(PathBuf::from(value())),
            "--watch-every" => args.watch_every = value().parse().unwrap_or_else(|_| usage()),
            "--changelog-cap" => args.changelog_cap = value().parse().unwrap_or_else(|_| usage()),
            "--data-dir" => args.data_dir = Some(PathBuf::from(value())),
            "--snapshot-every" => args.snapshot_every = value().parse().unwrap_or_else(|_| usage()),
            "--fsync" => args.fsync = true,
            "--event-workers" => args.workers = Some(value().parse().unwrap_or_else(|_| usage())),
            "--max-subscribers" => {
                args.max_subscribers = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--round-cap" => args.round_cap = Some(value().parse().unwrap_or_else(|_| usage())),
            "--max-pipeline" => {
                args.max_pipeline = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--stats-every" => args.stats_every = value().parse().unwrap_or_else(|_| usage()),
            "--admin" => args.admin = Some(value()),
            "--log" => args.log = Some(value()),
            "--trace-sample" => args.trace_sample = value().parse().unwrap_or_else(|_| usage()),
            "--anti-entropy" => args.anti_entropy.extend(
                value()
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(str::to_string),
            ),
            "--anti-entropy-every" => {
                args.anti_entropy_every = value().parse().unwrap_or_else(|_| usage())
            }
            "--anti-entropy-seed" => {
                args.anti_entropy_seed = value().parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    args
}

/// Load a `--store` SPEC: a set-file path or `range:N`.
fn load_spec(name: &str, spec: &str) -> Vec<u64> {
    if let Some(n) = spec.strip_prefix("range:") {
        let Ok(n) = n.parse::<usize>() else { usage() };
        // Salt the demo set by store name so two range stores differ.
        let salt = name.bytes().fold(0xB0Bu64, |acc, b| {
            acc.wrapping_mul(31).wrapping_add(b as u64)
        });
        return setio::demo_set(n, salt);
    }
    let path = PathBuf::from(spec);
    setio::load_set(&path).unwrap_or_else(|e| {
        eprintln!("pbs-syncd: cannot load {}: {e}", path.display());
        std::process::exit(1);
    })
}

/// Register one fixed (non-watched) store holding `elements`: what the
/// store opened with (under `--data-dir`, its recovered state) is converged
/// on them with one diff batch, so a restart with unchanged contents is a
/// no-op and epochs continue.
fn register_fixed_store(
    registry: &StoreRegistry,
    name: &str,
    elements: Vec<u64>,
    options: DurableOptions,
) {
    let (store, _) = registry.open_store(name, options).unwrap_or_else(|e| {
        eprintln!("pbs-syncd: cannot open store {name:?}: {e}");
        std::process::exit(1);
    });
    if store.converge_to(elements).is_some() {
        // Fold the (possibly large) seed batch into a snapshot so the next
        // restart recovers from one file instead of replaying it.
        if let Err(e) = store.compact_now() {
            eprintln!("pbs-syncd: snapshot of store {name:?} failed: {e}");
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(log) = &args.log {
        let format = match log.as_str() {
            "json" => TraceFormat::Json,
            "text" => TraceFormat::Text,
            _ => usage(),
        };
        obs::trace::init(TraceConfig {
            format,
            level: Level::Info,
            sample: args.trace_sample,
        });
    }
    let registry = Arc::new(StoreRegistry::new());
    if let Some(dir) = &args.data_dir {
        registry.set_persistence_root(dir);
    }
    let options = DurableOptions {
        log_capacity: args.changelog_cap,
        snapshot_every: args.snapshot_every,
        sync_writes: args.fsync,
    };

    // Default store from --set-file / --range.
    match (&args.set_file, args.range) {
        (Some(path), None) => {
            let elements = setio::load_set(path).unwrap_or_else(|e| {
                eprintln!("pbs-syncd: cannot load {}: {e}", path.display());
                std::process::exit(1);
            });
            register_fixed_store(&registry, "", elements, options);
        }
        (None, Some(n)) => {
            register_fixed_store(&registry, "", setio::demo_set(n, 0xB0B), options);
        }
        (None, None) => {}
        _ => usage(),
    }
    // Named stores.
    for (name, spec) in &args.stores {
        register_fixed_store(&registry, name, load_spec(name, spec), options);
    }
    // Watched stores: one synchronous scan so they exist before we listen,
    // then a poller thread keeps them live.
    if let Some(dir) = &args.watch_dir {
        let mut watcher = DirWatcher::new(dir, Arc::clone(&registry), options);
        watcher.scan();
        let every = Duration::from_secs(args.watch_every.max(1));
        std::thread::Builder::new()
            .name("pbs-syncd-watch".into())
            .spawn(move || loop {
                std::thread::sleep(every);
                watcher.scan();
            })
            .expect("spawn watch thread");
    }
    if registry.is_empty() {
        usage();
    }
    for name in registry.names() {
        let entry = registry.get(&name).expect("just listed");
        println!(
            "pbs-syncd: serving store {} with {} elements",
            if name.is_empty() { "(default)" } else { &name },
            entry.store().element_count()
        );
    }

    let mut config = ServerConfig::default();
    if let Some(w) = args.workers {
        config.workers = w.max(1);
    }
    if let Some(n) = args.max_subscribers {
        config.max_subscribers = n;
    }
    if let Some(r) = args.round_cap {
        config.round_cap = r.max(1);
    }
    if let Some(l) = args.max_pipeline {
        config.max_pipeline_depth = l.max(1);
    }

    let server =
        Server::bind_registry(&args.listen, Arc::clone(&registry), config).unwrap_or_else(|e| {
            eprintln!("pbs-syncd: cannot bind {}: {e}", args.listen);
            std::process::exit(1);
        });
    println!(
        "pbs-syncd: listening on {} (protocol v{}, {} stores)",
        server.local_addr(),
        pbs_net::PROTOCOL_VERSION,
        registry.len()
    );

    // Anti-entropy client role: every local store reconciled against each
    // peer on a seeded, jittered rotation, run by the loop below.
    let mut mesh = (!args.anti_entropy.is_empty()).then(|| {
        println!(
            "pbs-syncd: anti-entropy mesh with {} peer(s) every ~{}s (seed {:#x}): {}",
            args.anti_entropy.len(),
            args.anti_entropy_every.max(1),
            args.anti_entropy_seed,
            args.anti_entropy.join(", ")
        );
        let config = MeshConfig {
            peers: args.anti_entropy.clone(),
            interval: Duration::from_secs(args.anti_entropy_every.max(1)),
            seed: args.anti_entropy_seed,
            ..MeshConfig::default()
        };
        let stats = MeshStats::registered(&registry.metrics(), &config.peers);
        (MeshSchedule::new(&config, Instant::now()), stats, config)
    });

    // Keep the admin endpoint alive for the life of the process: dropping
    // the handle would stop its listener thread.
    let _admin = args.admin.as_ref().map(|addr| {
        let admin = AdminServer::bind(addr.as_str(), AdminState::of(&server)).unwrap_or_else(|e| {
            eprintln!("pbs-syncd: cannot bind admin endpoint {addr}: {e}");
            std::process::exit(1);
        });
        println!(
            "pbs-syncd: admin endpoint on http://{}/metrics",
            admin.local_addr()
        );
        admin
    });

    let stats = server.stats();
    // Sleep until a stats line (none with --stats-every 0: scrape --admin)
    // or a mesh round is due. Ticks are anchored to an absolute schedule,
    // so rounds, store walks and printing do not drift the cadence.
    let period = Duration::from_secs(args.stats_every);
    let mut next_tick = (args.stats_every > 0).then(|| Instant::now() + period);
    loop {
        let round = mesh.as_ref().and_then(|(schedule, ..)| schedule.due());
        match next_tick.into_iter().chain(round).min() {
            Some(wake) => std::thread::sleep(wake.saturating_duration_since(Instant::now())),
            None => std::thread::park(),
        }
        if let Some((schedule, peers, config)) = &mut mesh {
            while let Some(p) = schedule.next(Instant::now()) {
                anti_entropy_round(&registry, &config.peers[p], &config.client, peers.peer(p));
            }
        }
        let Some(tick) = next_tick.as_mut().filter(|tick| **tick <= Instant::now()) else {
            continue;
        };
        // A walk slower than the period skips ticks instead of bursting.
        while *tick <= Instant::now() {
            *tick += period;
        }
        let s = stats.snapshot();
        println!(
            "pbs-syncd: total: sessions {}/{} ok (failed {}), rounds {} in {} trips, \
             bytes in/out {}/{}, decode failures {}, elements ingested {}, \
             delta {} served / {} resyncs ({} elements)",
            s.sessions_completed,
            s.sessions_started,
            s.sessions_failed,
            s.rounds,
            s.round_trips,
            s.bytes_in,
            s.bytes_out,
            s.decode_failures,
            s.elements_received,
            s.delta_sessions,
            s.delta_fallbacks,
            s.delta_elements,
        );
        println!(
            "pbs-syncd: push: {} subscriptions, {} batches / {} elements pushed, \
             {} evicted, {} keepalive pings",
            s.subscriptions,
            s.push_batches,
            s.push_elements,
            s.subscribers_evicted,
            s.keepalive_pings,
        );
        if let Some((_, mesh, _)) = &mesh {
            for (addr, peer) in mesh.snapshot() {
                println!(
                    "pbs-syncd:   peer {}: syncs {}/{} ok (failed {}), \
                     bytes out/in {}/{}, elements pulled {} / pushed {}",
                    addr,
                    peer.syncs_completed,
                    peer.syncs_attempted,
                    peer.syncs_failed,
                    peer.bytes_sent,
                    peer.bytes_received,
                    peer.elements_pulled,
                    peer.elements_pushed,
                );
            }
        }
        for name in registry.names() {
            let Some(entry) = registry.get(&name) else {
                continue;
            };
            let p = entry.stats().snapshot();
            println!(
                "pbs-syncd:   store {}: sessions {}/{} ok, rounds {} in {} trips, \
                 ingested {}, delta {} served / {} resyncs, size {}",
                if name.is_empty() { "(default)" } else { &name },
                p.sessions_completed,
                p.sessions_started,
                p.rounds,
                p.round_trips,
                p.elements_received,
                p.delta_sessions,
                p.delta_fallbacks,
                entry.store().element_count(),
            );
        }
    }
}
