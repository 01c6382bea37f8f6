//! `pbs-loadgen` — open-loop load generator for `pbs-syncd`.
//!
//! ```text
//! pbs-loadgen (--target ADDR --range N | --self-host N)
//!             [--sessions N] [--rate R] [--mix F:D:P:S] [--seed S]
//!             [--workers W] [--drops K] [--store NAME]
//!             [--park-hold SECS] [--deadline SECS] [--json PATH|-]
//! ```
//!
//! Drives `--sessions` sessions at an offered rate of `--rate`/s with
//! seeded jitter (open-loop: arrivals never wait for completions), mixed
//! across full reconciliations, delta catch-ups, pipelined syncs, and
//! parked `Subscribe` streams per `--mix` (weights
//! `full:delta:pipelined:subscribe`). Reports per-phase p50/p99/p999
//! latency, achieved vs offered rate, bytes/sec, and exact
//! `started == completed + failed + evicted` accounting — as a table on
//! stdout and, with `--json`, as a machine-readable document.
//!
//! Two ways to find a server:
//!
//! * `--target ADDR --range N` — an external `pbs-syncd` started with
//!   `--range N` (the harness must know the server's set to parameterize
//!   full reconciliations; `--range` mirrors the server flag exactly).
//! * `--self-host N` — bind an in-process server over an `N`-element
//!   demo store, sized for the run (subscriber cap above the session
//!   count). The loopback mode CI smoke-runs.
//!
//! The master seed is printed on start: replaying
//! with the same `--seed` reproduces the identical arrival schedule and
//! workload mix — the determinism `tests/determinism.rs` pins.

use loadgen::{build_plan, Engine, EngineConfig, Mix, PlanConfig, Report};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::MutableStore;
use pbs_net::{setio, ClientConfig};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    target: Option<String>,
    range: Option<usize>,
    self_host: Option<usize>,
    sessions: usize,
    rate: f64,
    mix: Mix,
    seed: u64,
    workers: usize,
    drops: usize,
    store: String,
    park_hold: u64,
    deadline: u64,
    json: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pbs-loadgen (--target ADDR --range N | --self-host N) \
         [--sessions N] [--rate R] [--mix F:D:P:S] [--seed S] [--workers W] \
         [--drops K] [--store NAME] [--park-hold SECS] [--deadline SECS] \
         [--json PATH|-]\n\
         --mix weights full:delta:pipelined:subscribe (default 10:30:10:50)\n\
         --range N must match the server's --range N so full syncs are \
         parameterized correctly"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        target: None,
        range: None,
        self_host: None,
        sessions: 1000,
        rate: 500.0,
        mix: Mix::default(),
        seed: 0x10AD_0001,
        workers: 4,
        drops: 8,
        store: String::new(),
        park_hold: 0,
        deadline: 60,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--target" => args.target = Some(value()),
            "--range" => args.range = Some(value().parse().unwrap_or_else(|_| usage())),
            "--self-host" => args.self_host = Some(value().parse().unwrap_or_else(|_| usage())),
            "--sessions" => args.sessions = value().parse().unwrap_or_else(|_| usage()),
            "--rate" => args.rate = value().parse().unwrap_or_else(|_| usage()),
            "--mix" => args.mix = Mix::parse(&value()).unwrap_or_else(|| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = value().parse().unwrap_or_else(|_| usage()),
            "--drops" => args.drops = value().parse().unwrap_or_else(|_| usage()),
            "--store" => args.store = value(),
            "--park-hold" => args.park_hold = value().parse().unwrap_or_else(|_| usage()),
            "--deadline" => args.deadline = value().parse().unwrap_or_else(|_| usage()),
            "--json" => args.json = Some(value()),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.rate <= 0.0 || args.sessions == 0 {
        usage();
    }

    // Resolve the server: external or self-hosted.
    let (target, base_set, delta_epoch, _server): (SocketAddr, Arc<Vec<u64>>, u64, Option<Server>) =
        match (&args.target, args.self_host) {
            (Some(addr), None) => {
                let Some(n) = args.range else { usage() };
                let target = addr
                    .to_socket_addrs()
                    .ok()
                    .and_then(|mut a| a.next())
                    .unwrap_or_else(|| {
                        eprintln!("pbs-loadgen: cannot resolve {addr}");
                        std::process::exit(1);
                    });
                // The server's set (pbs-syncd --range N salts the default
                // demo store with 0xB0B). One probe sync with the exact set
                // (d = 0) learns the store's current epoch without mutating
                // it — the baseline delta and subscribe sessions carry.
                let base: Vec<u64> = setio::demo_set(n, 0xB0B);
                let probe = pbs_net::SyncClient::connect(target)
                    .and_then(|c| c.store(args.store.clone()).sync(&base))
                    .unwrap_or_else(|e| {
                        eprintln!("pbs-loadgen: probe sync against {target} failed: {e}");
                        std::process::exit(1);
                    });
                (target, Arc::new(base), probe.epoch.unwrap_or(0), None)
            }
            (None, Some(n)) => {
                let base: Vec<u64> = setio::demo_set(n, 0xB0B);
                let store = Arc::new(MutableStore::new(base.iter().copied()));
                let epoch = store.epoch();
                let server = Server::bind(
                    "127.0.0.1:0",
                    Arc::clone(&store) as Arc<_>,
                    ServerConfig {
                        max_subscribers: args.sessions.max(1024) * 2,
                        ..ServerConfig::default()
                    },
                )
                .unwrap_or_else(|e| {
                    eprintln!("pbs-loadgen: cannot bind self-hosted server: {e}");
                    std::process::exit(1);
                });
                let addr = server.local_addr();
                println!("pbs-loadgen: self-hosting {n}-element store on {addr}");
                (addr, Arc::new(base), epoch, Some(server))
            }
            _ => usage(),
        };

    let plan_config = PlanConfig {
        sessions: args.sessions,
        rate: args.rate,
        mix: args.mix,
        seed: args.seed,
    };
    println!(
        "pbs-loadgen: seed {:#x} ({} sessions at {:.0}/s offered, mix {}:{}:{}:{})",
        args.seed,
        args.sessions,
        args.rate,
        args.mix.full,
        args.mix.delta,
        args.mix.pipelined,
        args.mix.subscribe
    );
    let plan = build_plan(&plan_config);

    let client = ClientConfig {
        store: args.store.clone(),
        session_deadline: Duration::from_secs(args.deadline.max(1)),
        ..ClientConfig::default()
    };
    let mut engine = Engine::start(EngineConfig {
        target,
        workers: args.workers.max(1),
        client,
        base_set,
        drops: args.drops.max(1),
        delta_epoch,
    })
    .unwrap_or_else(|e| {
        eprintln!("pbs-loadgen: cannot start engine: {e}");
        std::process::exit(1);
    });

    let started = Instant::now();
    engine.run_plan(&plan, started);
    let (metrics, elapsed) = engine.drain(
        Duration::from_secs(args.deadline.max(1) + 10),
        Duration::from_secs(args.park_hold),
    );
    let report = Report::build(&metrics, &plan_config, elapsed);
    print!("{}", report.table());
    if let Some(path) = &args.json {
        let json = report.json();
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("pbs-loadgen: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if !report.settled() {
        eprintln!(
            "pbs-loadgen: accounting violation: {} started != {} completed + {} failed + {} evicted",
            report.counts.started, report.counts.completed, report.counts.failed, report.counts.evicted
        );
        std::process::exit(1);
    }
}
