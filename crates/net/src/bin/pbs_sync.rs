//! `pbs-sync` — the PBS reconciliation client.
//!
//! ```text
//! pbs-sync --connect ADDR (--set-file PATH | --range N [--drop K])
//!          [--store NAME] [--pipeline L|auto]
//!          [--since EPOCH | --epoch-cache FILE]
//!          [--retry N [--retry-base-ms MS]]
//!          [--d D] [--seed S] [--quiet]
//! ```
//!
//! Reconciles the local set against a `pbs-syncd` server: learns `A△B`,
//! pushes `A \ B` to the server, and prints what the wire carried. With
//! `--range N --drop K` the local set is the server's `--range N` demo set
//! minus its first `K` elements — an instant end-to-end smoke test.
//! `--seed S` is the session seed the client *proposes*; a server whose
//! store keeps a view of its set laid out under a seed answers with that
//! one, the session runs under it, and the summary line prints it.
//! `--store NAME` addresses one of a multi-store server's named sets;
//! `--pipeline L` packs `L` protocol rounds into each round trip, and
//! `--pipeline auto` lets the session price each trip's speculative layers
//! against the sketch bytes it has already sent: a dense first trip goes
//! out once, the sparse trips after it (and any trip that fits one TCP
//! segment) are pipelined up to the server's grant. It saves round trips
//! per byte, not round trips at any price; the `rounds:` line prints what
//! was speculated and how much of it was used.
//!
//! `--since EPOCH` asks the server for a **delta subscription**: if the
//! store's changelog still covers that epoch the server streams exactly
//! the changes since it instead of reconciling. `--epoch-cache FILE`
//! automates the epoch bookkeeping: the file (one per store) holds the
//! epoch of the previous sync; it is read as `--since` and rewritten with
//! the new baseline after every successful sync — so the first run is a
//! full reconciliation and every later run a delta. The cache write is
//! atomic (temp file + rename): a crash mid-write can never leave a
//! corrupt baseline that wedges the next `--since`.
//!
//! `--retry N` rides out transient connect/IO failures (a restarting
//! server, a reset connection) with up to `N` attempts under exponential
//! backoff + jitter, starting from `--retry-base-ms` (default 100).
//! Protocol errors never retry.
//!
//! `--follow` keeps the connection open as a **live subscription**: after
//! establishing an epoch baseline (from `--since`/`--epoch-cache`, or by
//! running one full sync first), every further store mutation the server
//! commits is pushed down and printed as it happens, one line per delta
//! stream; the epoch cache (when configured) is rewritten for the
//! baseline and then *before* each delta is printed, so a follow
//! interrupted at any instant — even right as the server closes after a
//! final delta — resumes exactly where it stopped.
//! The process exits 0 when the server closes the stream (shutdown) and
//! non-zero when the subscription fails or is evicted.
//!
//! A numeric flag whose value does not parse is a usage error (exit 2).

use pbs_net::client::{sync_with_retry, ClientConfig, Pipeline, RetryPolicy, SyncClient};
use pbs_net::setio;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    connect: String,
    set_file: Option<PathBuf>,
    range: Option<usize>,
    drop: usize,
    store: String,
    pipeline: Pipeline,
    since: Option<u64>,
    epoch_cache: Option<PathBuf>,
    retry: u32,
    retry_base_ms: u64,
    d: Option<u64>,
    seed: u64,
    quiet: bool,
    follow: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: pbs-sync --connect ADDR (--set-file PATH | --range N [--drop K]) \
         [--store NAME] [--pipeline L|auto] \
         [--since EPOCH | --epoch-cache FILE] [--follow] \
         [--retry N [--retry-base-ms MS]] \
         [--d D] [--seed S] [--quiet]\n\
         \x20 --pipeline L     L rounds a round trip: fewer trips for L x the bytes\n\
         \x20 --pipeline auto  speculate only where it is cheap (a trip's extra layers cost\n\
         \x20                  <= one TCP segment or 1/8 of the sketch bytes already sent):\n\
         \x20                  fewest round trips per byte, not fewest at any price"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        connect: String::new(),
        set_file: None,
        range: None,
        drop: 0,
        store: String::new(),
        pipeline: Pipeline::Depth(1),
        since: None,
        epoch_cache: None,
        retry: 1,
        retry_base_ms: 100,
        d: None,
        seed: 0xA11CE,
        quiet: false,
        follow: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--connect" => args.connect = value(),
            "--set-file" => args.set_file = Some(PathBuf::from(value())),
            "--range" => args.range = Some(value().parse().unwrap_or_else(|_| usage())),
            "--drop" => args.drop = value().parse().unwrap_or_else(|_| usage()),
            "--store" => args.store = value(),
            "--pipeline" => {
                let v = value();
                args.pipeline = if v == "auto" {
                    Pipeline::Auto
                } else {
                    Pipeline::Depth(v.parse().unwrap_or_else(|_| usage()))
                };
            }
            "--since" => args.since = Some(value().parse().unwrap_or_else(|_| usage())),
            "--epoch-cache" => args.epoch_cache = Some(PathBuf::from(value())),
            "--retry" => args.retry = value().parse().unwrap_or_else(|_| usage()),
            "--retry-base-ms" => args.retry_base_ms = value().parse().unwrap_or_else(|_| usage()),
            "--d" => args.d = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--quiet" => args.quiet = true,
            "--follow" => args.follow = true,
            _ => usage(),
        }
    }
    if args.connect.is_empty() {
        usage();
    }
    args
}

/// Read a cached epoch: a file holding one decimal epoch number. A missing
/// or unparseable file means "no baseline yet" — the sync runs in full.
fn read_epoch_cache(path: &std::path::Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

/// Persist the epoch baseline (if a cache is configured) — atomically, so
/// a crash mid-write can never leave a torn baseline.
fn write_epoch_cache(args: &Args, epoch: u64) {
    if let Some(path) = &args.epoch_cache {
        if let Err(e) = setio::write_file_atomic(path, format!("{epoch}\n").as_bytes()) {
            eprintln!("pbs-sync: cannot write {}: {e}", path.display());
        }
    }
}

/// `--follow`: establish an epoch baseline, then stream pushed deltas to
/// stdout until the server closes the subscription. Never returns.
fn follow(args: &Args, set: &[u64], config: &ClientConfig, policy: &RetryPolicy) -> ! {
    let baseline = match config.delta_epoch {
        Some(epoch) => epoch,
        None => {
            // No cached epoch yet: one full sync establishes the baseline
            // the subscription resumes from.
            let (report, _) =
                sync_with_retry(&args.connect, set, config, policy).unwrap_or_else(|e| {
                    eprintln!("pbs-sync: {e}");
                    std::process::exit(1);
                });
            let Some(epoch) = report.epoch else {
                eprintln!("pbs-sync: server keeps no epochs for this store; cannot --follow");
                std::process::exit(1);
            };
            // The baseline is durable state: persist it before announcing
            // it, so a crash right here resumes as a delta, not a full
            // resync.
            write_epoch_cache(args, epoch);
            println!(
                "pbs-sync: baseline sync: |A△B| = {}, epoch {epoch}",
                report.recovered.len()
            );
            epoch
        }
    };

    let client = SyncClient::connect(&args.connect)
        .unwrap_or_else(|e| {
            eprintln!("pbs-sync: {e}");
            std::process::exit(1);
        })
        .config(config.clone());
    let subscription = client.subscribe(baseline).unwrap_or_else(|e| {
        eprintln!("pbs-sync: {e}");
        std::process::exit(1);
    });
    println!("pbs-sync: following from epoch {baseline}");
    for delta in subscription {
        let delta = delta.unwrap_or_else(|e| {
            eprintln!("pbs-sync: subscription lost: {e}");
            std::process::exit(1);
        });
        // Flush the cache before acknowledging the delta on stdout: if the
        // server (or this process) dies between the stream ending and the
        // rewrite, the cache must already hold the epoch we consumed —
        // otherwise the next run re-fetches (or worse, full-resyncs) work
        // it already applied.
        write_epoch_cache(args, delta.to_epoch);
        println!(
            "pbs-sync: epoch {} → {} in {} batches (+{} −{} net)",
            delta.from_epoch,
            delta.to_epoch,
            delta.batches,
            delta.added.len(),
            delta.removed.len(),
        );
        if !args.quiet {
            for e in delta.added.iter().take(25) {
                println!("  +{e}");
            }
            for e in delta.removed.iter().take(25) {
                println!("  -{e}");
            }
        }
    }
    println!("pbs-sync: stream closed by server");
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    let set = match (&args.set_file, args.range) {
        (Some(path), None) => setio::load_set(path).unwrap_or_else(|e| {
            eprintln!("pbs-sync: cannot load {}: {e}", path.display());
            std::process::exit(1);
        }),
        (None, Some(n)) => {
            let full = setio::demo_set(n, 0xB0B);
            full[args.drop.min(full.len())..].to_vec()
        }
        _ => usage(),
    };

    let delta_epoch = args
        .since
        .or_else(|| args.epoch_cache.as_deref().and_then(read_epoch_cache));
    let config = ClientConfig {
        seed: args.seed,
        store: args.store.clone(),
        pipeline: args.pipeline,
        known_d: args.d,
        delta_epoch,
        ..ClientConfig::default()
    };
    let policy = RetryPolicy {
        attempts: args.retry.max(1),
        base_delay: Duration::from_millis(args.retry_base_ms.max(1)),
        ..RetryPolicy::default()
    };

    if args.follow {
        follow(&args, &set, &config, &policy);
    }

    let (report, attempts) =
        sync_with_retry(&args.connect, &set, &config, &policy).unwrap_or_else(|e| {
            eprintln!("pbs-sync: {e}");
            std::process::exit(1);
        });
    if attempts > 1 {
        println!(
            "pbs-sync: succeeded on attempt {attempts}/{}",
            policy.attempts
        );
    }

    // Persist the new epoch baseline for the next run's delta subscription.
    if let Some(epoch) = report.epoch {
        write_epoch_cache(&args, epoch);
    }

    if let Some(delta) = &report.delta {
        println!(
            "pbs-sync: {}{} delta subscription: epoch {} → {} in {} batches \
             (+{} −{} net)",
            args.connect,
            if args.store.is_empty() {
                String::new()
            } else {
                format!(" store {:?}", args.store)
            },
            delta.from_epoch,
            delta.to_epoch,
            delta.batches,
            delta.added.len(),
            delta.removed.len(),
        );
        println!(
            "pbs-sync: wire: {} B sent / {} B received over {}+{} frames",
            report.bytes_sent, report.bytes_received, report.frames_sent, report.frames_received,
        );
        if !args.quiet {
            for e in delta.added.iter().take(25) {
                println!("  +{e}");
            }
            for e in delta.removed.iter().take(25) {
                println!("  -{e}");
            }
            let more = (delta.added.len() + delta.removed.len()).saturating_sub(50);
            if more > 0 {
                println!("  … {more} more");
            }
        }
        return;
    }
    if report.delta_fallback {
        println!("pbs-sync: delta epoch not servable; fell back to full reconciliation");
    }
    println!(
        "pbs-sync: {}{} of set {} → |A△B| = {} ({} pushed to the server), \
         {} rounds in {} trips, d_param {}{}, seed {:#x}, verified: {}",
        args.connect,
        if args.store.is_empty() {
            String::new()
        } else {
            format!(" store {:?}", args.store)
        },
        set.len(),
        report.recovered.len(),
        report.pushed.len(),
        report.rounds,
        report.round_trips,
        report.d_param,
        report
            .estimated_d
            .map(|d| format!(" (d̂ = {d:.1})"))
            .unwrap_or_default(),
        report.seed,
        report.verified,
    );
    println!(
        "pbs-sync: rounds: {} layers in {} trips; {} group-layers speculated, {} of them unused",
        report.rounds, report.round_trips, report.speculative_layers, report.speculative_unused,
    );
    if let Some(epoch) = report.epoch {
        println!("pbs-sync: epoch baseline {epoch} established");
    }
    let universe_bits = config.pbs.universe_bits;
    println!(
        "pbs-sync: wire: {} B sent / {} B received over {}+{} frames{}",
        report.bytes_sent,
        report.bytes_received,
        report.frames_sent,
        report.frames_received,
        report
            .overhead_x_min(universe_bits)
            .map(|x| format!(
                " = {x:.2} × the d·log|U| minimum (d = {}, {universe_bits}-bit universe)",
                report.recovered.len()
            ))
            .unwrap_or_default(),
    );
    if !args.quiet {
        let mut diff = report.recovered.clone();
        diff.sort_unstable();
        for e in diff.iter().take(50) {
            println!("  {e}");
        }
        if diff.len() > 50 {
            println!("  … {} more", diff.len() - 50);
        }
    }
    if !report.verified {
        std::process::exit(3);
    }
}
