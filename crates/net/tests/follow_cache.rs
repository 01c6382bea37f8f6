//! Kill-timing regression test for the `pbs-sync --follow` epoch cache.
//!
//! The bug: `--follow` printed each pushed delta *before* rewriting the
//! epoch cache, and never persisted the baseline epoch at all — so a
//! client killed between consuming a delta (or the baseline sync) and the
//! atomic rewrite would resume from a stale epoch and re-fetch (or full
//! resync) work it had already applied. The fix flushes the cache before
//! the delta is acknowledged on stdout, which this test exploits: the
//! moment a delta line is observable on the pipe, the cache must already
//! hold that delta's `to_epoch` — at which point the process is SIGKILLed
//! and the cache must still carry the final epoch, and a fresh sync from
//! it must ride the delta path without falling back.
//!
//! Also here, because they drive the same binaries: a `pbs-syncd` store
//! without `--data-dir` serves `--since` like every other store, and a
//! numeric flag value that does not parse is a usage error.

use pbs_net::client::ClientConfig;
use pbs_net::server::{Server, ServerConfig};
use pbs_net::setio;
use pbs_net::store::{MutableStore, SetStore};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Arc;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pbs-follow-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

fn cached_epoch(path: &std::path::Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

#[test]
fn follow_flushes_epoch_cache_before_printing_each_delta() {
    const RANGE: usize = 64;
    const DELTAS: u64 = 5;

    let dir = tempdir("order");
    let cache = dir.join("epoch.cache");
    let base: Vec<u64> = setio::demo_set(RANGE, 0xB0B);
    let store = Arc::new(MutableStore::new(base.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut child = Command::new(env!("CARGO_BIN_EXE_pbs-sync"))
        .args([
            "--connect",
            &addr.to_string(),
            "--range",
            &RANGE.to_string(),
            "--follow",
            "--epoch-cache",
            cache.to_str().expect("utf8 path"),
            "--quiet",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pbs-sync --follow");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();

    // Baseline: the epoch cache did not exist, so the follow runs one full
    // sync first. Its epoch is durable state — the cache must hold it the
    // moment the baseline is announced (the old code never wrote it).
    loop {
        let line = lines
            .next()
            .expect("stdout open through baseline")
            .expect("read line");
        if line.contains("baseline sync") {
            assert!(
                line.ends_with("epoch 0"),
                "fresh store baseline at epoch 0, got: {line}"
            );
            break;
        }
    }
    assert_eq!(
        cached_epoch(&cache),
        Some(0),
        "baseline epoch must be persisted before it is announced"
    );

    // Push deltas one at a time. The instant a delta's line is readable on
    // the pipe, the cache must already hold its epoch: the rewrite happens
    // strictly before the print, so a kill at any observable point leaves
    // the cache current.
    for epoch in 1..=DELTAS {
        store.apply(&[1_000_000 + epoch], &[]);
        loop {
            let line = lines
                .next()
                .expect("stdout open through the push stream")
                .expect("read line");
            if line.contains(&format!("→ {epoch} in")) {
                break;
            }
        }
        assert_eq!(
            cached_epoch(&cache),
            Some(epoch),
            "cache must already hold epoch {epoch} when its delta prints"
        );
    }

    // The kill: the follow dies right after acknowledging the last delta,
    // before it could do any further bookkeeping.
    child.kill().expect("kill follow client");
    let _ = child.wait();
    assert_eq!(
        cached_epoch(&cache),
        Some(DELTAS),
        "a killed follow must leave the cache at the last consumed epoch"
    );

    // Resume: a fresh sync seeded from the cache rides the delta path —
    // no fallback, nothing re-fetched.
    let resume_epoch = cached_epoch(&cache).expect("cache readable");
    let local: Vec<u64> = store.snapshot();
    let config = ClientConfig {
        delta_epoch: Some(resume_epoch),
        ..ClientConfig::default()
    };
    let report = pbs_net::client::sync(addr, &local, &config).expect("resume sync");
    let delta = report.delta.expect("resume took the delta path");
    assert_eq!(delta.from_epoch, resume_epoch);
    assert!(!report.delta_fallback, "no full-resync fallback on resume");
    assert!(delta.added.is_empty() && delta.removed.is_empty());

    let stats = server.shutdown();
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed,
        "the killed follow session must still be accounted for"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pbs-syncd --range N` without `--data-dir` used to serve an epoch-less
/// store: `--since` fell back to a full reconciliation and `--follow` was
/// refused. Every store keeps a changelog now; the seed is its first batch.
#[test]
fn a_syncd_store_without_a_data_dir_serves_since() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_pbs-syncd"))
        .args(["--listen", "127.0.0.1:0", "--range", "64"])
        .args(["--changelog-cap", "8", "--stats-every", "0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pbs-syncd");
    let mut lines = BufReader::new(daemon.stdout.take().expect("piped stdout")).lines();
    let addr = loop {
        let line = lines.next().expect("stdout open").expect("read line");
        if let Some(rest) = line.strip_prefix("pbs-syncd: listening on ") {
            break rest.split(' ').next().expect("an address").to_string();
        }
    };
    let sync = Command::new(env!("CARGO_BIN_EXE_pbs-sync"))
        .args(["--connect", &addr, "--range", "64", "--since", "0"])
        .arg("--quiet")
        .output()
        .expect("run pbs-sync");
    daemon.kill().expect("kill pbs-syncd");
    let _ = daemon.wait();
    let stdout = String::from_utf8_lossy(&sync.stdout);
    assert!(sync.status.success(), "{stdout}");
    assert!(
        stdout.contains("delta subscription: epoch 0 → 1 in 1 batches (+64 −0 net)"),
        "{stdout}"
    );
    assert!(!stdout.contains("fell back"), "{stdout}");
}

#[test]
fn a_malformed_numeric_flag_is_a_usage_error() {
    // Each of these used to run with the flag silently dropped: a full sync
    // in place of the delta asked for, the default changelog.
    let cases: [(&str, &[&str]); 2] = [
        (
            env!("CARGO_BIN_EXE_pbs-sync"),
            &["--connect", "127.0.0.1:1", "--range", "8", "--since", "12x"],
        ),
        (
            env!("CARGO_BIN_EXE_pbs-syncd"),
            &["--range", "8", "--changelog-cap", "many"],
        ),
    ];
    for (binary, args) in cases {
        let output = Command::new(binary).args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{binary} {args:?}: {stderr}");
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(flag) && stderr.contains("usage:"),
            "{stderr}"
        );
    }
}
