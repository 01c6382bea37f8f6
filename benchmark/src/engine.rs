//! The untraced pass: one workload driven over real loopback sockets
//! through the blocking `SyncClient` / `Subscription` API, every output
//! checked against ground truth.
//!
//! A run is a sequence of **cycles** on the main thread. Each cycle is one
//! full reconciliation (closed loop, one client) followed by
//! `churn_per_cycle` write batches, each `apply(25 adds, 25 removes)`
//! immediately caught up by a one-shot `delta_epoch` sync. One subscriber
//! per event-loop worker stays parked for the whole run and times every
//! push. `push_under_full_1m` adds an open-loop writer thread.
//!
//! Every timing the benchmark bounds is taken between two bursts of
//! `host::HostSpeed` and carries the host's slowdown at that moment.

use crate::gen::Inputs;
use crate::host::{HostSpeed, Slowdown, LONG_BURST, SHORT_BURST};
use crate::stats::Fingerprint;
use crate::workload::{Workload, CHURN_STEP, WORKERS};
use pbs_net::frame::{Frame, Hello};
use pbs_net::server::StatsSnapshot;
use pbs_net::{
    ClientConfig, DurableOptions, MutableStore, Server, ServerConfig, SetStore, Subscription,
    SyncClient, SyncPhases,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 15;

/// Write + catch-up pairs timed as one sample of `write_catchup_p50_us`.
/// Shorter than the store's compaction interval (256 batches), so the
/// median segment holds no snapshot fsync — disk latency stays out of it.
const SEGMENT_PAIRS: usize = 50;

/// Segments between two host-speed bursts (≈ 50 ms of pairs per 1 ms burst).
const SEGMENTS_PER_BURST: usize = 5;

/// The server configuration every workload runs against: as shipped, except
/// for the worker count (the default of 4 oversubscribes a 2-core box) and
/// a keepalive long enough that no `Ping` lands inside a run — keepalive
/// traffic would make the byte ledger depend on timing.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        keepalive: Duration::from_secs(120),
        ..ServerConfig::default()
    }
}

/// A store, the server bound over it and the inputs it was built from.
pub struct Env {
    pub inputs: Inputs,
    pub store: Arc<MutableStore>,
    pub server: Server,
}

/// Build the store the workload describes from generated inputs. A durable
/// store is left with its contents in the WAL: the seeding compaction
/// (`compact_now`, a no-op on an in-memory store) is the caller's, untimed —
/// its fsync times the disk (8 ms quiet, 16 ms beside another writer), not
/// the program.
pub fn build_store(w: &Workload, inputs: &Inputs, dir: &Path) -> std::io::Result<MutableStore> {
    let initial = inputs.window(0);
    if !w.durable {
        return Ok(MutableStore::new(initial));
    }
    // A fresh directory per store: recovery of an earlier run's state is
    // not what this benchmark measures.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let store = MutableStore::open_durable(dir, DurableOptions::default())?;
    store.try_apply(&initial, &[])?;
    Ok(store)
}

/// Set-up as a user pays it: generate the sets, build the store, bind the
/// server.
pub fn setup(w: &Workload, seed: u64, dir: &Path) -> std::io::Result<Env> {
    let inputs = Inputs::generate(seed, w.store_len, w.extra);
    let store = Arc::new(build_store(w, &inputs, dir)?);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<dyn SetStore>,
        server_config(),
    )?;
    Ok(Env {
        inputs,
        store,
        server,
    })
}

/// Pass/fail accounting: every checked operation counts as attempted, every
/// failed check as failed, and the first few failures are kept verbatim.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

/// A wall-clock reading and the host's slowdown (`host.rs`) while it was
/// taken.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw: f64,
    pub slowdown: Slowdown,
}

#[derive(Debug, Clone, Copy)]
pub struct SyncSample {
    pub ms: f64,
    /// The host's slowdown around this session.
    pub slowdown: Slowdown,
    pub bytes: u64,
    pub rounds: u32,
    pub phases: SyncPhases,
}

/// Everything the untraced pass measured.
#[derive(Debug)]
pub struct Loopback {
    pub setup_s: Vec<Timed>,
    pub syncs: Vec<SyncSample>,
    /// Wall clock per write + catch-up pair, one sample per segment of
    /// `SEGMENT_PAIRS` pairs.
    pub pair_us: Vec<Timed>,
    /// Every host-speed burst of the run.
    pub host_slowdown: Vec<Slowdown>,
    pub delta_us: Vec<f64>,
    pub delta_phase_us: Vec<f64>,
    /// Wire bytes and changed elements of the delta syncs of the first
    /// `min_syncs` cycles.
    pub delta_bytes: u64,
    pub delta_changes: u64,
    pub apply_us: Vec<f64>,
    /// Push latency samples (one per timed write per subscriber).
    pub push_ms: Vec<f64>,
    /// How late the open-loop writer started each write (empty without one).
    pub writer_late_ms: Vec<f64>,
    pub measured_s: f64,
    pub server: StatsSnapshot,
    pub peak_rss_mb: f64,
    pub checks: Checks,
}

/// A subscriber's replica of the server's set. A pushed report is a *net*
/// delta with set semantics — an element removed and re-added inside one
/// coalesced burst arrives as a bare add of something the replica already
/// holds — so the elements that can come back (the clients' extras, the
/// writer's toggle) are replayed into a real set; the ring elements, which
/// never return within a burst, only into the fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Replica {
    ring: Fingerprint,
    returning: BTreeSet<u64>,
}

/// What a subscriber thread saw.
struct SubLog {
    /// `(from_epoch, to_epoch, received)` per pushed report.
    reports: Vec<(u64, u64, Instant)>,
    replica: Replica,
    bytes_received: u64,
    error: Option<String>,
}

fn run_subscriber(
    mut sub: Subscription,
    progress: Arc<AtomicU64>,
    ring: Fingerprint,
    can_return: Arc<BTreeSet<u64>>,
) -> SubLog {
    let mut replica = Replica {
        ring,
        returning: BTreeSet::new(),
    };
    let mut reports = Vec::new();
    let mut error = None;
    for item in sub.by_ref() {
        let received = Instant::now();
        match item {
            Ok(report) => {
                for &e in &report.removed {
                    if can_return.contains(&e) {
                        replica.returning.remove(&e);
                    } else {
                        replica.ring.remove(e);
                    }
                }
                for &e in &report.added {
                    if can_return.contains(&e) {
                        replica.returning.insert(e);
                    } else {
                        replica.ring.add(e);
                    }
                }
                reports.push((report.from_epoch, report.to_epoch, received));
                progress.store(report.to_epoch, Ordering::Release);
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    SubLog {
        reports,
        replica,
        bytes_received: sub.bytes_received(),
        error,
    }
}

/// One open-loop write: the epoch it produced, when it was due and when it
/// actually started.
struct TimedWrite {
    epoch: u64,
    due: Instant,
    started: Instant,
}

/// The open-loop writer: toggle one element every `period`, on schedule
/// whatever the server is doing. Returns the writes and whether the element
/// is in the store at the end.
fn run_writer(
    store: Arc<MutableStore>,
    toggle: u64,
    period: Duration,
    stop: Arc<AtomicBool>,
) -> (Vec<TimedWrite>, bool) {
    let start = Instant::now();
    let mut writes = Vec::new();
    let mut present = false;
    for i in 0u32.. {
        let due = start + period * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let started = Instant::now();
        let epoch = if present {
            store.apply(&[], &[toggle])
        } else {
            store.apply(&[toggle], &[])
        };
        present = !present;
        writes.push(TimedWrite {
            epoch,
            due,
            started,
        });
    }
    (writes, present)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn without(v: &[u64], skip: u64) -> Vec<u64> {
    sorted(v.iter().copied().filter(|&e| e != skip).collect())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wire bytes a subscriber sends: its `Hello` and its `Subscribe` (the
/// client API exposes only the receive side of a subscription).
fn subscriber_bytes_sent(epoch: u64) -> u64 {
    let config = ClientConfig::default();
    let hello = Hello::from_config(&config.pbs, config.seed, 0)
        .with_store(String::new())
        .with_pipeline(1)
        .with_delta_epoch(epoch);
    Frame::Hello(hello).wire_len() + Frame::Subscribe { epoch }.wire_len()
}

/// What the main thread's cycles collect.
#[derive(Default)]
struct Samples {
    syncs: Vec<SyncSample>,
    pair_us: Vec<Timed>,
    delta_us: Vec<f64>,
    delta_phase_us: Vec<f64>,
    delta_bytes: u64,
    delta_changes: u64,
    apply_us: Vec<f64>,
    timed_writes: Vec<TimedWrite>,
    /// Wire bytes of every client session (warm-up included), to be
    /// reconciled against the server's counters.
    bytes_sent: u64,
    bytes_received: u64,
}

/// The main thread's closed loop.
struct Driver<'a> {
    w: &'a Workload,
    seed: u64,
    inputs: &'a Inputs,
    store: &'a MutableStore,
    client: SyncClient,
    /// Ring slot the server's set starts at.
    window: usize,
    /// `false` during the warm-up cycle: checked, not sampled.
    timed: bool,
    host: HostSpeed,
    /// The latest burst's slowdown: the "before" of the next timing.
    slowdown: Slowdown,
    out: Samples,
    checks: Checks,
}

impl Driver<'_> {
    /// One cycle: a full reconciliation, then `churn` write batches each
    /// caught up by a delta sync.
    fn cycle(&mut self, number: u64, churn: usize) {
        self.full_sync(number);
        // A client that just reconciled caches the store's epoch.
        let mut cached_epoch = self.store.epoch();
        let within_prefix = self.out.syncs.len() <= self.w.min_syncs;
        // Segments not yet between two bursts: (wall clock, pairs).
        let mut pending: Vec<(Duration, usize)> = Vec::new();
        let mut left = churn;
        while left > 0 {
            let pairs = left.min(SEGMENT_PAIRS);
            let clock = Instant::now();
            for _ in 0..pairs {
                cached_epoch = self.write_and_catch_up(cached_epoch, within_prefix);
            }
            pending.push((clock.elapsed(), pairs));
            left -= pairs;
            if pending.len() == SEGMENTS_PER_BURST || left == 0 {
                let slowdown = self.between_bursts(SHORT_BURST);
                for (elapsed, pairs) in pending.drain(..) {
                    if self.timed {
                        self.out.pair_us.push(Timed {
                            raw: elapsed.as_secs_f64() * 1e6 / pairs as f64,
                            slowdown,
                        });
                    }
                }
            }
        }
    }

    /// Close the interval since the last burst with a new one: the mean of
    /// the two is the host's slowdown over what ran in between.
    fn between_bursts(&mut self, shots: usize) -> Slowdown {
        let before = self.slowdown;
        self.slowdown = self.host.burst(shots);
        before.mean(self.slowdown)
    }

    fn full_sync(&mut self, number: u64) {
        let (w, inputs) = (self.w, self.inputs);
        let (client_set, truth) = inputs.sync_case(self.window, w.miss, number);
        let snapshot_epoch = self.store.epoch();
        let session = self
            .client
            .clone()
            .seed(self.seed.wrapping_add(number))
            .pipeline(w.pipeline);
        // Generating the sync case took a moment: a fresh "before".
        self.slowdown = self.host.burst(LONG_BURST);
        let clock = Instant::now();
        let outcome = session.sync(&client_set);
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        let slowdown = self.between_bursts(LONG_BURST);
        drop(client_set);
        match outcome {
            Ok(report) => {
                // The writer's element may sit in the server's snapshot; it
                // is the one legitimate departure from the generated truth.
                let ok = report.verified
                    && without(&report.recovered, inputs.toggle) == truth
                    && sorted(report.pushed.clone()) == sorted(inputs.extras.clone())
                    && (w.writer_period.is_some() || report.epoch == Some(snapshot_epoch));
                self.checks.record(ok, || {
                    format!(
                        "sync {number}: verified={} recovered={} (truth {}) pushed={} epoch={:?}",
                        report.verified,
                        report.recovered.len(),
                        truth.len(),
                        report.pushed.len(),
                        report.epoch
                    )
                });
                self.out.bytes_sent += report.bytes_sent;
                self.out.bytes_received += report.bytes_received;
                if self.timed {
                    self.out.syncs.push(SyncSample {
                        ms,
                        slowdown,
                        bytes: report.bytes_sent + report.bytes_received,
                        rounds: report.rounds,
                        phases: report.phases,
                    });
                }
            }
            Err(e) => self.checks.record(false, || format!("sync {number}: {e}")),
        }
        // Restore the server's set, untimed: take back what the client
        // pushed.
        self.store.apply(&[], &inputs.extras);
        self.slowdown = self.host.burst(SHORT_BURST);
    }

    /// Slide the server's set by one write batch and catch a client at
    /// `cached_epoch` up with a one-shot delta sync. Returns the client's
    /// new epoch.
    fn write_and_catch_up(&mut self, cached_epoch: u64, within_prefix: bool) -> u64 {
        let inputs = self.inputs;
        let (added, removed) = inputs.slide(self.window, CHURN_STEP);
        let due = Instant::now();
        let epoch = self.store.apply(&added, &removed);
        let applied = due.elapsed();
        self.window += CHURN_STEP;

        let clock = Instant::now();
        let outcome = self.client.clone().delta_epoch(cached_epoch).sync(&[]);
        let elapsed = clock.elapsed();
        if self.timed {
            self.out.apply_us.push(applied.as_secs_f64() * 1e6);
            self.out.timed_writes.push(TimedWrite {
                epoch,
                due,
                started: due,
            });
        }
        match outcome {
            Ok(report) => {
                let delta = report.delta.as_ref();
                let ok = delta.is_some_and(|d| {
                    without(&d.added, inputs.toggle) == sorted(added)
                        && without(&d.removed, inputs.toggle) == sorted(removed)
                }) && report.epoch.is_some_and(|e| e >= epoch);
                self.checks.record(ok, || {
                    format!(
                        "delta sync from epoch {cached_epoch}: fallback={} delta={:?}",
                        report.delta_fallback,
                        delta.map(|d| (d.added.len(), d.removed.len(), d.to_epoch))
                    )
                });
                self.out.bytes_sent += report.bytes_sent;
                self.out.bytes_received += report.bytes_received;
                if self.timed {
                    if within_prefix {
                        self.out.delta_bytes += report.bytes_sent + report.bytes_received;
                        self.out.delta_changes +=
                            delta.map_or(0, |d| (d.added.len() + d.removed.len()) as u64);
                    }
                    self.out.delta_us.push(elapsed.as_secs_f64() * 1e6);
                    self.out
                        .delta_phase_us
                        .push(report.phases.delta.as_secs_f64() * 1e6);
                }
                report.epoch.unwrap_or(epoch)
            }
            Err(e) => {
                self.checks.record(false, || {
                    format!("delta sync from epoch {cached_epoch}: {e}")
                });
                self.store.epoch()
            }
        }
    }
}

/// Run one workload for about `seconds` (and at least `min_syncs` cycles).
pub fn run(w: &Workload, seed: u64, seconds: f64, scratch: &Path) -> std::io::Result<Loopback> {
    let dir: PathBuf = scratch.join("store");
    let checks = Checks::default();

    // ---- Set-up, repeated; the last one is the run's environment. ----
    let mut host = HostSpeed::new()?;
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(Env { server, .. }) = env.take() {
            server.shutdown();
        }
        let before = host.burst(LONG_BURST);
        let clock = Instant::now();
        env = Some(setup(w, seed, &dir)?);
        let raw = clock.elapsed().as_secs_f64();
        setup_s.push(Timed {
            raw,
            slowdown: before.mean(host.burst(LONG_BURST)),
        });
    }
    let Env {
        inputs,
        store,
        server,
    } = env.expect("set-up ran");
    store.compact_now()?;
    let addr = server.local_addr();

    // ---- Park one subscriber per worker (consecutive connections, dealt
    // round-robin, so each worker holds exactly one). ----
    let epoch0 = store.epoch();
    let ring0 = Fingerprint::of(inputs.window(0));
    let can_return: Arc<BTreeSet<u64>> = Arc::new(
        inputs
            .extras
            .iter()
            .copied()
            .chain([inputs.toggle])
            .collect(),
    );
    let mut progress = Vec::new();
    let mut subscribers = Vec::new();
    for _ in 0..WORKERS {
        let sub = SyncClient::connect(addr)
            .and_then(|c| c.subscribe(epoch0))
            .map_err(|e| std::io::Error::other(format!("subscribe: {e}")))?;
        let seen = Arc::new(AtomicU64::new(epoch0));
        progress.push(Arc::clone(&seen));
        let can_return = Arc::clone(&can_return);
        subscribers.push(std::thread::spawn(move || {
            run_subscriber(sub, seen, ring0, can_return)
        }));
    }

    let mut driver = Driver {
        w,
        seed,
        inputs: &inputs,
        store: &store,
        client: SyncClient::connect(addr).map_err(|e| std::io::Error::other(e.to_string()))?,
        window: 0,
        timed: false,
        slowdown: host.burst(SHORT_BURST),
        host,
        out: Samples::default(),
        checks,
    };

    // ---- Warm-up: one untimed cycle. ----
    driver.cycle(0, CHURN_STEP.min(w.churn_per_cycle));

    // ---- Measure. ----
    driver.timed = true;
    let stop = Arc::new(AtomicBool::new(false));
    let writer = w.writer_period.map(|period| {
        let (store, stop, toggle) = (Arc::clone(&store), Arc::clone(&stop), inputs.toggle);
        std::thread::spawn(move || run_writer(store, toggle, period, stop))
    });
    let measure = Instant::now();
    let mut number = 1u64;
    let mut peak_rss = f64::NAN;
    loop {
        let clock = Instant::now();
        driver.cycle(number, w.churn_per_cycle);
        if number == w.min_syncs as u64 {
            // Read the high-water mark after a fixed amount of work: how
            // many more cycles (and sample buffers) the box fits into the
            // run must not move it.
            peak_rss = peak_rss_mb();
        }
        number += 1;
        // Stop before a cycle that would overrun the run length.
        let projected = measure.elapsed().as_secs_f64() + clock.elapsed().as_secs_f64();
        if number > w.min_syncs as u64 && projected > seconds {
            break;
        }
    }
    let measured_s = measure.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    let Driver {
        window,
        mut host,
        out: mut samples,
        mut checks,
        ..
    } = driver;
    let mut toggle_present = false;
    if let Some(writer) = writer {
        // With a writer, the pushes that count are its open-loop toggles.
        let (writes, present) = writer.join().expect("writer thread");
        toggle_present = present;
        samples.timed_writes = writes;
    }

    // ---- Every epoch must reach every subscriber. ----
    let final_epoch = store.epoch();
    let patience = Instant::now();
    while progress
        .iter()
        .any(|p| p.load(Ordering::Acquire) < final_epoch)
        && patience.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(1));
    }

    // ---- The store must hold exactly the expected set. ----
    let expected = Replica {
        ring: Fingerprint::of(inputs.window(window)),
        returning: toggle_present
            .then_some(inputs.toggle)
            .into_iter()
            .collect(),
    };
    let actual = Fingerprint::of(store.snapshot());
    let mut expected_store = expected.ring;
    expected
        .returning
        .iter()
        .for_each(|&e| expected_store.add(e));
    checks.record(actual == expected_store, || {
        format!(
            "store holds {} elements, not the expected set of {}",
            actual.count, expected_store.count
        )
    });

    let stats = server.shutdown();
    let logs: Vec<SubLog> = subscribers
        .into_iter()
        .map(|t| t.join().expect("subscriber thread"))
        .collect();

    // ---- Subscribers: in order, exactly once, converged. ----
    let mut push_ms = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        let contiguous = log.reports.first().is_some_and(|r| r.0 == epoch0)
            && log
                .reports
                .windows(2)
                .all(|p| p[1].0 == p[0].1 && p[1].1 > p[1].0)
            && log.reports.last().is_some_and(|r| r.1 == final_epoch);
        checks.record(contiguous && log.error.is_none(), || {
            format!(
                "subscriber {i}: {} reports ending at epoch {:?} of {final_epoch}, error {:?}",
                log.reports.len(),
                log.reports.last().map(|r| r.1),
                log.error
            )
        });
        checks.record(log.replica == expected, || {
            format!("subscriber {i}: replayed state differs from the store")
        });
        for write in &samples.timed_writes {
            // The report that carried epoch e is the first one ending at or
            // after e (the worker may coalesce several batches per burst).
            let at = log.reports.partition_point(|r| r.1 < write.epoch);
            match log.reports.get(at) {
                Some(&(_, _, received)) => {
                    checks.attempted += 1;
                    push_ms.push(received.saturating_duration_since(write.due).as_secs_f64() * 1e3);
                }
                None => checks.record(false, || {
                    format!("subscriber {i}: epoch {} never pushed", write.epoch)
                }),
            }
        }
    }

    // ---- Client and server byte counters must agree. ----
    // Every session has been reaped by the shutdown above, so the server's
    // totals are final. Subscriber sockets are counted on both sides too.
    let client_received: u64 = logs.iter().map(|l| l.bytes_received).sum();
    let subscriber_sent = WORKERS as u64 * subscriber_bytes_sent(epoch0);
    checks.record(
        stats.bytes_out == samples.bytes_received + client_received
            && stats.bytes_in == samples.bytes_sent + subscriber_sent
            && stats.sessions_failed == 0
            && stats.subscribers_evicted == 0,
        || {
            format!(
                "byte ledger: server out {} vs clients in {}, server in {} vs clients out {}, failed sessions {}, evicted {}",
                stats.bytes_out,
                samples.bytes_received + client_received,
                stats.bytes_in,
                samples.bytes_sent + subscriber_sent,
                stats.sessions_failed,
                stats.subscribers_evicted
            )
        },
    );

    let writer_late_ms = if w.writer_period.is_some() {
        samples
            .timed_writes
            .iter()
            .map(|w| w.started.saturating_duration_since(w.due).as_secs_f64() * 1e3)
            .collect()
    } else {
        Vec::new()
    };
    if w.durable {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(Loopback {
        setup_s,
        syncs: samples.syncs,
        pair_us: samples.pair_us,
        host_slowdown: std::mem::take(&mut host.bursts),
        delta_us: samples.delta_us,
        delta_phase_us: samples.delta_phase_us,
        delta_bytes: samples.delta_bytes,
        delta_changes: samples.delta_changes,
        apply_us: samples.apply_us,
        push_ms,
        writer_late_ms,
        measured_s,
        server: stats,
        peak_rss_mb: peak_rss,
        checks,
    })
}
