//! The session engine: a plan-driven submitter of outbound sessions to
//! [`pbs_net::Dialer`] — the readiness loop the server runs on, here
//! driving client connections, a few threads holding thousands of
//! sessions.
//!
//! One scheduler (the caller of [`Engine::run_plan`]) walks the arrival
//! plan open-loop: it sleeps until each planned instant, connects, and
//! hands the session to a loop — *regardless of how many earlier sessions
//! are still in flight*. Every protocol decision, clock and phase stamp is
//! the client connection's, so what the harness measures is what real
//! clients run; what lives here is the harness's own bookkeeping: outcome
//! buckets and the parked-subscriber gauge.
//!
//! Accounting is exact by construction: every submitted session
//! increments `started` and ends in exactly one of
//! `completed`/`failed`/`evicted`, so `started == completed + failed +
//! evicted` holds after [`Engine::drain`] — the invariant the acceptance
//! test pins.

use crate::plan::{Arrival, Kind};
use obs::Histogram;
use pbs_net::{ClientConfig, Dialed, Dialer, Ended, Mode, Pipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many distinct error strings the metrics keep for diagnosis.
const ERROR_SAMPLES: usize = 16;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The server under load.
    pub target: SocketAddr,
    /// Loop threads multiplexing the sessions.
    pub workers: usize,
    /// What every session runs under; its seed and pipeline are its
    /// arrival's.
    pub client: ClientConfig,
    /// The server's element set as the harness knows it. Full
    /// reconciliation sessions present this set minus a few seeded drops,
    /// so the difference is exactly `drops` elements, none of them pushed
    /// at the server (the run never mutates the store).
    pub base_set: Arc<Vec<u64>>,
    /// Elements each full-reconciliation session drops (its `d`).
    pub drops: usize,
    /// The epoch delta and subscribe sessions present as their cached
    /// baseline.
    pub delta_epoch: u64,
}

obs::counters! {
    /// The run's monotone counts. Every submitted session is `started`
    /// and ends in exactly one of `completed`/`failed`/`evicted`.
    pub struct Counts => CountsSnapshot {
        /// Connect attempts included.
        started: "Sessions submitted.",
        completed: "Sessions that completed their workload.",
        /// Connect, transport, protocol or a client timer.
        failed: "Sessions that failed.",
        evicted: "Parked subscribers terminated by the server before the drain.",
        delta_fallbacks: "Delta sessions that fell back to a full reconciliation.",
        pushes: "Push batches received by parked subscribers.",
        bytes_in: "Wire bytes received across all sessions.",
        bytes_out: "Wire bytes sent across all sessions.",
    }
}

/// Where a finished session ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran its workload to the end (for a subscriber: parked until the
    /// harness drained it).
    Completed,
    /// A parked subscriber terminated before the drain — backpressure
    /// eviction, connection loss or a silent server while parked.
    Evicted,
    /// Anything else: transport error, protocol violation, a client timer.
    Failed,
}

/// What one finished session was to the harness.
#[derive(Debug)]
pub struct SessionResult {
    /// The planned workload kind.
    pub kind: Kind,
    /// How it ended.
    pub outcome: Outcome,
    /// The failure, for [`Outcome::Failed`]/[`Outcome::Evicted`].
    pub error: Option<String>,
    /// What the client connection reported: the sync's report if it ran
    /// to its ack — the same report the blocking client returns — its
    /// phases (`total`, for a subscriber, up to the park) and wire bytes.
    pub ended: Box<Ended>,
}

impl SessionResult {
    /// What `ended` is to the harness: a parked subscriber completes once
    /// the harness `drained` it and is evicted before; a reconciliation
    /// that reported an unverified recovery (the real client hands it back
    /// to its caller) failed — after the server has seen the same `Done`
    /// and ack it sees from one.
    fn of(kind: Kind, ended: Box<Ended>, drained: bool) -> SessionResult {
        let error = ended.error.as_ref().map(|e| e.to_string());
        let (outcome, error) = match (&ended.report, ended.parked) {
            (Some(report), _) if report.verified => (Outcome::Completed, None),
            (Some(_), _) => {
                let error = "round cap exhausted before verification";
                (Outcome::Failed, Some(error.into()))
            }
            (None, true) if drained => (Outcome::Completed, None),
            (None, true) => {
                let closed = || "server closed a parked subscription".into();
                (Outcome::Evicted, Some(error.unwrap_or_else(closed)))
            }
            (None, false) => {
                let closed = || "connection closed mid-session".into();
                (Outcome::Failed, Some(error.unwrap_or_else(closed)))
            }
        };
        SessionResult {
            kind,
            outcome,
            error,
            ended,
        }
    }
}

/// Cross-thread counters and latency accumulators of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    /// The monotone counts.
    pub counts: Counts,
    /// Sessions currently in flight (submitted, not yet ended).
    pub inflight: AtomicU64,
    /// High-water mark of `inflight`.
    pub peak_inflight: AtomicU64,
    /// Subscribers currently parked.
    pub parked: AtomicU64,
    /// High-water mark of `parked`.
    pub peak_parked: AtomicU64,
    /// Per-phase latency histograms of completed sessions, nanosecond
    /// samples, indexed like [`pbs_net::SyncPhases::named`].
    pub phases: [Histogram; 7],
    /// First few error strings, for diagnosis.
    pub errors: Mutex<Vec<String>>,
}

impl Metrics {
    fn record(&self, result: &SessionResult) {
        let (counts, ended) = (&self.counts, &result.ended);
        match result.outcome {
            Outcome::Completed => counts.completed.inc(1),
            Outcome::Failed => counts.failed.inc(1),
            Outcome::Evicted => counts.evicted.inc(1),
        };
        let fallback = ended.report.as_ref().is_some_and(|r| r.delta_fallback);
        counts.delta_fallbacks.inc(u64::from(fallback));
        counts.bytes_in.inc(ended.bytes_in);
        counts.bytes_out.inc(ended.bytes_out);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        if matches!(result.outcome, Outcome::Completed) {
            // Phases the workload kind skipped read zero: not samples.
            for (hist, (_, took)) in self.phases.iter().zip(ended.phases.named()) {
                let nanos = took.as_nanos() as u64;
                if nanos > 0 {
                    hist.record(nanos);
                }
            }
        }
        if let Some(error) = &result.error {
            let mut errors = self.errors.lock().unwrap();
            if errors.len() < ERROR_SAMPLES {
                errors.push(format!("{:?}/{:?}: {error}", result.kind, result.outcome));
            }
        }
    }
}

/// The running engine: the loops the sessions are dialed to.
pub struct Engine {
    config: EngineConfig,
    dialer: Dialer,
    metrics: Arc<Metrics>,
    /// The harness has begun its drain: a parked subscriber ending now
    /// completed its workload.
    drained: Arc<AtomicBool>,
    run_started: Instant,
}

impl Engine {
    /// Spawn the loops.
    pub fn start(config: EngineConfig) -> io::Result<Engine> {
        Ok(Engine {
            dialer: Dialer::start(config.workers)?,
            config,
            metrics: Arc::new(Metrics::default()),
            drained: Arc::new(AtomicBool::new(false)),
            run_started: Instant::now(),
        })
    }

    /// The shared counters (live — scrape any time).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Dial one session of `arrival`'s kind over `set` now — a delta or a
    /// subscription from `delta_epoch` — and count it; `done` is handed
    /// its result once it ends, after the run's metrics counted it. A
    /// session that cannot start counts as started and failed.
    pub fn dial(
        &self,
        arrival: &Arrival,
        set: Vec<u64>,
        delta_epoch: u64,
        done: impl FnOnce(SessionResult) + Send + 'static,
    ) {
        let metrics = Arc::clone(&self.metrics);
        metrics.counts.started.inc(1);
        let inflight = metrics.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        metrics.peak_inflight.fetch_max(inflight, Ordering::SeqCst);
        let kind = arrival.kind;
        let since = delta_epoch;
        let mode = match kind {
            Kind::Full | Kind::Pipelined => Mode::Full,
            Kind::Delta => Mode::Delta { since },
            Kind::Subscribe => Mode::Subscribe { since },
        };
        let config = ClientConfig {
            seed: arrival.seed,
            pipeline: match kind {
                Kind::Pipelined => Pipeline::Auto,
                _ => Pipeline::Depth(1),
            },
            ..self.config.client.clone()
        };
        let (drained, mut done) = (Arc::clone(&self.drained), Some(done));
        let mut parked = false;
        let watch = move |dialed| match dialed {
            // (The catch-up comes before the park.)
            Dialed::Push(_) => metrics.counts.pushes.inc(u64::from(parked)),
            Dialed::Parked => {
                parked = true;
                let now = metrics.parked.fetch_add(1, Ordering::SeqCst) + 1;
                metrics.peak_parked.fetch_max(now, Ordering::SeqCst);
            }
            Dialed::Ended(ended) => {
                if ended.parked {
                    metrics.parked.fetch_sub(1, Ordering::SeqCst);
                }
                let drained = drained.load(Ordering::SeqCst);
                let result = SessionResult::of(kind, ended, drained);
                metrics.record(&result);
                if let Some(done) = done.take() {
                    done(result);
                }
            }
        };
        self.dialer
            .dial(self.config.target, &config, set, mode, watch);
    }

    fn session_set(&self, arrival: &Arrival) -> Vec<u64> {
        match arrival.kind {
            Kind::Full | Kind::Pipelined => {
                // Drop `drops` seeded elements from the base set: the
                // difference is exactly those elements, all held by the
                // server, so nothing is pushed and the store is never
                // mutated by the run.
                let base = &*self.config.base_set;
                let mut rng = StdRng::seed_from_u64(arrival.seed);
                let mut dropped = std::collections::HashSet::new();
                let drops = self.config.drops.min(base.len().saturating_sub(1));
                while dropped.len() < drops {
                    dropped.insert(rng.random_range(0..base.len()));
                }
                let set = base
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !dropped.contains(i))
                    .map(|(_, &e)| e)
                    .collect();
                set
            }
            Kind::Delta | Kind::Subscribe => Vec::new(),
        }
    }

    /// Walk `plan` open-loop from `start`: sleep until each arrival's
    /// planned instant, then dial it. Late arrivals (scheduler overrun)
    /// are dialed immediately — open-loop never skips offered load.
    pub fn run_plan(&mut self, plan: &[Arrival], start: Instant) {
        for arrival in plan {
            let due = start + arrival.at;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let set = self.session_set(arrival);
            self.dial(arrival, set, self.config.delta_epoch, |_| {});
        }
    }

    /// Wait for every non-parked session to finish (bounded by
    /// `active_timeout`), optionally hold the parked population for
    /// `park_hold` (so pushes flow to them), then drain: parked
    /// subscribers complete, the loops exit. Returns the final metrics.
    pub fn drain(self, active_timeout: Duration, park_hold: Duration) -> (Arc<Metrics>, Duration) {
        let deadline = Instant::now() + active_timeout;
        loop {
            let inflight = self.metrics.inflight.load(Ordering::SeqCst);
            let parked = self.metrics.parked.load(Ordering::SeqCst);
            if inflight == parked || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        std::thread::sleep(park_hold);
        self.drained.store(true, Ordering::SeqCst);
        self.dialer.shutdown();
        (self.metrics, self.run_started.elapsed())
    }
}
