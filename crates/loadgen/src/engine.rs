//! The session engine: a small worker pool multiplexing thousands of
//! in-flight [`LoadSession`]s, mirroring the server event loop's
//! discipline (PR 7) on the client side.
//!
//! One scheduler (the caller of [`Engine::run_plan`]) walks the arrival
//! plan open-loop: it sleeps until each planned instant, connects, and
//! hands the connected socket to a worker — *regardless of how many
//! earlier sessions are still in flight*. Workers own their sessions
//! outright and drive them from a level-triggered
//! [`pbs_net::poll::Poller`] loop: read interest always, write interest
//! only while a session has queued output, a wake pipe so newly submitted
//! sessions interrupt the wait. Nothing in a worker ever blocks on one
//! session, which is what lets a single thread hold a thousand parked
//! subscribers while reconciliations stream through beside them.
//!
//! Accounting is exact by construction: every submitted session
//! increments `started` and is reaped into exactly one of
//! `completed`/`failed`/`evicted`, so `started == completed + failed +
//! evicted` holds after [`Engine::drain`] — the invariant the acceptance
//! test pins.

use crate::plan::{Arrival, Kind};
use crate::session::{LoadSession, Outcome, SessionResult, SessionSpec};
use obs::Histogram;
use pbs_net::SyncPhases;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a worker's poll wait is bounded: short enough for prompt deadline
/// sweeps and drain response, long enough to stay off the CPU while a
/// thousand subscribers idle.
const POLL_TICK: Duration = Duration::from_millis(100);

/// How many distinct error strings the metrics keep for diagnosis.
const ERROR_SAMPLES: usize = 16;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The server under load.
    pub target: SocketAddr,
    /// Worker threads multiplexing the sessions.
    pub workers: usize,
    /// Protocol parameters for every session.
    pub spec: SessionSpec,
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
    /// and reaped into exactly one of `completed`/`failed`/`evicted`.
    pub struct Counts => CountsSnapshot {
        /// Connect attempts included.
        started: "Sessions submitted.",
        completed: "Sessions that completed their workload.",
        /// Connect, transport, protocol or deadline.
        failed: "Sessions that failed.",
        evicted: "Parked subscribers terminated by the server before the drain.",
        delta_fallbacks: "Delta sessions that fell back to a full reconciliation.",
        pushes: "Push batches received by parked subscribers.",
        bytes_in: "Wire bytes received across all sessions.",
        bytes_out: "Wire bytes sent across all sessions.",
    }
}

/// Cross-thread counters and latency accumulators of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    /// The monotone counts.
    pub counts: Counts,
    /// Sessions currently in flight (submitted, not yet reaped).
    pub inflight: AtomicU64,
    /// High-water mark of `inflight`.
    pub peak_inflight: AtomicU64,
    /// Subscribers currently parked.
    pub parked: AtomicU64,
    /// High-water mark of `parked`.
    pub peak_parked: AtomicU64,
    /// Per-phase latency histograms of completed sessions, nanosecond
    /// samples, indexed like [`SyncPhases::named`].
    pub phases: [Histogram; 7],
    /// First few error strings, for diagnosis.
    pub errors: Mutex<Vec<String>>,
}

impl Metrics {
    fn record(&self, result: &SessionResult) {
        let counts = &self.counts;
        match result.outcome {
            Outcome::Completed => counts.completed.inc(1),
            Outcome::Failed => counts.failed.inc(1),
            Outcome::Evicted => counts.evicted.inc(1),
        };
        counts.delta_fallbacks.inc(u64::from(result.delta_fallback));
        counts.pushes.inc(result.pushes);
        counts.bytes_in.inc(result.bytes_in);
        counts.bytes_out.inc(result.bytes_out);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        if matches!(result.outcome, Outcome::Completed) {
            // Phases the workload kind skipped read zero: not samples.
            for (hist, (_, took)) in self.phases.iter().zip(result.phases.named()) {
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

struct WorkerHandle {
    tx: Option<Sender<LoadSession>>,
    wake: UnixStream,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The running engine: a scheduler-facing handle over the worker pool.
pub struct Engine {
    config: EngineConfig,
    workers: Vec<WorkerHandle>,
    metrics: Arc<Metrics>,
    drain: Arc<AtomicBool>,
    next_worker: usize,
    run_started: Instant,
}

impl Engine {
    /// Spawn the worker pool.
    pub fn start(config: EngineConfig) -> io::Result<Engine> {
        let metrics = Arc::new(Metrics::default());
        let drain = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let (tx, rx) = std::sync::mpsc::channel();
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            let worker_metrics = Arc::clone(&metrics);
            let worker_drain = Arc::clone(&drain);
            let thread = std::thread::Builder::new()
                .name(format!("loadgen-worker-{i}"))
                .spawn(move || worker_loop(rx, wake_rx, worker_metrics, worker_drain))?;
            workers.push(WorkerHandle {
                tx: Some(tx),
                wake: wake_tx,
                thread: Some(thread),
            });
        }
        Ok(Engine {
            config,
            workers,
            metrics,
            drain,
            next_worker: 0,
            run_started: Instant::now(),
        })
    }

    /// The shared counters (live — scrape any time).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Submit one arrival *now*: connect, start the session state
    /// machine, hand it to a worker. Failures count as started+failed so
    /// the accounting identity holds.
    pub(crate) fn submit(&mut self, arrival: &Arrival) {
        self.metrics.counts.started.inc(1);
        let inflight = self.metrics.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics
            .peak_inflight
            .fetch_max(inflight, Ordering::SeqCst);

        let connect_started = Instant::now();
        let session = TcpStream::connect(self.config.target)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|stream| {
                let connect = connect_started.elapsed();
                let (set, delta_epoch) = self.session_inputs(arrival);
                LoadSession::start(
                    stream,
                    arrival,
                    set,
                    delta_epoch,
                    connect,
                    connect_started,
                    self.config.spec.clone(),
                )
                .map_err(|e| format!("start: {e}"))
            });
        match session {
            Ok(session) => {
                let w = self.next_worker % self.workers.len();
                self.next_worker += 1;
                let handle = &self.workers[w];
                if let Some(tx) = &handle.tx {
                    if tx.send(session).is_ok() {
                        let _ = (&handle.wake).write(&[1]);
                        return;
                    }
                }
                self.synthetic_failure(arrival.kind, "worker gone".into());
            }
            Err(error) => self.synthetic_failure(arrival.kind, error),
        }
    }

    fn synthetic_failure(&self, kind: Kind, error: String) {
        self.metrics.record(&SessionResult {
            kind,
            outcome: Outcome::Failed,
            error: Some(error),
            phases: SyncPhases::default(),
            verified: false,
            delta_fallback: false,
            pushes: 0,
            bytes_in: 0,
            bytes_out: 0,
            report: None,
        });
    }

    fn session_inputs(&self, arrival: &Arrival) -> (Vec<u64>, Option<u64>) {
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
                (set, None)
            }
            Kind::Delta | Kind::Subscribe => (Vec::new(), Some(self.config.delta_epoch)),
        }
    }

    /// Walk `plan` open-loop from `start`: sleep until each arrival's
    /// planned instant, then submit it. Late arrivals (scheduler overrun)
    /// are submitted immediately — open-loop never skips offered load.
    pub fn run_plan(&mut self, plan: &[Arrival], start: Instant) {
        for arrival in plan {
            let due = start + arrival.at;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.submit(arrival);
        }
    }

    /// Wait for every non-parked session to finish (bounded by
    /// `active_timeout`), optionally hold the parked population for
    /// `park_hold` (so pushes flow to them), then drain: parked
    /// subscribers complete, workers exit. Returns the final metrics.
    pub fn drain(
        mut self,
        active_timeout: Duration,
        park_hold: Duration,
    ) -> (Arc<Metrics>, Duration) {
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
        self.drain.store(true, Ordering::SeqCst);
        for w in &mut self.workers {
            w.tx.take(); // disconnect: workers observe Disconnected
            let _ = (&w.wake).write(&[1]);
        }
        for w in &mut self.workers {
            if let Some(thread) = w.thread.take() {
                let _ = thread.join();
            }
        }
        let elapsed = self.run_started.elapsed();
        (Arc::clone(&self.metrics), elapsed)
    }
}

fn worker_loop(
    rx: Receiver<LoadSession>,
    mut wake: UnixStream,
    metrics: Arc<Metrics>,
    drain: Arc<AtomicBool>,
) {
    let mut poller = pbs_net::poll::Poller::new();
    let mut sessions: Vec<LoadSession> = Vec::new();
    let mut was_parked: Vec<bool> = Vec::new();
    let mut disconnected = false;
    loop {
        // Ingest newly submitted sessions.
        loop {
            match rx.try_recv() {
                Ok(session) => {
                    sessions.push(session);
                    was_parked.push(false);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let draining = drain.load(Ordering::SeqCst);
        if draining {
            for s in sessions.iter_mut() {
                s.finish_parked();
            }
        }

        // Deadline sweep, park-gauge maintenance, reap.
        let now = Instant::now();
        let mut i = 0;
        while i < sessions.len() {
            if sessions[i].past_deadline(now) {
                sessions[i].fail_timeout();
            }
            let parked_now = sessions[i].is_parked();
            if parked_now != was_parked[i] {
                if parked_now {
                    let parked = metrics.parked.fetch_add(1, Ordering::SeqCst) + 1;
                    metrics.peak_parked.fetch_max(parked, Ordering::SeqCst);
                } else {
                    metrics.parked.fetch_sub(1, Ordering::SeqCst);
                }
                was_parked[i] = parked_now;
            }
            if sessions[i].is_finished() {
                if was_parked[i] {
                    metrics.parked.fetch_sub(1, Ordering::SeqCst);
                }
                let mut session = sessions.swap_remove(i);
                was_parked.swap_remove(i);
                if let Some(result) = session.take_result() {
                    metrics.record(&result);
                }
            } else {
                i += 1;
            }
        }
        if disconnected && draining && sessions.is_empty() {
            return;
        }

        // Build this wait's interest set: the wake pipe plus one entry
        // per session (write interest only while output is queued).
        let mut interests = Vec::with_capacity(sessions.len() + 1);
        interests.push((wake.as_raw_fd(), pbs_net::poll::Interest::READABLE));
        let mut by_fd = HashMap::with_capacity(sessions.len());
        for (idx, s) in sessions.iter().enumerate() {
            let interest = if s.wants_write() {
                pbs_net::poll::Interest::BOTH
            } else {
                pbs_net::poll::Interest::READABLE
            };
            interests.push((s.fd(), interest));
            by_fd.insert(s.fd(), idx);
        }
        let events = match poller.wait(&interests, Some(POLL_TICK)) {
            Ok(events) => events,
            Err(_) => continue,
        };
        for event in events {
            if event.fd == wake.as_raw_fd() {
                let mut sink = [0u8; 64];
                while matches!(wake.read(&mut sink), Ok(n) if n > 0) {}
                continue;
            }
            if let Some(&idx) = by_fd.get(&event.fd) {
                let s = &mut sessions[idx];
                if event.writable {
                    s.on_writable();
                }
                if event.readable || event.error {
                    s.on_readable();
                }
            }
        }
    }
}
