//! The reconciliation session server: a TCP acceptor feeding N
//! event-loop workers, and one resumable session state machine per
//! connection (see the `event_loop` module).
//!
//! Each accepted connection runs the `docs/WIRE.md` session: handshake
//! (with store routing through the [`StoreRegistry`]) →
//! optional estimator exchange → sketch/report rounds (possibly pipelined:
//! one `Sketches` frame may carry several consecutive rounds' layers) →
//! final element transfer. A `Hello` carrying the client's last-known
//! store epoch short-circuits all of that when the store's changelog still
//! covers the epoch: the server streams the changes since it (`DeltaBatch*`
//! → `DeltaDone`). A session that holds an epoch baseline (from either
//! path) may then send `Subscribe` to go *live*: the server pushes every
//! subsequent store mutation to it as `DeltaBatch*` → `DeltaDone` bursts
//! until the subscriber disconnects, stalls past its buffer cap
//! (`FullResyncRequired` + close), or stops answering keepalive pings.
//! Outside the delta/push paths the server is the *responder* throughout —
//! it never sends a frame except in reply. Hostile input is bounded at
//! every layer: frame sizes by the transport cap, handshake values by
//! [`crate::frame::Hello::config`], the parameterized difference by
//! [`ServerConfig::max_d`], rounds by [`ServerConfig::round_cap`],
//! pipelining by [`ServerConfig::max_pipeline_depth`], wall clock by
//! [`ServerConfig::session_deadline`], concurrent subscriptions by
//! [`ServerConfig::max_subscribers`], per-subscriber memory by
//! [`ServerConfig::subscriber_buffer`], and sketch shapes are validated
//! against the negotiated codec before they reach the BCH codec's
//! `Sketch::combine` capacity assertion.

use crate::event_loop::{spawn_acceptor, spawn_worker, Notice, SessionMetrics, Shared, WorkerLink};
use crate::store::StoreRegistry;
use crate::TransportConfig;
use obs::Counter;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::store::{InMemoryStore, SetStore};

/// Server-side limits and event-loop sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Socket/framing knobs applied to every accepted connection.
    pub transport: TransportConfig,
    /// Event-loop worker threads. Each worker multiplexes any number of
    /// sessions over a readiness loop, so this sizes CPU parallelism —
    /// not the concurrent-session cap (there is none beyond the OS).
    pub workers: usize,
    /// Hard cap on sketch/report rounds per connection.
    pub round_cap: u32,
    /// Wall-clock budget per connection, measured from accept to the
    /// final ack. Live subscriptions are exempt — once a session reaches
    /// its ack it may stay subscribed indefinitely.
    pub session_deadline: Duration,
    /// Largest difference cardinality the server will parameterize a
    /// session for (bounds the group count a hostile `known_d` or a wild
    /// estimate can demand). Keep consistent with the frame cap: a first
    /// round ships one sketch per group in a single `Sketches` frame,
    /// roughly 15 bytes per unit of `d` — the default 2¹⁸ stays a few MiB
    /// under the default 16 MiB `max_frame`.
    pub max_d: u64,
    /// Cap on the element count of the client's final `Done` transfer.
    /// The transfer is a single frame, so `(max_frame − 5) / 8` is an
    /// additional hard ceiling.
    pub max_done_elements: u32,
    /// Most pipelined round layers accepted in one `Sketches` frame. Each
    /// layer costs
    /// one full per-group decode pass, so this bounds per-frame CPU the
    /// same way `round_cap` bounds it per session.
    pub max_pipeline_depth: u32,
    /// Most concurrently live subscriptions (`Streaming` sessions) across
    /// the whole server; a `Subscribe` past the cap is refused.
    pub max_subscribers: usize,
    /// Idle keepalive interval on live subscriptions: after this much
    /// quiet the server sends `Ping`, and a subscriber silent for three
    /// intervals is presumed gone and closed.
    pub keepalive: Duration,
    /// Cap on bytes queued (user-space) toward one subscriber. A push
    /// burst that would overrun it evicts the subscriber with
    /// `FullResyncRequired` instead of buffering without bound.
    pub subscriber_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            transport: TransportConfig::default(),
            workers: 4,
            round_cap: 64,
            session_deadline: Duration::from_secs(120),
            max_d: 1 << 18,
            max_done_elements: 1 << 20,
            max_pipeline_depth: 4,
            max_subscribers: 1024,
            keepalive: Duration::from_secs(10),
            subscriber_buffer: 1 << 20,
        }
    }
}

/// Monotonic counters exported by a running server. All loads/stores are
/// relaxed — they are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections handed to a worker.
    pub sessions_started: Counter,
    /// Sessions that ran to a clean end (final ack delivered, or a live
    /// subscription that ended after it).
    pub sessions_completed: Counter,
    /// Sessions that ended in any error (including peer disconnects
    /// mid-protocol).
    pub sessions_failed: Counter,
    /// Protocol rounds served across all sessions (a pipelined frame
    /// counts once per layer it carries).
    pub rounds: Counter,
    /// Sketch/report exchanges served — request-response round trips. At
    /// most `rounds`; lower exactly when clients pipelined.
    pub round_trips: Counter,
    /// Wire bytes received, framing included.
    pub bytes_in: Counter,
    /// Wire bytes sent, framing included.
    pub bytes_out: Counter,
    /// Frames received.
    pub frames_in: Counter,
    /// Frames sent.
    pub frames_out: Counter,
    /// BCH decode failures across all sessions (each one split a group).
    pub decode_failures: Counter,
    /// Estimator exchanges served.
    pub estimator_exchanges: Counter,
    /// Elements ingested from clients' final transfers.
    pub elements_received: Counter,
    /// Sessions served entirely from the changelog — the delta
    /// short-circuit (no reconciliation ran).
    pub delta_sessions: Counter,
    /// Delta requests answered with `FullResyncRequired` (changelog
    /// trimmed, epoch from the future, or an epoch-less store).
    pub delta_fallbacks: Counter,
    /// `DeltaBatch` frames streamed in delta catch-ups.
    pub delta_batches: Counter,
    /// Elements (adds plus removes) streamed in delta catch-ups.
    pub delta_elements: Counter,
    /// Live subscriptions accepted (`Subscribe` frames honored).
    pub subscriptions: Counter,
    /// `DeltaBatch` frames pushed to live subscribers.
    pub push_batches: Counter,
    /// Elements (adds plus removes) pushed to live subscribers.
    pub push_elements: Counter,
    /// Subscribers evicted for falling behind (buffer cap or write
    /// stall).
    pub subscribers_evicted: Counter,
    /// Keepalive `Ping` frames sent to idle subscribers.
    pub keepalive_pings: Counter,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections handed to a worker.
    pub sessions_started: u64,
    /// Sessions that ran to a clean end.
    pub sessions_completed: u64,
    /// Sessions that ended in any error.
    pub sessions_failed: u64,
    /// Protocol rounds served (pipelined layers counted individually).
    pub rounds: u64,
    /// Sketch/report round trips served.
    pub round_trips: u64,
    /// Wire bytes received.
    pub bytes_in: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// BCH decode failures.
    pub decode_failures: u64,
    /// Estimator exchanges served.
    pub estimator_exchanges: u64,
    /// Elements ingested from clients.
    pub elements_received: u64,
    /// Sessions served entirely from the changelog (delta path).
    pub delta_sessions: u64,
    /// Delta requests that fell back to a full reconciliation.
    pub delta_fallbacks: u64,
    /// `DeltaBatch` frames streamed in delta catch-ups.
    pub delta_batches: u64,
    /// Elements streamed in delta catch-ups.
    pub delta_elements: u64,
    /// Live subscriptions accepted.
    pub subscriptions: u64,
    /// `DeltaBatch` frames pushed to live subscribers.
    pub push_batches: u64,
    /// Elements pushed to live subscribers.
    pub push_elements: u64,
    /// Subscribers evicted for falling behind.
    pub subscribers_evicted: u64,
    /// Keepalive pings sent.
    pub keepalive_pings: u64,
}

impl ServerStats {
    /// Build a stats block whose counters live in `metrics` under
    /// `{prefix}{field}_total` with the given label set, so the Prometheus
    /// rendering and the [`StatsSnapshot`] compatibility view read the same
    /// atomics. Registration is idempotent: re-registering the same
    /// `(prefix, labels)` pair (a store replaced at runtime) resumes the
    /// existing counters instead of resetting them.
    pub fn registered(
        metrics: &obs::Registry,
        prefix: &str,
        labels: &[(&str, &str)],
    ) -> ServerStats {
        let c = |name: &str, help: &str| {
            metrics.counter(&format!("{prefix}{name}_total"), help, labels)
        };
        ServerStats {
            sessions_started: c("sessions_started", "Connections handed to a worker."),
            sessions_completed: c("sessions_completed", "Sessions that ran to a clean end."),
            sessions_failed: c("sessions_failed", "Sessions that ended in any error."),
            rounds: c(
                "rounds",
                "Protocol rounds served (pipelined layers counted individually).",
            ),
            round_trips: c(
                "round_trips",
                "Sketch/report request-response round trips served.",
            ),
            bytes_in: c("bytes_in", "Wire bytes received, framing included."),
            bytes_out: c("bytes_out", "Wire bytes sent, framing included."),
            frames_in: c("frames_in", "Frames received."),
            frames_out: c("frames_out", "Frames sent."),
            decode_failures: c(
                "decode_failures",
                "BCH decode failures (each one split a group).",
            ),
            estimator_exchanges: c("estimator_exchanges", "Estimator exchanges served."),
            elements_received: c(
                "elements_received",
                "Elements ingested from clients' final transfers.",
            ),
            delta_sessions: c(
                "delta_sessions",
                "Sessions served entirely from the changelog (delta path).",
            ),
            delta_fallbacks: c(
                "delta_fallbacks",
                "Delta requests answered with FullResyncRequired.",
            ),
            delta_batches: c(
                "delta_batches",
                "DeltaBatch frames streamed in delta catch-ups.",
            ),
            delta_elements: c("delta_elements", "Elements streamed in delta catch-ups."),
            subscriptions: c("subscriptions", "Live subscriptions accepted."),
            push_batches: c(
                "push_batches",
                "DeltaBatch frames pushed to live subscribers.",
            ),
            push_elements: c("push_elements", "Elements pushed to live subscribers."),
            subscribers_evicted: c(
                "subscribers_evicted",
                "Subscribers evicted for falling behind.",
            ),
            keepalive_pings: c(
                "keepalive_pings",
                "Keepalive Ping frames sent to idle subscribers.",
            ),
        }
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            sessions_started: get(&self.sessions_started),
            sessions_completed: get(&self.sessions_completed),
            sessions_failed: get(&self.sessions_failed),
            rounds: get(&self.rounds),
            round_trips: get(&self.round_trips),
            bytes_in: get(&self.bytes_in),
            bytes_out: get(&self.bytes_out),
            frames_in: get(&self.frames_in),
            frames_out: get(&self.frames_out),
            decode_failures: get(&self.decode_failures),
            estimator_exchanges: get(&self.estimator_exchanges),
            elements_received: get(&self.elements_received),
            delta_sessions: get(&self.delta_sessions),
            delta_fallbacks: get(&self.delta_fallbacks),
            delta_batches: get(&self.delta_batches),
            delta_elements: get(&self.delta_elements),
            subscriptions: get(&self.subscriptions),
            push_batches: get(&self.push_batches),
            push_elements: get(&self.push_elements),
            subscribers_evicted: get(&self.subscribers_evicted),
            keepalive_pings: get(&self.keepalive_pings),
        }
    }
}

/// A running reconciliation server. Dropping it without calling
/// [`Server::shutdown`] detaches the threads (they keep serving until the
/// process exits).
pub struct Server {
    local_addr: SocketAddr,
    stats: Arc<ServerStats>,
    registry: Arc<StoreRegistry>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_links: Vec<WorkerLink>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and serve a single anonymous store — the PR-3 shape,
    /// kept as the one-store convenience around [`Server::bind_registry`].
    /// `addr` may carry port 0 to let the OS pick; read the effective
    /// address back with [`Server::local_addr`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Arc<dyn SetStore>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::bind_registry(addr, Arc::new(StoreRegistry::single(store)), config)
    }

    /// Bind `addr` and route each session to the [`StoreRegistry`] entry
    /// its `Hello` names. The registry may keep growing while the server
    /// runs.
    pub fn bind_registry(
        addr: impl ToSocketAddrs,
        registry: Arc<StoreRegistry>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(config.workers > 0, "server needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = registry.metrics();
        let stats = Arc::new(ServerStats::registered(&metrics, "pbs_server_", &[]));
        let shutdown = Arc::new(AtomicBool::new(false));

        let shared = Arc::new(Shared {
            registry: Arc::clone(&registry),
            config,
            stats: Arc::clone(&stats),
            live_subscribers: AtomicUsize::new(0),
            session_metrics: SessionMetrics::registered(&metrics),
            next_session_id: AtomicU64::new(1),
        });

        let mut worker_links = Vec::with_capacity(config.workers);
        let mut worker_handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let (link, handle) = spawn_worker(i, Arc::clone(&shared))?;
            worker_links.push(link);
            worker_handles.push(handle);
        }

        let accept_handle = spawn_acceptor(listener, worker_links.clone(), Arc::clone(&shutdown))?;

        Ok(Server {
            local_addr,
            stats,
            registry,
            shutdown,
            accept_handle: Some(accept_handle),
            worker_links,
            worker_handles,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared handle to the server-wide counters (every session counts
    /// here *and* in its routed store's own [`crate::store::RegisteredStore::stats`]).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The store registry this server routes sessions into.
    pub fn registry(&self) -> Arc<StoreRegistry> {
        Arc::clone(&self.registry)
    }

    /// The metric registry behind this server's counters and histograms —
    /// shared with the store registry, so per-store and store-layer metrics
    /// render alongside the server-wide ones. Feed it to
    /// [`crate::admin::AdminServer`] or render it directly.
    pub fn metrics(&self) -> Arc<obs::Registry> {
        self.registry.metrics()
    }

    /// The flag [`Server::shutdown`] raises before draining. The admin
    /// endpoint's `/healthz` watches it to flip from `ok` to `draining`.
    pub fn shutdown_signal(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Stop accepting, wake every worker, and join every thread. Sessions
    /// still mid-protocol are cut (counted failed); sessions past their
    /// final ack — parked or live-streaming subscribers included — are
    /// flushed once and closed cleanly (counted completed), so a server
    /// with open subscriptions shuts down promptly and the
    /// `started == completed + failed` invariant holds in the returned
    /// snapshot.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking `accept` with a throwaway connection. A
        // wildcard bind address is not connectable on every platform, so
        // aim at the matching loopback instead.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // The acceptor is joined, so no further Conn notices can follow
        // the Shutdown notice each worker drains next.
        for link in &self.worker_links {
            let _ = link.tx.send(Notice::Shutdown);
            link.wake.wake();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        self.stats.snapshot()
    }
}
