//! The reconciliation session server: a TCP acceptor feeding N
//! event-loop workers (the `event_loop` module), each driving one
//! sans-IO protocol machine per connection (the `server_machine` module)
//! and lending it to a set-up thread of its own for a full session's
//! O(|B|) set-up.
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
use crate::server_machine::Resources;
use crate::store::StoreRegistry;
use crate::TransportConfig;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::store::SetStore;

/// Server-side limits and event-loop sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Socket/framing knobs applied to every accepted connection.
    pub transport: TransportConfig,
    /// Event-loop worker threads, each with a set-up thread beside it (a
    /// server runs `2 × workers` threads and an acceptor). A worker
    /// multiplexes any number of sessions over a readiness loop and hands
    /// the O(|B|) set-up of its full sessions to its set-up thread, which
    /// runs them one at a time in arrival order. So this sizes CPU
    /// parallelism — not the concurrent-session cap: there is none beyond
    /// the OS, on the sessions a loop holds or on the set-up units queued
    /// behind its thread. That cap, and the typed `Busy` refusal past it,
    /// is the half of ROADMAP direction 5 still to come.
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
    /// Keepalive interval on live subscriptions: a subscriber the server
    /// has heard nothing from for this long is sent a `Ping` (whatever was
    /// pushed to it meanwhile), and one silent for three intervals is
    /// presumed gone and closed.
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

obs::counters! {
    /// Monotonic counters exported by a running server, server-wide as
    /// `pbs_server_*_total` and per store as `pbs_store_*_total{store}`.
    /// All loads/stores are relaxed — they are statistics, not
    /// synchronization.
    pub struct ServerStats => StatsSnapshot {
        sessions_started: "Connections handed to a worker.",
        /// Final ack delivered, or a live subscription that ended after it.
        sessions_completed: "Sessions that ran to a clean end.",
        /// Peer disconnects mid-protocol included.
        sessions_failed: "Sessions that ended in any error.",
        rounds: "Protocol rounds served (pipelined layers counted individually).",
        /// At most `rounds`; lower exactly when clients pipelined.
        round_trips: "Sketch/report request-response round trips served.",
        bytes_in: "Wire bytes received, framing included.",
        bytes_out: "Wire bytes sent, framing included.",
        frames_in: "Frames received.",
        frames_out: "Frames sent.",
        decode_failures: "BCH decode failures (each one split a group).",
        estimator_exchanges: "Estimator exchanges served.",
        elements_received: "Elements ingested from clients' final transfers.",
        /// No reconciliation ran.
        delta_sessions: "Sessions served entirely from the changelog (delta path).",
        /// Changelog trimmed, epoch from the future, or an epoch-less store.
        delta_fallbacks: "Delta requests answered with FullResyncRequired.",
        delta_batches: "DeltaBatch frames streamed in delta catch-ups.",
        /// Adds plus removes.
        delta_elements: "Elements streamed in delta catch-ups.",
        /// `Subscribe` frames honored.
        subscriptions: "Live subscriptions accepted.",
        push_batches: "DeltaBatch frames pushed to live subscribers.",
        /// Adds plus removes.
        push_elements: "Elements pushed to live subscribers.",
        /// Buffer cap or write stall.
        subscribers_evicted: "Subscribers evicted for falling behind.",
        keepalive_pings: "Keepalive Ping frames sent to idle subscribers.",
        /// Or found current.
        views_patched: "Full sessions served from the store's cached view, patched from the changelog.",
        views_built: "Full sessions that built the store's view from a snapshot.",
        /// Each took and partitioned a snapshot of its own.
        views_declined: "Full sessions served from a private snapshot (no view).",
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
    /// Each worker, then its set-up thread — which exits once its worker has.
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
            res: Resources {
                registry: Arc::clone(&registry),
                config,
                stats: Arc::clone(&stats),
                live_subscribers: AtomicUsize::new(0),
            },
            session_metrics: SessionMetrics::registered(&metrics),
            next_session_id: AtomicU64::new(1),
        });

        let mut worker_links = Vec::with_capacity(config.workers);
        let mut worker_handles = Vec::with_capacity(2 * config.workers);
        for i in 0..config.workers {
            let (link, handles) = spawn_worker(i, Arc::clone(&shared))?;
            worker_links.push(link);
            worker_handles.extend(handles);
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
    pub(crate) fn shutdown_signal(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Stop accepting, wake every worker, and join every thread (a set-up
    /// thread exits with the first unit it finishes once its worker is
    /// gone, whatever is still queued). Sessions still mid-protocol — one
    /// whose set-up is out on that thread included — are cut (counted
    /// failed); sessions past their final ack — parked or live-streaming
    /// subscribers included — are flushed once and closed cleanly (counted
    /// completed), so a server with open subscriptions shuts down promptly
    /// and the `started == completed + failed` invariant holds in the
    /// returned snapshot.
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
