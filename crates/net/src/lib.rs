//! Networked PBS set reconciliation.
//!
//! PR 1–2 made the PBS state machines fast; this crate puts them on a
//! socket. It is deliberately `std`-only (`std::net` + `std::thread` — the
//! build environment has no crates.io access, so no async runtime):
//!
//! * [`frame`] — a length-prefixed, CRC-checked frame codec
//!   ([`frame::Frame`]) layered over the payload encoders of
//!   [`pbs_core::wire`]; the format is specified in `docs/WIRE.md`.
//! * [`store`] — the element store, [`MutableStore`]: a set with an
//!   epoch-stamped changelog (the delta feed), optionally a WAL under it,
//!   one commit function, and one cached hash-ordered view per epoch
//!   ([`SetStore::view`]) that full sessions share and patch from the
//!   changelog instead of re-partitioning the set each; and the
//!   [`StoreRegistry`] a multi-tenant server routes the handshake's store
//!   name through.
//! * [`server`] — [`server::Server`]: an event-driven TCP server — one
//!   acceptor plus a few `poll(2)`-based event-loop workers, each
//!   multiplexing many non-blocking connections. The server half of the
//!   protocol is one sans-IO state machine per session around a
//!   [`pbs_core::BobSession`] (handshake with store routing → estimator
//!   exchange → possibly-pipelined sketch/report rounds → final element
//!   transfer → optional live subscription, or the client's next session
//!   on the same connection; round and pipeline-depth caps), wrapped in a
//!   connection that owns its timers (deadline,
//!   read/write inactivity, keepalive); the event loop drives it.
//!   Atomic [`server::ServerStats`] are exported server-wide and per
//!   store.
//! * [`admin`] — [`admin::AdminServer`]: a hand-rolled HTTP/1.0
//!   observability endpoint (`/metrics`, `/healthz`, `/stats.json`)
//!   serving the [`obs::Registry`] a server's instrumentation records
//!   into; see `docs/OBSERVABILITY.md` for the metric catalog.
//! * [`machine`] — [`machine::ClientMachine`]: the client half of the
//!   protocol as one sans-IO state machine around a
//!   [`pbs_core::AliceSession`] (handshake, delta catch-up, estimator
//!   exchange, possibly-pipelined rounds with a fixed or per-trip adaptive
//!   depth, final transfer, live subscription). Every client in the
//!   workspace is a driver over it.
//! * [`client`] — [`client::SyncClient`]: a blocking call — returns
//!   the reconciled difference plus transport accounting;
//!   [`client::SyncClient::subscribe`] holds the connection open as a
//!   live push subscription. Each runs the readiness loop the server runs
//!   on over its one connection, on the caller's thread, and a client and
//!   its clones keep a connection the server parked for their next call;
//!   [`client::Dialer`] puts outbound sessions by the thousand on loops
//!   of its own. One client connection (machine, clocks, phase stamps)
//!   and one driver serve both.
//!
//! The **delta-subscription** path: a client carrying the
//! epoch of its previous sync ([`ClientConfig::delta_epoch`]) is served
//! exactly the changes since that epoch from the store's changelog —
//! O(|changes|) bytes, no reconciliation — and falls back to the classic
//! session when the changelog cannot cover the epoch. After the catch-up,
//! a `Subscribe` frame parks the session in the server's streaming state
//! and every further mutation is pushed to the client as it happens, with
//! keepalive pings and per-subscriber backpressure. See `docs/WIRE.md`.
//!
//! `server.rs`'s tests reconcile 100k-element sets over real sockets
//! and hold every byte each way, and the report's and the server's byte
//! ledgers, to the same session run in process by the simulator's
//! `Duet`, which drives the same two machines with no socket between.
//!
//! # Example
//!
//! Reconcile two in-process sets over a real socket pair:
//!
//! ```
//! use pbs_net::{MutableStore, Server, ServerConfig, SyncClient};
//! use std::sync::Arc;
//!
//! let store = Arc::new(MutableStore::new(2..=100u64));
//! let server = Server::bind("127.0.0.1:0", store.clone(), ServerConfig::default())?;
//!
//! let alice: Vec<u64> = (1..=99).collect();
//! let report = SyncClient::connect(server.local_addr())?.sync(&alice)?;
//! assert!(report.verified);
//! let mut diff = report.recovered.clone();
//! diff.sort_unstable();
//! assert_eq!(diff, vec![1, 100]);          // A△B
//! assert!(store.contains(1));              // server ingested A \ B…
//! assert_eq!(report.epoch, Some(0));       // …after the snapshot it acked
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod admin;
pub mod client;
pub(crate) mod conn;
pub(crate) mod crc;
pub(crate) mod disk;
pub(crate) mod event_loop;
pub mod frame;
pub mod machine;
pub mod mesh;
pub(crate) mod mux;
pub(crate) mod poll;
pub mod server;
pub(crate) mod server_machine;
pub mod setio;
#[cfg(test)]
pub(crate) mod sim;
pub mod store;
pub mod wal;
pub mod watch;

#[cfg(test)]
mod explore;

pub use admin::{AdminServer, AdminState};
pub use client::{
    sync, sync_with_retry, ClientConfig, DeltaFold, DeltaReport, Dialed, Dialer, Ended, Pipeline,
    RetryPolicy, Subscription, SyncClient, SyncPhases, SyncReport,
};
pub use frame::{Frame, Hello, PROTOCOL_VERSION};
pub use machine::{ClientMachine, Mode, Phase, Step};
pub use mesh::{MeshConfig, MeshSchedule, MeshStats, PeerSnapshot, PeerStats};
pub use server::{Server, ServerConfig};
pub use store::{ChangeBatch, DeltaAnswer, MutableStore, SetStore, StoreRegistry, ViewAnswer};
pub use wal::{DurableOptions, RecoveryReport};

use pbs_core::wire::WireError;
use std::time::Duration;

/// Why a frame could not be produced or accepted at the framing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix (or a body about to be sent) exceeds the
    /// configured maximum frame size.
    TooLarge {
        /// Declared or actual body length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The frame CRC did not match the body.
    BadCrc,
    /// Unknown frame type byte.
    BadType(u8),
    /// A `Hello` opened with the wrong magic number.
    BadMagic(u32),
    /// A `Hello` carried a protocol version other than
    /// [`frame::PROTOCOL_VERSION`].
    Version(u16),
    /// The frame payload failed to decode.
    Payload(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::BadCrc => write!(f, "frame CRC mismatch"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t:#x}"),
            FrameError::BadMagic(m) => write!(f, "bad hello magic {m:#010x}"),
            FrameError::Version(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Payload(e) => write!(f, "frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Errors surfaced by the networked client and server sessions.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (includes read/write timeouts).
    Io(std::io::Error),
    /// Framing-layer failure (size, CRC, type, payload decode).
    Frame(FrameError),
    /// The peer reported a fatal error and closed the session.
    Remote {
        /// The peer's machine-readable cause.
        code: frame::ErrorCode,
        /// The peer's human-readable detail.
        message: String,
    },
    /// The peer sent a well-formed frame the local state machine cannot
    /// accept at this point of the session.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o: {e}"),
            NetError::Frame(e) => write!(f, "framing: {e}"),
            NetError::Remote { code, message } => {
                write!(f, "peer error [{code}]: {message}")
            }
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

/// Socket-and-framing knobs shared by client and server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Maximum accepted/produced frame body size in bytes.
    pub max_frame: u32,
    /// Read-idle: how long the peer may send nothing (`None`: forever).
    pub read_timeout: Option<Duration>,
    /// Write stall: how long queued bytes may find no taker (`None`: forever).
    pub write_timeout: Option<Duration>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_frame: frame::DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}
