//! Open-loop load harness for the PBS reconciliation server.
//!
//! The repository's north star is a service that holds millions of
//! mostly-idle sessions while reconciliations stream through beside them;
//! this crate is the instrument that *measures* that claim instead of
//! asserting it. Four layers, each usable on its own:
//!
//! * [`plan`] — a seeded open-loop arrival schedule: fixed offered rate
//!   with deterministic jitter, workload kinds drawn from a configurable
//!   mix. A pure function of its seed, so runs replay exactly.
//! * [`session`] — the non-blocking driver of [`pbs_net::ClientMachine`]
//!   (the same client protocol machine the blocking `pbs_net::sync` runs)
//!   over [`pbs_net::mux::MuxStream`], with per-phase latency marks
//!   stamped at the machine's phase boundaries.
//! * [`engine`] — a small worker pool multiplexing thousands of those
//!   sessions per thread (the client-side twin of PR 7's server event
//!   loop), with exact `started == completed + failed + evicted`
//!   accounting.
//! * [`report`] — p50/p99/p999 per-phase tables and machine-readable
//!   JSON.
//!
//! The `pbs-loadgen` binary ties the layers together; see the README's
//! "Load testing & mesh operations" section.

pub mod engine;
pub mod plan;
pub mod report;
pub mod session;

pub use engine::{Engine, EngineConfig, Metrics};
pub use plan::{build_plan, Arrival, Kind, Mix, PlanConfig};
pub use report::Report;
pub use session::{LoadSession, Outcome, SessionResult, SessionSpec};
