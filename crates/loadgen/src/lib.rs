//! Open-loop load harness for the PBS reconciliation server.
//!
//! The repository's north star is a service that holds millions of
//! mostly-idle sessions while reconciliations stream through beside them;
//! this crate is the instrument that *measures* that claim instead of
//! asserting it. Three layers, each usable on its own:
//!
//! * [`plan`] — a seeded open-loop arrival schedule: fixed offered rate
//!   with deterministic jitter, workload kinds drawn from a configurable
//!   mix. A pure function of its seed, so runs replay exactly.
//! * [`engine`] — the plan's sessions dialed to [`pbs_net::Dialer`]: the
//!   readiness loop the server runs on, and a blocking `pbs_net::sync` on
//!   its caller's thread, driving the same client connection (machine,
//!   clocks, phase stamps), thousands of sessions per thread; with exact
//!   `started == completed + failed + evicted` accounting.
//! * [`report`] — p50/p99/p999 per-phase tables and machine-readable
//!   JSON.
//!
//! The `pbs-loadgen` binary ties the layers together; see the README's
//! "Load testing & mesh operations" section.

pub mod engine;
pub mod plan;
pub mod report;

pub use engine::{Engine, EngineConfig, Metrics, Outcome, SessionResult};
pub use plan::{build_plan, Arrival, Kind, Mix, PlanConfig};
pub use report::Report;
