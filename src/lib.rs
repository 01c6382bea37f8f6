//! Umbrella crate of the PBS reproduction workspace.
//!
//! This crate only hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the actual functionality lives
//! in the member crates, re-exported here for convenience:
//!
//! * [`pbs_core`] — the Parity Bitmap Sketch scheme (the paper's contribution)
//! * [`pbs_net`] — the networked subsystem: framed TCP transport, session
//!   server and sync client (see `docs/WIRE.md`)
//! * [`obs`] — std-only telemetry: latency histograms, the Prometheus
//!   metric registry, and structured tracing (see `docs/OBSERVABILITY.md`)
//! * [`protocol`] — the `Reconciler` trait, transcripts and workloads
//! * [`analysis`] — the Markov-chain framework and parameter optimizer
//! * [`estimator`] — the Tug-of-War difference-cardinality estimator
//! * [`bch`], [`gf`], [`xhash`] — coding and hashing substrates
//! * [`pinsketch`], [`ddigest`], [`graphene`], [`iblt`] — baselines and their
//!   substrates (Appendix B's Strata and min-wise estimators are in
//!   [`ddigest`], the Bloom filter is inside [`graphene`])

#![warn(missing_docs)]

pub use analysis;
pub use bch;
pub use ddigest;
pub use estimator;
pub use gf;
pub use graphene;
pub use iblt;
pub use loadgen;
pub use obs;
pub use pbs_core;
pub use pbs_net;
pub use pinsketch;
pub use protocol;
pub use xhash;
