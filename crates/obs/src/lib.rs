//! Std-only telemetry substrate for the PBS reproduction.
//!
//! Three pieces, all dependency-free and safe to call from hot paths:
//!
//! * [`Histogram`] — a lock-free log-linear latency histogram (atomic
//!   buckets, ~3% relative quantile error, full `u64` range) with
//!   `record`/`merge`/`quantile` plus count/sum/max aggregates.
//! * [`Registry`] — a registry of named [`Counter`]s, [`Gauge`]s and
//!   histograms keyed by `(family, labels)`, rendered on demand in the
//!   Prometheus text-exposition format (histograms as summaries), and
//!   [`counters!`], which declares a table of counters once.
//! * [`trace`] — structured leveled session tracing: one global tracer,
//!   `key=value` text or JSON lines, deterministic per-session sampling.
//!
//! # Example
//!
//! ```
//! use obs::Registry;
//! use std::time::Duration;
//!
//! let reg = Registry::new();
//! let sessions = reg.counter("pbs_sessions_total", "Sessions accepted.", &[]);
//! let latency = reg.histogram("pbs_apply_seconds", "Apply latency.", &[], 1e-9);
//!
//! sessions.inc(1);
//! latency.record_duration(Duration::from_micros(250));
//!
//! let text = reg.render_prometheus();
//! assert!(text.contains("pbs_sessions_total 1"));
//! assert!(text.contains("# TYPE pbs_apply_seconds summary"));
//! assert_eq!(latency.count(), 1);
//! assert!(latency.quantile(0.5) >= latency.max()); // bucket upper bound
//! ```

#![warn(missing_docs)]

mod hist;
mod registry;
pub mod trace;

pub use hist::{Histogram, SUB_BITS, SUB_BUCKETS};
pub use registry::{Counter, Gauge, Registry};
