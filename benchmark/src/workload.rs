//! The four workloads. Each is one parameterization of the same traffic
//! mix — full reconciliations, write batches each followed by a delta
//! catch-up, and live pushes to parked subscribers — so every end-to-end
//! metric is defined on every workload; what differs is which of the three
//! dominates and what state it runs against. `README.md` says why each
//! exists and what it bypasses.

use pbs_net::Pipeline;
use std::time::Duration;

/// Elements added and elements removed by one write batch.
pub const CHURN_STEP: usize = 25;

/// Event-loop worker threads of the server under test (= `nproc` of the
/// box the bounds were measured on), and parked subscribers — one per
/// worker, so a session that occupies a worker always stalls exactly one
/// subscriber, whichever worker the acceptor dealt it to.
pub const WORKERS: usize = 2;

/// Pushes later than this miss the latency limit.
pub const PUSH_LIMIT: Duration = Duration::from_millis(10);

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Elements in the server's store.
    pub store_len: usize,
    /// WAL-backed store (`open_durable`, default `DurableOptions`, so
    /// `sync_writes = false`) instead of an in-memory one.
    pub durable: bool,
    /// Elements of the server's set each full-sync client lacks (`B \ A`).
    pub miss: usize,
    /// Elements each full-sync client holds that the server lacks
    /// (`A \ B`); the server ingests them and the harness removes them
    /// again, untimed.
    pub extra: usize,
    pub pipeline: Pipeline,
    /// Write batches (each followed by a delta catch-up sync) per cycle,
    /// after the cycle's one full sync.
    pub churn_per_cycle: usize,
    /// Full syncs every run completes whatever `--seconds` says; the
    /// exact-repeat metrics are computed over exactly these, so they do not
    /// depend on how many more the box fits into the run.
    pub min_syncs: usize,
    /// Period of the open-loop writer thread (one single-element toggle
    /// per period, timed from its due instant), where there is one.
    pub writer_period: Option<Duration>,
}

impl Workload {
    /// True difference cardinality of each full sync.
    pub fn d(&self) -> usize {
        self.miss + self.extra
    }

    /// `--smoke`: the same mix at a hundredth of the size.
    pub fn smoke(mut self) -> Workload {
        self.store_len /= 100;
        self.miss = self.miss.div_ceil(100);
        self.extra = self.extra.div_ceil(100);
        self.churn_per_cycle = self.churn_per_cycle.div_ceil(10);
        self.min_syncs = 2;
        self
    }
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "full_1m_d1k",
            store_len: 1_000_000,
            durable: false,
            miss: 500,
            extra: 500,
            pipeline: Pipeline::Depth(1),
            churn_per_cycle: 500,
            min_syncs: 4,
            writer_period: None,
        },
        Workload {
            name: "diff_100k_d10k",
            store_len: 100_000,
            durable: false,
            miss: 5_000,
            extra: 5_000,
            pipeline: Pipeline::Auto,
            churn_per_cycle: 250,
            min_syncs: 12,
            writer_period: None,
        },
        Workload {
            name: "churn_100k_durable",
            store_len: 100_000,
            durable: true,
            miss: 50,
            extra: 50,
            pipeline: Pipeline::Depth(1),
            churn_per_cycle: 2_000,
            min_syncs: 6,
            writer_period: None,
        },
        Workload {
            name: "push_under_full_1m",
            store_len: 1_000_000,
            durable: false,
            miss: 500,
            extra: 0,
            pipeline: Pipeline::Depth(1),
            churn_per_cycle: 500,
            min_syncs: 4,
            writer_period: Some(Duration::from_millis(20)),
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
