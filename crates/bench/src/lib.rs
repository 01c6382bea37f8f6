//! Shared experiment harness used by the figure/table regeneration binaries
//! and the Criterion benchmarks.
//!
//! Every `fig*`/`table*`/`section*`/`ablation*` binary in `src/bin/`
//! regenerates the table or figure of the paper its name says, by running
//! [`Reconciler`] implementations
//! on [`protocol::Workload`] instances and aggregating the paper's two
//! metrics: communication overhead and encode/decode time, plus the success
//! rate against ground truth.
//!
//! ## Scale knobs
//!
//! The paper runs `|A| = 10^6`, `d ∈ [10, 10^5]`, 1,000 trials per point on a
//! dedicated workstation. A full-fidelity run is possible here too but takes
//! hours (PinSketch alone is quadratic in `d`), so the binaries default to a
//! reduced-but-same-shape scale and honour these environment variables:
//!
//! * `PBS_BENCH_SET_SIZE` — `|A|` (default 50,000)
//! * `PBS_BENCH_TRIALS` — trials per point (default 5)
//! * `PBS_BENCH_D_VALUES` — comma-separated list of `d` values
//! * `PBS_BENCH_FULL=1` — paper-scale defaults (10^6 elements, 100 trials)
//!
//! Their output is printed, not committed: no file in the repository
//! records a run of them.

#![warn(missing_docs)]

use protocol::{symmetric_difference, Reconciler, Workload};
use std::time::Duration;

/// Scale parameters for one experiment sweep.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Cardinality of Alice's set.
    pub set_size: usize,
    /// Number of independent (A, B) instances per point.
    pub trials: u64,
    /// The set-difference cardinalities to sweep.
    pub d_values: Vec<usize>,
}

impl Scale {
    /// Resolve the scale from the environment, starting from the given
    /// defaults (see the crate docs for the variables).
    pub fn from_env(default_set_size: usize, default_trials: u64, default_d: &[usize]) -> Self {
        let full = std::env::var("PBS_BENCH_FULL")
            .map(|v| v == "1")
            .unwrap_or(false);
        let mut scale = if full {
            Scale {
                set_size: 1_000_000,
                trials: 100,
                d_values: vec![10, 100, 1_000, 10_000, 100_000],
            }
        } else {
            Scale {
                set_size: default_set_size,
                trials: default_trials,
                d_values: default_d.to_vec(),
            }
        };
        if let Ok(v) = std::env::var("PBS_BENCH_SET_SIZE") {
            if let Ok(n) = v.parse() {
                scale.set_size = n;
            }
        }
        if let Ok(v) = std::env::var("PBS_BENCH_TRIALS") {
            if let Ok(n) = v.parse() {
                scale.trials = n;
            }
        }
        if let Ok(v) = std::env::var("PBS_BENCH_D_VALUES") {
            let ds: Vec<usize> = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
            if !ds.is_empty() {
                scale.d_values = ds;
            }
        }
        scale
    }

    /// The default reduced scale used by the figure binaries.
    pub fn default_reduced() -> Self {
        Self::from_env(50_000, 5, &[10, 100, 1_000])
    }
}

/// Aggregated measurements for one scheme at one `d` value.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Scheme name.
    pub scheme: &'static str,
    /// Set-difference cardinality of the workload.
    pub d: usize,
    /// Number of trials aggregated.
    pub trials: u64,
    /// Fraction of trials in which the recovered difference matched ground
    /// truth exactly (the paper's "success rate").
    pub success_rate: f64,
    /// Mean total communication in kilobytes.
    pub mean_comm_kb: f64,
    /// Mean encode time in seconds.
    pub mean_encode_s: f64,
    /// Mean decode time in seconds.
    pub mean_decode_s: f64,
    /// Mean number of protocol rounds.
    pub mean_rounds: f64,
    /// Communication overhead relative to the theoretical minimum
    /// `d·log|U|`.
    pub comm_over_minimum: f64,
}

/// Run `scheme` on `trials` independent instances of the workload and
/// aggregate the paper's metrics.
pub fn run_point(
    scheme: &dyn Reconciler,
    workload: &Workload,
    trials: u64,
    base_seed: u64,
) -> ExperimentPoint {
    let mut successes = 0u64;
    let mut comm_bytes = 0f64;
    let mut encode = Duration::ZERO;
    let mut decode = Duration::ZERO;
    let mut rounds = 0f64;
    for trial in 0..trials {
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trial);
        let pair = workload.generate(seed);
        let outcome = scheme.reconcile(&pair.a, &pair.b, seed ^ 0x5EED);
        let truth = symmetric_difference(&pair.a, &pair.b);
        if outcome.matches(&truth) {
            successes += 1;
        }
        comm_bytes += outcome.comm.total_bytes() as f64;
        encode += outcome.timing.encode;
        decode += outcome.timing.decode;
        rounds += outcome.rounds as f64;
    }
    let t = trials as f64;
    let mean_comm = comm_bytes / t;
    let minimum = protocol::theoretical_minimum_bytes(workload.d.max(1), workload.universe_bits);
    ExperimentPoint {
        scheme: scheme.name(),
        d: workload.d,
        trials,
        success_rate: successes as f64 / t,
        mean_comm_kb: mean_comm / 1000.0,
        mean_encode_s: encode.as_secs_f64() / t,
        mean_decode_s: decode.as_secs_f64() / t,
        mean_rounds: rounds / t,
        comm_over_minimum: mean_comm / minimum,
    }
}

/// Print a header for the standard comparison table.
pub fn print_header(title: &str, scale: &Scale) {
    println!("# {title}");
    println!(
        "# |A| = {}, trials per point = {}, universe = 32-bit",
        scale.set_size, scale.trials
    );
    println!(
        "{:<14} {:>8} {:>10} {:>12} {:>10} {:>12} {:>12} {:>8}",
        "scheme", "d", "success", "comm (KB)", "x-minimum", "encode (s)", "decode (s)", "rounds"
    );
}

/// Print one aggregated point as a table row.
pub fn print_point(p: &ExperimentPoint) {
    println!(
        "{:<14} {:>8} {:>10.4} {:>12.3} {:>10.2} {:>12.6} {:>12.6} {:>8.2}",
        p.scheme,
        p.d,
        p.success_rate,
        p.mean_comm_kb,
        p.comm_over_minimum,
        p.mean_encode_s,
        p.mean_decode_s,
        p.mean_rounds
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_core::Pbs;

    #[test]
    fn run_point_aggregates_sane_values() {
        let workload = Workload {
            set_size: 2_000,
            d: 20,
            universe_bits: 32,
            subset_mode: true,
        };
        let p = run_point(&Pbs::paper_default(), &workload, 3, 1);
        assert_eq!(p.scheme, "PBS");
        assert_eq!(p.d, 20);
        assert_eq!(p.trials, 3);
        assert!(p.success_rate > 0.0);
        assert!(p.mean_comm_kb > 0.0);
        assert!(p.comm_over_minimum > 1.0);
        assert!(p.mean_rounds >= 1.0);
    }

    #[test]
    fn scale_from_env_defaults() {
        let s = Scale::from_env(1234, 7, &[1, 2, 3]);
        // Environment variables may be absent in the test environment; the
        // defaults must then carry through.
        if std::env::var("PBS_BENCH_SET_SIZE").is_err() && std::env::var("PBS_BENCH_FULL").is_err()
        {
            assert_eq!(s.set_size, 1234);
            assert_eq!(s.trials, 7);
            assert_eq!(s.d_values, vec![1, 2, 3]);
        }
    }
}
