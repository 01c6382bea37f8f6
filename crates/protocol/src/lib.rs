//! Common protocol layer for all set-reconciliation schemes in the workspace.
//!
//! The paper evaluates four schemes (PBS, PinSketch, Difference Digest and
//! Graphene) on the same workloads and the same two metrics: communication
//! overhead (bytes exchanged until Alice knows `A△B`) and computational
//! overhead (encoding and decoding time). This crate defines the pieces they
//! all share so the experiment harness can treat them uniformly:
//!
//! * [`Reconciler`] — the trait every scheme implements: given Alice's and
//!   Bob's sets, run the (possibly multi-round) protocol and report the
//!   recovered difference together with [`CommStats`] and [`TimingStats`].
//! * [`Transcript`] — a message ledger that accounts every bit sent in each
//!   direction, so communication overhead is measured rather than
//!   estimated.
//! * [`Workload`] — the §8 experiment setup: `|A| = 10^6` elements drawn
//!   uniformly at random without replacement from a `log|U|`-bit universe and
//!   `B ⊂ A` with `|A△B| = d` exactly.

//!
//! # Example
//!
//! ```
//! use protocol::{Direction, Transcript};
//!
//! let mut t = Transcript::new();
//! t.send_bits(Direction::AliceToBob, 13 * 11); // a sketch
//! t.send_bits(Direction::BobToAlice, 43); // its report
//! assert_eq!(t.stats().total_bytes(), 18 + 6); // per-direction ceil to bytes
//! assert_eq!(t.stats().messages, 2);
//! ```

#![warn(missing_docs)]

mod transcript;
mod workload;

pub use transcript::{CommStats, Direction, Transcript};
pub use workload::{SetPair, Workload};

use std::collections::HashSet;
use std::time::Duration;

/// Wall-clock timing of the two sides of a reconciliation run.
///
/// Following the paper's convention (§8), *encoding time* is the time spent
/// building sketches/filters/digests of the full sets, and *decoding time* is
/// the time spent recovering the difference from them (including any
/// additional rounds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingStats {
    /// Time spent encoding the input sets into sketches.
    pub encode: Duration,
    /// Time spent decoding sketches into the set difference.
    pub decode: Duration,
}

/// The outcome of one reconciliation run.
#[derive(Debug, Clone)]
pub struct ReconcileOutcome {
    /// The set difference Alice recovered (claimed `A△B`).
    pub recovered: Vec<u64>,
    /// Whether the scheme itself believes it succeeded (e.g. every IBLT
    /// peeled, every checksum verified). The harness additionally compares
    /// `recovered` against the ground truth.
    pub claimed_success: bool,
    /// Bytes and rounds exchanged.
    pub comm: CommStats,
    /// Encode/decode timing.
    pub timing: TimingStats,
    /// Number of protocol rounds executed.
    pub rounds: u32,
}

impl ReconcileOutcome {
    /// Check the recovered difference against ground truth (exact match as
    /// sets). This is what the paper calls a *successful* reconciliation.
    pub fn matches(&self, truth: &HashSet<u64>) -> bool {
        if self.recovered.len() != truth.len() {
            return false;
        }
        let got: HashSet<u64> = self.recovered.iter().copied().collect();
        got == *truth
    }
}

/// A unidirectional set-reconciliation scheme: Alice learns `A△B`.
pub trait Reconciler {
    /// Human-readable scheme name used by the experiment harness
    /// (e.g. `"PBS"`, `"PinSketch"`, `"D.Digest"`, `"Graphene"`).
    fn name(&self) -> &'static str;

    /// Run the protocol between Alice (holding `a`) and Bob (holding `b`)
    /// and return what Alice learned. `seed` drives every random choice the
    /// scheme makes (hash seeds etc.) so runs are reproducible.
    fn reconcile(&self, a: &[u64], b: &[u64], seed: u64) -> ReconcileOutcome;
}

/// Convenience: compute the exact symmetric difference of two slices
/// (ground truth for the harness and tests).
pub fn symmetric_difference(a: &[u64], b: &[u64]) -> HashSet<u64> {
    let sa: HashSet<u64> = a.iter().copied().collect();
    let sb: HashSet<u64> = b.iter().copied().collect();
    sa.symmetric_difference(&sb).copied().collect()
}

/// The information-theoretic minimum communication for a difference of `d`
/// elements over a `universe_bits`-bit universe, in bytes (§1.1:
/// `d · log|U|` bits).
pub fn theoretical_minimum_bytes(d: usize, universe_bits: u32) -> f64 {
    d as f64 * universe_bits as f64 / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_difference_basic() {
        let a = [1u64, 2, 3, 4];
        let b = [3u64, 4, 5];
        let d = symmetric_difference(&a, &b);
        assert_eq!(d, HashSet::from([1u64, 2, 5]));
    }

    #[test]
    fn outcome_matches_ground_truth() {
        let truth: HashSet<u64> = [7u64, 9].into_iter().collect();
        let out = ReconcileOutcome {
            recovered: vec![9, 7],
            claimed_success: true,
            comm: CommStats::default(),
            timing: TimingStats::default(),
            rounds: 1,
        };
        assert!(out.matches(&truth));
        let bad = ReconcileOutcome {
            recovered: vec![9, 8],
            ..out.clone()
        };
        assert!(!bad.matches(&truth));
        let short = ReconcileOutcome {
            recovered: vec![9],
            ..out
        };
        assert!(!short.matches(&truth));
    }

    #[test]
    fn theoretical_minimum() {
        assert_eq!(theoretical_minimum_bytes(1000, 32), 4000.0);
        assert_eq!(theoretical_minimum_bytes(10, 256), 320.0);
    }
}
