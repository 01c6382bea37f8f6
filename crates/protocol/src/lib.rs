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
//! * [`Transcript`] — a message ledger that accounts every byte sent in each
//!   direction and every protocol round, so communication overhead is
//!   measured rather than estimated.
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
//! t.record_round_trip();
//! t.send_bits(Direction::AliceToBob, "bch-sketch", 13 * 11);
//! t.send_bits(Direction::BobToAlice, "bin-report", 43);
//! assert_eq!(t.stats().total_bytes(), 18 + 6); // per-direction ceil to bytes
//! assert_eq!(t.rounds_used(), 1);
//! assert_eq!(t.round_trips(), 1);
//! ```

#![warn(missing_docs)]

mod transcript;
mod workload;

pub use transcript::{CommStats, Direction, MessageRecord, Transcript};
pub use workload::{SetPair, Workload};

use std::collections::HashSet;
use std::time::Duration;

/// Order-preserving map over a slice, run on worker threads when the
/// `parallel` feature is enabled and serially otherwise.
///
/// The group sketching loops of PBS and PinSketch/WP are embarrassingly
/// parallel — each group's BCH sketch depends only on that group's elements
/// — so this is safe to parallelize without changing any result: the output
/// is `items.iter().map(f)` in order either way, keeping transcripts and
/// decode outcomes deterministic.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_init(items, || (), |(), item| f(item))
}

/// [`par_map`] with a piece of per-worker state: every worker calls `init`
/// once and hands the result to each of its `f` calls (the shape of rayon's
/// `map_init`), so a loop whose body needs scratch buffers allocates them
/// once per worker instead of once per item. `f` must leave the state such
/// that the next item's result does not depend on it — the output is
/// `items.iter().map(|item| f(&mut fresh, item))` in order either way.
/// Implemented with `std::thread::scope` (the registry mirror that would
/// serve rayon is unreachable in this build environment, and chunked scoped
/// threads are all these loops need).
#[cfg(feature = "parallel")]
pub fn par_map_init<T, S, U, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 || items.len() < 2 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk_len = items.len().div_ceil(workers);
    let mut out: Vec<Option<U>> = Vec::new();
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (chunk, slot) in items.chunks(chunk_len).zip(out.chunks_mut(chunk_len)) {
            scope.spawn(|| {
                let mut state = init();
                for (item, s) in chunk.iter().zip(slot.iter_mut()) {
                    *s = Some(f(&mut state, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("worker filled every slot"))
        .collect()
}

/// Serial fallback of [`par_map_init`] when the `parallel` feature is off:
/// one state, one loop.
#[cfg(not(feature = "parallel"))]
pub fn par_map_init<T, S, U, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    I: Fn() -> S,
    F: Fn(&mut S, &T) -> U,
{
    let mut state = init();
    items.iter().map(|item| f(&mut state, item)).collect()
}

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

impl TimingStats {
    /// Total computational time (encode + decode).
    pub fn total(&self) -> Duration {
        self.encode + self.decode
    }
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
    fn par_map_keeps_order_and_hands_each_worker_one_state() {
        let items: Vec<u64> = (0..1_000).collect();
        assert_eq!(
            par_map(&items, |x| x * x),
            items.iter().map(|x| x * x).collect::<Vec<_>>()
        );
        // The state is reused, not rebuilt per item: far fewer `init` calls
        // than items, and every call sees the buffer its worker left.
        let inits = std::sync::atomic::AtomicUsize::new(0);
        let out = par_map_init(
            &items,
            || {
                inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |seen, &x| {
                seen.push(x);
                (x, seen.len())
            },
        );
        assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), items);
        let inits = inits.into_inner();
        assert!((1..=64).contains(&inits), "{inits} states for 1000 items");
        assert_eq!(out.iter().filter(|&&(_, nth)| nth == 1).count(), inits);
        assert!(par_map_init(&[] as &[u64], || (), |(), x| *x).is_empty());
    }

    #[test]
    fn theoretical_minimum() {
        assert_eq!(theoretical_minimum_bytes(1000, 32), 4000.0);
        assert_eq!(theoretical_minimum_bytes(10, 256), 320.0);
    }
}
