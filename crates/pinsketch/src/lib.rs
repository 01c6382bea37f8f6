//! The PinSketch baseline \[13\] and its partitioned variant PinSketch/WP (§8.3).
//!
//! PinSketch views a set `S ⊆ U` as a `|U|`-bit characteristic bitmap and
//! sends a BCH syndrome sketch of that bitmap: `t` syndromes over
//! GF(2^m) with `m = log|U|`, i.e. `t·log|U|` bits. Because the sketch is
//! linear, Bob combines Alice's sketch with his own and decodes the
//! difference directly; decoding costs `O(t²)` field operations plus root
//! finding, which is the `O(d²)` computational overhead the paper holds
//! against ECC-based schemes.
//!
//! Two reconcilers are provided:
//!
//! * [`PinSketch`] — the plain scheme: `t = ⌈γ·d̂⌉` with the ToW estimate
//!   `d̂` and γ = 1.38, exactly the §8.1.1 parameterization.
//! * [`PinSketchWp`] — "PinSketch with partition" (§8.3): the PBS grouping
//!   trick applied to PinSketch. Sets are hash-partitioned into `g = ⌈d/δ⌉`
//!   groups and each group pair gets its own small sketch with the same `t`
//!   used by PBS; decoding failures trigger the same three-way split. Its
//!   communication is higher than PBS because each "bit error" costs
//!   `log|U|` bits instead of `log n` (§8.3).

//!
//! # Example
//!
//! ```
//! use pinsketch::PinSketch;
//! use protocol::Reconciler;
//!
//! let alice: Vec<u64> = (1..=500).collect();
//! let bob: Vec<u64> = (16..=500).collect(); // d = 15
//! let outcome = PinSketch::default().reconcile(&alice, &bob, 5);
//! assert!(outcome.claimed_success);
//! let mut diff = outcome.recovered.clone();
//! diff.sort_unstable();
//! assert_eq!(diff, (1..=15).collect::<Vec<u64>>());
//! ```

#![warn(missing_docs)]

use analysis::optimize_parameters;
use bch::{BchCodec, Sketch};
use estimator::{Estimator, TowEstimator, RECOMMENDED_INFLATION};
use protocol::{Direction, ReconcileOutcome, Reconciler, TimingStats, Transcript};
use std::collections::HashSet;
use std::time::Instant;
use xhash::{derive_seed, PartitionHasher};

/// Configuration shared by both PinSketch variants.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PinSketchConfig {
    /// Element signature width `log|U|`; the sketch field is GF(2^`log|U|`).
    universe_bits: u32,
    /// Number of ToW sketches used to estimate `d` when it is not given.
    estimator_sketches: usize,
    /// Safety factor applied to the estimate (γ = 1.38 in the paper).
    inflation: f64,
}

impl Default for PinSketchConfig {
    fn default() -> Self {
        PinSketchConfig {
            universe_bits: 32,
            estimator_sketches: estimator::DEFAULT_SKETCH_COUNT,
            inflation: RECOMMENDED_INFLATION,
        }
    }
}

/// The plain PinSketch reconciler.
#[derive(Debug, Clone, Default)]
pub struct PinSketch {
    config: PinSketchConfig,
}

impl PinSketch {
    /// Reconcile with a known difference cardinality: the sketch capacity is
    /// set to exactly `t` (no estimator round).
    fn reconcile_with_capacity(
        &self,
        alice: &[u64],
        bob: &[u64],
        t: usize,
        _seed: u64,
    ) -> ReconcileOutcome {
        let cfg = self.config;
        let t = t.max(1);
        let mut transcript = Transcript::new();
        let codec = BchCodec::new(cfg.universe_bits, t);

        let encode_start = Instant::now();
        let sketch_a = codec.sketch_slice(alice);
        let sketch_b = codec.sketch_slice(bob);
        let encode = encode_start.elapsed();

        transcript.send_bits(Direction::AliceToBob, sketch_a.wire_bits(cfg.universe_bits));

        let decode_start = Instant::now();
        let mut diff_sketch: Sketch = sketch_b.clone();
        diff_sketch.combine(&sketch_a);
        let decoded = codec.decode(&diff_sketch);
        let (recovered, claimed_success) = match decoded {
            Ok(elements) => (elements, true),
            Err(_) => (Vec::new(), false),
        };
        // Bob sends the recovered difference elements back to Alice so she
        // learns A△B (unidirectional reconciliation; d·log|U| bits).
        transcript.send_bits(
            Direction::BobToAlice,
            recovered.len() as u64 * cfg.universe_bits as u64,
        );
        let decode = decode_start.elapsed();

        ReconcileOutcome {
            recovered,
            claimed_success,
            comm: transcript.stats(),
            timing: TimingStats { encode, decode },
            rounds: 1,
        }
    }
}

impl Reconciler for PinSketch {
    fn name(&self) -> &'static str {
        "PinSketch"
    }

    fn reconcile(&self, a: &[u64], b: &[u64], seed: u64) -> ReconcileOutcome {
        // §8.1.1: t = 1.38·d̂ with d̂ from the 128-sketch ToW estimator.
        let cfg = self.config;
        let est_seed = derive_seed(seed, 0xE57);
        let mut ea = TowEstimator::new(cfg.estimator_sketches, est_seed);
        let mut eb = TowEstimator::new(cfg.estimator_sketches, est_seed);
        ea.insert_slice(a);
        eb.insert_slice(b);
        let d_hat = ea.estimate(&eb);
        let t = ((d_hat * cfg.inflation).ceil() as usize).max(1);
        self.reconcile_with_capacity(a, b, t, seed)
    }
}

/// PinSketch with the PBS partition trick (§8.3): `g = ⌈d/δ⌉` group pairs,
/// each reconciled with a small PinSketch of capacity `t`, with three-way
/// splits on decoding failure.
#[derive(Debug, Clone)]
pub struct PinSketchWp {
    config: PinSketchConfig,
    /// Average number of distinct elements per group (δ = 5 like PBS).
    delta: usize,
    /// Target rounds used when deriving `t` via the PBS optimizer (so that
    /// PinSketch/WP and PBS use exactly the same `t` and `g`, per §8.3).
    target_rounds: u32,
    /// Target success probability (0.99 in Figure 3).
    target_success: f64,
    /// Cap on the number of rounds executed.
    max_rounds: u32,
}

impl Default for PinSketchWp {
    fn default() -> Self {
        PinSketchWp {
            config: PinSketchConfig::default(),
            delta: analysis::DEFAULT_DELTA,
            target_rounds: analysis::DEFAULT_TARGET_ROUNDS,
            target_success: 0.99,
            max_rounds: 16,
        }
    }
}

impl PinSketchWp {
    /// Reconcile with a known (or externally estimated) `d`.
    pub fn reconcile_with_known_d(
        &self,
        alice: &[u64],
        bob: &[u64],
        d: usize,
        seed: u64,
    ) -> ReconcileOutcome {
        let cfg = self.config;
        // Use the same (t, g) as PBS would (§8.3: "we use the same δ and t
        // values as in PBS").
        let plan = optimize_parameters(
            d.max(1),
            self.delta,
            self.target_rounds,
            self.target_success,
        )
        .unwrap_or_else(|| analysis::OptimalParams {
            n: 2047,
            m: 11,
            t: 4 * self.delta,
            groups: analysis::group_count(d, self.delta),
            lower_bound: 0.0,
            objective_bits: 0.0,
        });
        let g = plan.groups;
        let t = plan.t;
        let mut transcript = Transcript::new();
        let codec = BchCodec::new(cfg.universe_bits, t);

        // Group partition (same construction as PBS).
        let group_hasher = PartitionHasher::new(g as u64, derive_seed(seed, 0x6_1201));
        let bucket = |set: &[u64]| {
            let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); g];
            for &e in set {
                buckets[group_hasher.bin(e) as usize].push(e);
            }
            buckets
        };

        let encode_start = Instant::now();
        let alice_groups = bucket(alice);
        let bob_groups = bucket(bob);
        let sketch = |grp: &Vec<u64>| codec.sketch_slice(grp);
        let alice_sketches: Vec<Sketch> = alice_groups.iter().map(sketch).collect();
        let bob_sketches: Vec<Sketch> = bob_groups.iter().map(sketch).collect();
        let encode = encode_start.elapsed();

        let decode_start = Instant::now();
        let mut recovered: HashSet<u64> = HashSet::new();
        let mut claimed_success = true;
        let mut rounds = 1u32;

        // Work list of (alice elements, bob elements, alice sketch, bob sketch, depth).
        struct Item {
            a: Vec<u64>,
            b: Vec<u64>,
            sa: Sketch,
            sb: Sketch,
            depth: u32,
        }
        let mut work: Vec<Item> = alice_groups
            .into_iter()
            .zip(bob_groups)
            .zip(alice_sketches.into_iter().zip(bob_sketches))
            .map(|((a, b), (sa, sb))| Item {
                a,
                b,
                sa,
                sb,
                depth: 0,
            })
            .collect();

        for item in &work {
            transcript.send_bits(Direction::AliceToBob, item.sa.wire_bits(cfg.universe_bits));
        }

        // Decode wave by wave: a failed group's three-way split feeds the
        // next wave.
        while !work.is_empty() {
            for item in std::mem::take(&mut work) {
                let mut diff = item.sb.clone();
                diff.combine(&item.sa);
                match codec.decode(&diff) {
                    Ok(elements) => {
                        transcript.send_bits(
                            Direction::BobToAlice,
                            elements.len() as u64 * cfg.universe_bits as u64,
                        );
                        for e in elements {
                            if !recovered.insert(e) {
                                recovered.remove(&e);
                            }
                        }
                    }
                    Err(_) => {
                        // Split three ways, like PBS (§3.2); this costs another
                        // round of sketches for the sub-groups.
                        if item.depth >= self.max_rounds {
                            claimed_success = false;
                            continue;
                        }
                        rounds = rounds.max(item.depth + 2);
                        // Bob's one-byte "decode failed".
                        transcript.send_bits(Direction::BobToAlice, 8);
                        let split_hasher = PartitionHasher::new(
                            3,
                            derive_seed(seed, 0x3_5711 + item.depth as u64),
                        );
                        let mut parts_a: [Vec<u64>; 3] = Default::default();
                        let mut parts_b: [Vec<u64>; 3] = Default::default();
                        for &e in &item.a {
                            parts_a[split_hasher.bin(e) as usize].push(e);
                        }
                        for &e in &item.b {
                            parts_b[split_hasher.bin(e) as usize].push(e);
                        }
                        for k in 0..3 {
                            let sa = codec.sketch_slice(&parts_a[k]);
                            let sb = codec.sketch_slice(&parts_b[k]);
                            transcript
                                .send_bits(Direction::AliceToBob, sa.wire_bits(cfg.universe_bits));
                            work.push(Item {
                                a: std::mem::take(&mut parts_a[k]),
                                b: std::mem::take(&mut parts_b[k]),
                                sa,
                                sb,
                                depth: item.depth + 1,
                            });
                        }
                    }
                }
            }
        }
        let decode = decode_start.elapsed();

        ReconcileOutcome {
            recovered: recovered.into_iter().collect(),
            claimed_success,
            comm: transcript.stats(),
            timing: TimingStats { encode, decode },
            rounds,
        }
    }
}

impl Reconciler for PinSketchWp {
    fn name(&self) -> &'static str {
        "PinSketch/WP"
    }

    fn reconcile(&self, a: &[u64], b: &[u64], seed: u64) -> ReconcileOutcome {
        let cfg = self.config;
        let est_seed = derive_seed(seed, 0xE57);
        let mut ea = TowEstimator::new(cfg.estimator_sketches, est_seed);
        let mut eb = TowEstimator::new(cfg.estimator_sketches, est_seed);
        ea.insert_slice(a);
        eb.insert_slice(b);
        let d = ((ea.estimate(&eb) * cfg.inflation).ceil() as usize).max(1);
        self.reconcile_with_known_d(a, b, d, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocol::symmetric_difference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pair(n: usize, d: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = HashSet::new();
        while set.len() < n {
            set.insert((rng.random::<u64>() & 0xFFFF_FFFF).max(1));
        }
        // Sort before slicing: `HashSet` iteration order is per-process
        // random, and letting it pick *which* elements form the difference
        // makes multi-seed statistical tests flake rarely.
        let mut a: Vec<u64> = set.into_iter().collect();
        a.sort_unstable();
        let b = a[..n - d].to_vec();
        (a, b)
    }

    #[test]
    fn plain_pinsketch_recovers_exact_difference() {
        let (a, b) = random_pair(2_000, 12, 1);
        let out = PinSketch::default().reconcile_with_capacity(&a, &b, 12, 0);
        assert!(out.claimed_success);
        assert!(out.matches(&symmetric_difference(&a, &b)));
        // Communication: t·log|U| bits for the sketch = 12 × 32 = 48 bytes,
        // plus the echoed difference.
        assert_eq!(out.comm.bytes_alice_to_bob, 48);
    }

    #[test]
    fn plain_pinsketch_with_estimator() {
        let (a, b) = random_pair(3_000, 40, 2);
        let out = Reconciler::reconcile(&PinSketch::default(), &a, &b, 7);
        assert!(out.claimed_success);
        assert!(out.matches(&symmetric_difference(&a, &b)));
    }

    #[test]
    fn under_capacity_sketch_reports_failure() {
        let (a, b) = random_pair(1_000, 30, 3);
        let out = PinSketch::default().reconcile_with_capacity(&a, &b, 10, 0);
        assert!(!out.claimed_success);
    }

    #[test]
    fn partitioned_variant_recovers_difference() {
        let (a, b) = random_pair(4_000, 150, 4);
        let out = PinSketchWp::default().reconcile_with_known_d(&a, &b, 150, 11);
        assert!(out.claimed_success);
        assert!(out.matches(&symmetric_difference(&a, &b)));
    }

    #[test]
    fn partitioned_variant_handles_underestimated_d() {
        // d under-estimated by 3x: groups overflow, splits kick in, the
        // result must still be exact.
        let (a, b) = random_pair(3_000, 90, 5);
        let out = PinSketchWp::default().reconcile_with_known_d(&a, &b, 30, 13);
        assert!(out.claimed_success);
        assert!(out.matches(&symmetric_difference(&a, &b)));
    }

    #[test]
    fn wp_communication_exceeds_plain_pbs_style_accounting() {
        // §8.3: PinSketch/WP pays (t−δ)·log|U| of safety margin per group,
        // so its sketch bytes must exceed d·log|U| substantially.
        let d = 100usize;
        let (a, b) = random_pair(5_000, d, 6);
        let out = PinSketchWp::default().reconcile_with_known_d(&a, &b, d, 17);
        let min_bytes = protocol::theoretical_minimum_bytes(d, 32);
        assert!(out.comm.total_bytes() as f64 > 1.5 * min_bytes);
    }

    #[test]
    fn identical_sets_are_cheap_and_successful() {
        let (a, _) = random_pair(1_000, 0, 7);
        let out = PinSketch::default().reconcile_with_capacity(&a, &a, 5, 0);
        assert!(out.claimed_success);
        assert!(out.recovered.is_empty());
    }
}
