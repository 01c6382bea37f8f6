//! The d-independent half of the §5.1 parameter search.
//!
//! The per-group success probability is
//! `α(n, t) = Σ_x Pr[Binomial(d, 1/g) = x] · S[x]`, where
//! `S[x] = Pr[a group holding x differences finishes within r rounds]`
//! depends on `(n, t, r)` — not on `d`. A [`PlanTable`] holds `S` for every
//! `(n, t)` cell of the Appendix H grid of one `(δ, r)`; [`plan_table`]
//! keeps the most recently used few in a process-wide cache, so planning
//! for a new `d` costs one vector of binomial weights and one dot product
//! per cell.

use crate::markov::TransitionMatrix;
use crate::probability::{binomial_pmf, ln_factorial};
use crate::CANDIDATE_N;
use std::sync::{Arc, Mutex, PoisonError};

/// How far past the BCH capacity `t` a success vector follows the
/// group-size distribution before it counts the remaining tail as failure.
pub(crate) const SPLIT_TAIL: usize = 60;

/// `S[x]` for `x` in `0..=t` — `Pr[x →r 0]` of the §4 chain — followed,
/// when `r ≥ 2`, by `x` in `t+1..=t+SPLIT_TAIL`: the §3.2 exception
/// handling, where the group fails to decode in its first round, is split
/// three ways, and every part must fit the capacity and finish within the
/// remaining `r − 1` rounds. (Appendix F's simplification counts every
/// `x > t` as failure; the scheme does not: `docs/REPRODUCTION.md`,
/// `table1/optimal-t`.)
pub(crate) fn success_vector(n: usize, t: usize, r: u32) -> Vec<f64> {
    let matrix = TransitionMatrix::build(n, t);
    let chain = matrix.success_probabilities(r);
    if r < 2 {
        return chain;
    }
    let remaining = matrix.success_probabilities(r - 1);
    with_split_tail(&chain, &remaining, &SplitPmfs::new(t))
}

/// `Pr[X = x]` for the number `X ~ Binomial(d, 1/g)` of differences one
/// of `g` groups receives, for every `x` a success vector can cover.
pub(crate) struct GroupLoad {
    d: usize,
    weights: Vec<f64>,
}

impl GroupLoad {
    pub(crate) fn new(d: usize, g: usize, max_t: usize) -> Self {
        let p = 1.0 / g as f64;
        let weights = (0..=max_t + SPLIT_TAIL)
            .map(|x| binomial_pmf(d, x, p))
            .collect();
        GroupLoad { d, weights }
    }

    /// `α(n, t)` of Appendix F for the cell whose success vector is
    /// `success` (`t = ` its capacity).
    pub(crate) fn alpha(&self, t: usize, success: &[f64]) -> f64 {
        let w = &self.weights;
        let mut alpha = 0.0;
        for x in 0..=t.min(self.d) {
            alpha += w[x] * success[x];
        }
        for x in t + 1..success.len().min(self.d + 1) {
            if w[x] < 1e-15 && x > t + 5 {
                break;
            }
            alpha += w[x] * success[x];
        }
        alpha.min(1.0)
    }

    /// `E[v(X)]` over the loads a value vector covers.
    pub(crate) fn mean(&self, v: &[f64]) -> f64 {
        let covered = v.len().min(self.d + 1);
        let products = self.weights[..covered].iter().zip(v).map(|(w, v)| w * v);
        products.sum()
    }

    /// The probability that every one of the `g` groups finishes, group `i`
    /// with probability `success[xᵢ]` given its load, when the loads are
    /// one multinomial draw of the `d` differences — not `g` independent
    /// binomials, as `alpha(..)^g` has it. Poissonized: with `λ = d/g` and
    /// `F(z) = Σ_x success[x]·Pois(x; λ)·zˣ`, it is `[z^d] F(z)^g` over
    /// `Pois(d; d)`.
    pub(crate) fn all_groups_within(&self, success: &[f64], g: usize) -> f64 {
        let d = self.d;
        if d == 0 {
            return success[0];
        }
        let poisson = |x: usize, mean: f64| (x as f64 * mean.ln() - mean - ln_factorial(x)).exp();
        let lambda = d as f64 / g as f64;
        let f: Vec<f64> = success
            .iter()
            .take(d + 1)
            .enumerate()
            .map(|(x, s)| s * poisson(x, lambda))
            .collect();
        // F^g by squaring, every product cut at degree d.
        let product = |a: &[f64], b: &[f64]| {
            let mut c = vec![0.0; (a.len() + b.len() - 1).min(d + 1)];
            for (i, &ai) in a.iter().enumerate().filter(|(_, &ai)| ai != 0.0) {
                for (cj, &bj) in c[i..].iter_mut().zip(b) {
                    *cj += ai * bj;
                }
            }
            c
        };
        let (mut power, mut base, mut e) = (vec![1.0], f, g);
        while e > 0 {
            if e & 1 == 1 {
                power = product(&power, &base);
            }
            e >>= 1;
            if e > 0 {
                base = product(&base, &base);
            }
        }
        let at_d = power.get(d).copied().unwrap_or(0.0);
        (at_d / poisson(d, d as f64)).min(1.0)
    }
}

/// `C[x]`, the mean Formula (1) bits one group spends when it starts with
/// `x` differences, for `x` in `0..=t+SPLIT_TAIL` ([`crate::Prediction`]'s
/// `mean_bits` per group). With `m = log₂(n + 1)` and `u = log|U|`:
///
/// * a round in state `y ≥ 1` costs a sketch, `t·m`, and `m + u` for each
///   bin of odd count Bob reports, `n·(1 − (1 − 2/n)ʸ)/2` of them on
///   average; `W[y]`, the bits spent until state 0, follows from `M`, which
///   is lower triangular: `W[y] = (t·m + odd(y)·(m + u) +
///   Σ_{0<y'<y} M(y, y')·W[y']) / (1 − M(y, y))`;
/// * a group of `x ≤ t` pays its checksum, `u`, and `W[x]` (`x = 0`: one
///   sketch);
/// * a group of `x > t` pays a sketch that fails to decode and becomes
///   three groups of `Binomial(x, ⅓)` differences each, which may hold all
///   `x` again: `C[x] = (t·m + 3·Σ_{j<x} B(x, j, ⅓)·C[j]) / (1 − 3·3⁻ˣ)`.
pub(crate) fn bits_per_group(n: usize, t: usize, universe_bits: u32) -> Vec<f64> {
    let matrix = TransitionMatrix::build(n, t);
    let (nf, m, u) = (n as f64, (n + 1).ilog2() as f64, universe_bits as f64);
    let sketch = t as f64 * m;
    let odd = |y: usize| nf * (1.0 - (1.0 - 2.0 / nf).powi(y as i32)) / 2.0;
    let mut to_go = vec![0.0; t + 1];
    for y in 1..=t {
        let earlier: f64 = (1..y).map(|j| matrix.get(y, j) * to_go[j]).sum();
        to_go[y] = (sketch + odd(y) * (m + u) + earlier) / (1.0 - matrix.get(y, y));
    }
    let mut cost: Vec<f64> = to_go.iter().map(|w| u + w).collect();
    cost[0] = sketch + u;
    for x in t + 1..=t + SPLIT_TAIL {
        let parts: f64 = (0..x)
            .map(|j| binomial_pmf(x, j, 1.0 / 3.0) * cost[j])
            .sum();
        let stay = 3.0 * binomial_pmf(x, x, 1.0 / 3.0);
        cost.push((sketch + 3.0 * parts) / (1.0 - stay));
    }
    cost
}

/// The binomial pmfs of the three-way split, shared by every cell of a
/// table: a group of `x` splits off `x₁ ~ Binomial(x, ⅓)`, and the rest
/// splits `x₂ ~ Binomial(rest, ½)`. Row `m` holds `k` in `0..=min(m, t)`.
struct SplitPmfs {
    third: Vec<Vec<f64>>,
    half: Vec<Vec<f64>>,
}

impl SplitPmfs {
    fn new(max_t: usize) -> Self {
        let rows = |p: f64| {
            (0..=max_t + SPLIT_TAIL)
                .map(|m| (0..=m.min(max_t)).map(|k| binomial_pmf(m, k, p)).collect())
                .collect()
        };
        SplitPmfs {
            third: rows(1.0 / 3.0),
            half: rows(0.5),
        }
    }
}

/// Extend `chain` (`Pr[x →r 0]`, `x ≤ t`) with the split-aware entries for
/// `x` in `t+1..=t+SPLIT_TAIL`. `remaining` is `Pr[x →(r−1) 0]`, at least as
/// long as `chain`; both may come from a matrix built for a larger `t`.
///
/// `Σ_{x₁} B(x, x₁, ⅓)·s[x₁] · Σ_{x₂} B(x − x₁, x₂, ½)·s[x₂]·s[x − x₁ − x₂]`:
/// the inner sum depends on `x − x₁` alone, so it is tabulated once per
/// cell (`pair`) instead of once per `(x, x₁)`.
fn with_split_tail(chain: &[f64], remaining: &[f64], pmfs: &SplitPmfs) -> Vec<f64> {
    let t = chain.len() - 1;
    let s = &remaining[..=t];
    // pair[rest]: the two later parts of the split share `rest` elements,
    // both fit the capacity and both finish in time.
    let pair: Vec<f64> = (0..=t + SPLIT_TAIL)
        .map(|rest| {
            (rest.saturating_sub(t)..=rest.min(t))
                .map(|x2| pmfs.half[rest][x2] * s[x2] * s[rest - x2])
                .sum()
        })
        .collect();
    let tail = (t + 1..=t + SPLIT_TAIL).map(|x| {
        (0..=t)
            .map(|x1| pmfs.third[x][x1] * s[x1] * pair[x - x1])
            .sum::<f64>()
    });
    chain.iter().copied().chain(tail).collect()
}

/// One `(n, t)` cell of a [`PlanTable`].
pub(crate) struct PlanCell {
    pub(crate) n: usize,
    pub(crate) t: usize,
    pub(crate) success: Vec<f64>,
}

/// The success vectors of the whole Appendix H grid for one `(δ, r)`: `n`
/// over [`CANDIDATE_N`], `t` over `δ..=4δ`.
pub(crate) struct PlanTable {
    pub(crate) max_t: usize,
    pub(crate) cells: Vec<PlanCell>,
}

impl PlanTable {
    fn build(delta: usize, r: u32) -> Self {
        let t_lo = delta.max(2);
        let max_t = (4 * delta).max(t_lo + 1);
        let split = r >= 2;
        let pmfs = split.then(|| SplitPmfs::new(max_t));
        let mut cells = Vec::with_capacity(CANDIDATE_N.len() * (max_t - t_lo + 1));
        for &n in CANDIDATE_N.iter() {
            // One matrix per n serves every t: its success probabilities
            // are those of the smaller matrices, prefix for prefix.
            let matrix = TransitionMatrix::build(n, max_t);
            let chain = matrix.success_probabilities(r);
            let remaining = split.then(|| matrix.success_probabilities(r - 1));
            for t in t_lo..=max_t {
                let success = match (&remaining, &pmfs) {
                    (Some(remaining), Some(pmfs)) => with_split_tail(&chain[..=t], remaining, pmfs),
                    _ => chain[..=t].to_vec(),
                };
                cells.push(PlanCell { n, t, success });
            }
        }
        PlanTable { max_t, cells }
    }
}

/// Tables a [`TableCache`] keeps. A deployment plans with one or two
/// configurations; a peer that cycles `(δ, r)` evicts, it does not grow.
const CACHED_TABLES: usize = 4;

/// The most recently used [`PlanTable`]s, most recent first.
struct TableCache(Mutex<Vec<(TableKey, Arc<PlanTable>)>>);

type TableKey = (usize, u32);

impl TableCache {
    fn get(&self, key: TableKey) -> Arc<PlanTable> {
        // Every update leaves the list valid, so a panic elsewhere while
        // the lock was held is no reason to stop planning.
        let lock = || self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let cached = {
            let mut tables = lock();
            tables.iter().position(|(k, _)| *k == key).map(|at| {
                tables[..=at].rotate_right(1);
                Arc::clone(&tables[0].1)
            })
        };
        cached.unwrap_or_else(|| {
            // Built outside the lock: other keys keep planning meanwhile,
            // and two threads racing on a new key merely both build it.
            let table = Arc::new(PlanTable::build(key.0, key.1));
            let mut tables = lock();
            tables.retain(|(k, _)| *k != key);
            tables.insert(0, (key, Arc::clone(&table)));
            tables.truncate(CACHED_TABLES);
            table
        })
    }
}

/// The table for `(δ, r)`, from the process-wide cache or built now (a few
/// milliseconds at δ = 5) and remembered.
pub(crate) fn plan_table(delta: usize, r: u32) -> Arc<PlanTable> {
    static CACHE: TableCache = TableCache(Mutex::new(Vec::new()));
    CACHE.get((delta, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_cells_equal_standalone_success_vectors() {
        for (delta, r) in [(5usize, 3u32), (3, 2), (5, 1), (8, 3)] {
            let table = PlanTable::build(delta, r);
            assert_eq!(table.cells.len(), 15 * (3 * delta + 1));
            for cell in table.cells.iter().step_by(7) {
                // Bit for bit: a cell cut from the shared 4δ matrix is the
                // vector its own (n, t) matrix yields.
                assert_eq!(cell.success, success_vector(cell.n, cell.t, r));
                assert_eq!(cell.success[0], 1.0);
                assert!(cell.success.iter().all(|s| (0.0..=1.0 + 1e-12).contains(s)));
            }
        }
    }

    #[test]
    fn cache_serves_warm_keys_and_never_outgrows_its_bound() {
        let cache = TableCache(Mutex::new(Vec::new()));
        let key = (7, 2);
        let first = cache.get(key);
        assert!(Arc::ptr_eq(&first, &cache.get(key)), "served, not rebuilt");
        // A peer cycling through more keys than the cache holds evicts the
        // oldest; a key that was evicted is rebuilt to the same table.
        for r in 1..=2 * CACHED_TABLES as u32 {
            cache.get((2, r));
            assert!(cache.0.lock().unwrap().len() <= CACHED_TABLES);
        }
        let rebuilt = cache.get(key);
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.cells.len(), first.cells.len());
        for (a, b) in rebuilt.cells.iter().zip(&first.cells) {
            assert_eq!((a.n, a.t, &a.success), (b.n, b.t, &b.success));
        }
    }
}
