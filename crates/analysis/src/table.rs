//! The d-independent half of the §5.1 parameter search.
//!
//! The per-group success probability is
//! `α(n, t) = Σ_x Pr[Binomial(d, 1/g) = x] · S[x]`, where
//! `S[x] = Pr[a group holding x differences finishes within r rounds]`
//! depends on `(n, t, r)` and the success model — not on `d`. A
//! [`PlanTable`] holds `S` for every `(n, t)` cell of the Appendix H grid of
//! one `(δ, r, model)`; [`plan_table`] keeps the most recently used few in a
//! process-wide cache, so planning for a new `d` costs one vector of
//! binomial weights and one dot product per cell.

use crate::markov::TransitionMatrix;
use crate::probability::binomial_pmf;
use crate::{SuccessModel, CANDIDATE_N};
use std::sync::{Arc, Mutex, PoisonError};

/// How far past the BCH capacity `t` the split-aware model follows the
/// group-size distribution before it counts the remaining tail as failure.
pub(crate) const SPLIT_TAIL: usize = 60;

/// `S[x]` for `x` in `0..=t` — `Pr[x →r 0]` of the §4 chain — followed,
/// under [`SuccessModel::SplitAware`] with `r ≥ 2`, by `x` in
/// `t+1..=t+SPLIT_TAIL`: the group fails to decode in its first round, is
/// split three ways, and every part must fit the capacity and finish
/// within the remaining `r − 1` rounds.
pub(crate) fn success_vector(n: usize, t: usize, r: u32, model: SuccessModel) -> Vec<f64> {
    let matrix = TransitionMatrix::build(n, t);
    let chain = matrix.success_probabilities(r);
    if model == SuccessModel::PessimisticTruncation || r < 2 {
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

/// The success vectors of the whole Appendix H grid for one
/// `(δ, r, model)`: `n` over [`CANDIDATE_N`], `t` over `δ..=4δ`.
pub(crate) struct PlanTable {
    pub(crate) max_t: usize,
    pub(crate) cells: Vec<PlanCell>,
}

impl PlanTable {
    fn build(delta: usize, r: u32, model: SuccessModel) -> Self {
        let t_lo = delta.max(2);
        let max_t = (4 * delta).max(t_lo + 1);
        let split = model == SuccessModel::SplitAware && r >= 2;
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

type TableKey = (usize, u32, SuccessModel);

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
            let table = Arc::new(PlanTable::build(key.0, key.1, key.2));
            let mut tables = lock();
            tables.retain(|(k, _)| *k != key);
            tables.insert(0, (key, Arc::clone(&table)));
            tables.truncate(CACHED_TABLES);
            table
        })
    }
}

/// The table for `(δ, r, model)`, from the process-wide cache or built now
/// (a few milliseconds at δ = 5) and remembered.
pub(crate) fn plan_table(delta: usize, r: u32, model: SuccessModel) -> Arc<PlanTable> {
    static CACHE: TableCache = TableCache(Mutex::new(Vec::new()));
    CACHE.get((delta, r, model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_cells_equal_standalone_success_vectors() {
        for (delta, r, model) in [
            (5usize, 3u32, SuccessModel::SplitAware),
            (3, 2, SuccessModel::SplitAware),
            (5, 1, SuccessModel::SplitAware),
            (8, 3, SuccessModel::PessimisticTruncation),
        ] {
            let table = PlanTable::build(delta, r, model);
            assert_eq!(table.cells.len(), 15 * (3 * delta + 1));
            for cell in table.cells.iter().step_by(7) {
                // Bit for bit: a cell cut from the shared 4δ matrix is the
                // vector its own (n, t) matrix yields.
                assert_eq!(cell.success, success_vector(cell.n, cell.t, r, model));
                assert_eq!(cell.success[0], 1.0);
                assert!(cell.success.iter().all(|s| (0.0..=1.0 + 1e-12).contains(s)));
            }
        }
    }

    #[test]
    fn cache_serves_warm_keys_and_never_outgrows_its_bound() {
        let cache = TableCache(Mutex::new(Vec::new()));
        let key = (7, 2, SuccessModel::SplitAware);
        let first = cache.get(key);
        assert!(Arc::ptr_eq(&first, &cache.get(key)), "served, not rebuilt");
        // A peer cycling through more keys than the cache holds evicts the
        // oldest; a key that was evicted is rebuilt to the same table.
        for r in 1..=2 * CACHED_TABLES as u32 {
            cache.get((2, r, SuccessModel::PessimisticTruncation));
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
