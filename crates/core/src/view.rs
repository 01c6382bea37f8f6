//! [`SetView`]: a party's set laid out once, for every session that reads
//! it.

use crate::session::group_seed;
use crate::ESTIMATOR_SEED_SALT;
use estimator::{Estimator, TowEstimator};
use std::borrow::Cow;
use std::ops::Range;
use xhash::{derive_seed, xxhash64_u64, PartitionHasher};

/// One version of a set, in the order of the seeded group hash, with its
/// ToW bank.
///
/// The two O(|B|) things Bob does before round 1 — the §6 ToW bank and the
/// §3 group partition — are both maintainable rather than recomputable:
///
/// * the bank is a *linear* sketch, so the bank of a changed set is the old
///   bank plus the bank of what came in minus the bank of what went out;
/// * the group partition splits one hash's range
///   ([`PartitionHasher::bin`] is `(h·g) >> 64`, monotone in `h`), so a set
///   kept in the order of that hash holds every group of *any* group count
///   `g` as one contiguous run, found by look-up.
///
/// A `SetView` is that layout, immutable: a holder of a changing set
/// (`pbs_net`'s store) keeps one behind an `Arc` per version of the set,
/// derives the next from it with [`SetView::patched`] in time proportional
/// to the change, and hands it to as many sessions as run against that
/// version ([`crate::BobSession::from_view`]). The layout depends on the
/// session seed, so sessions that share a view share its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetView {
    seed: u64,
    epoch: u64,
    /// Distinct, ascending by `(xxhash64_u64(e, group_seed(seed)), e)`.
    elements: Vec<u64>,
    /// The bank of `elements` under `derive_seed(seed, ESTIMATOR_SEED_SALT)`.
    bank: TowEstimator,
}

/// Index of the first element of `run` that `before` rejects, given that it
/// accepts a prefix — `partition_point`, probing at 1, 2, 4, … from the
/// front first, so finding a nearby point costs the logarithm of its
/// distance rather than of the run's length, and stays in the cache lines
/// the copy is about to read. Measured where it is used (docs/PERF.md): a
/// 25 000-change patch of 10⁶ elements takes 4.5 ms with it and 11.4 ms
/// with `old[at..].partition_point(..)`, a `full_1m_d1k` sync 67 ms and 77.
fn gallop(run: &[u64], mut before: impl FnMut(u64) -> bool) -> usize {
    let (mut lo, mut step) = (0usize, 1usize);
    while lo + step <= run.len() && before(run[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step - 1).min(run.len());
    lo + run[lo..hi].partition_point(|&e| before(e))
}

impl SetView {
    /// Lay `elements` out under `seed`, with a bank of `sketches` ToW
    /// sketches. `epoch` is the holder's stamp of this version of the set;
    /// the view only carries it. Repeated elements are kept once. O(|S| log
    /// |S|): what [`SetView::patched`] exists to avoid doing again.
    pub fn build(mut elements: Vec<u64>, seed: u64, sketches: usize, epoch: u64) -> Self {
        let hash_seed = group_seed(seed);
        let mut keyed: Vec<(u64, u64)> = elements
            .iter()
            .map(|&e| (xxhash64_u64(e, hash_seed), e))
            .collect();
        keyed.sort_unstable();
        keyed.dedup();
        elements.clear();
        elements.extend(keyed.iter().map(|&(_, e)| e));
        let mut bank = TowEstimator::new(sketches, derive_seed(seed, ESTIMATOR_SEED_SALT));
        bank.insert_slice(&elements);
        SetView {
            seed,
            epoch,
            elements,
            bank,
        }
    }

    /// The view of this set with `removed` taken out and `added` put in,
    /// stamped `epoch` — equal to [`SetView::build`] over the resulting set,
    /// at the cost of sorting the change, one look-up per changed element
    /// and a copy of the runs in between. Removing an element the set does
    /// not hold or adding one it holds changes nothing; an element in both
    /// lists ends up held.
    pub fn patched(&self, added: &[u64], removed: &[u64], epoch: u64) -> Self {
        let hash_seed = group_seed(self.seed);
        let key = |e: u64| (xxhash64_u64(e, hash_seed), e);
        // The change in view order; at equal keys a removal sorts first.
        let mut changes: Vec<((u64, u64), bool)> = removed
            .iter()
            .map(|&e| (key(e), false))
            .chain(added.iter().map(|&e| (key(e), true)))
            .collect();
        changes.sort_unstable();
        changes.dedup();

        let old = &self.elements;
        let mut elements = Vec::with_capacity(old.len() + added.len());
        let (mut came, mut went) = (Vec::new(), Vec::new());
        // `old[..at]` is dealt with: copied, or removed.
        let mut at = 0usize;
        for (at_key, add) in changes {
            let element = at_key.1;
            let stop = at + gallop(&old[at..], |e| key(e) < at_key);
            elements.extend_from_slice(&old[at..stop]);
            at = stop;
            let held = old.get(at) == Some(&element);
            if add && !held {
                elements.push(element);
                came.push(element);
            } else if !add && held {
                at += 1;
                went.push(element);
            }
        }
        elements.extend_from_slice(&old[at..]);

        let mut bank = self.bank.clone();
        bank.insert_slice(&came);
        bank.remove_slice(&went);
        SetView {
            seed: self.seed,
            epoch,
            elements,
            bank,
        }
    }

    /// The session seed the layout was made under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The holder's stamp of this version of the set.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` for the view of the empty set.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The set, in the order of the seeded group hash.
    pub fn elements(&self) -> &[u64] {
        &self.elements
    }

    /// The set's ToW bank of `sketches` sketches under this view's seed:
    /// the one kept with the view when it has that many — O(1) — and one
    /// computed from the elements otherwise.
    pub fn bank(&self, sketches: usize) -> Cow<'_, TowEstimator> {
        if self.bank.sketch_count() == sketches {
            return Cow::Borrowed(&self.bank);
        }
        let mut bank = TowEstimator::new(sketches, self.bank.seed());
        bank.insert_slice(&self.elements);
        Cow::Owned(bank)
    }

    /// The `groups` parts of the §3 group partition, as index ranges into
    /// [`SetView::elements`]: range `i` holds exactly the elements part `i`
    /// of [`PartitionHasher::partition`] holds under the session's group
    /// hash. Empty groups are empty ranges.
    pub(crate) fn group_ranges(&self, groups: usize) -> Vec<Range<usize>> {
        let hasher = PartitionHasher::new(groups.max(1) as u64, group_seed(self.seed));
        let mut start = 0usize;
        (1..=groups.max(1) as u64)
            .map(|next| {
                let end = start + self.elements[start..].partition_point(|&e| hasher.bin(e) < next);
                std::mem::replace(&mut start, end)..end
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn gallop_is_partition_point() {
        let run: Vec<u64> = (0..100).collect();
        for cut in [0u64, 1, 2, 3, 4, 7, 8, 50, 63, 64, 99, 100] {
            assert_eq!(gallop(&run, |e| e < cut), cut as usize);
            assert_eq!(gallop(&run[..cut as usize], |_| true), cut as usize);
        }
        assert_eq!(gallop(&[], |_| true), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The one oracle of the view: through a random sequence of change
        /// batches — repeats inside a batch, an element removed and re-added
        /// (across batches and within one), removals of what is not held,
        /// the empty set, `0` and `u64::MAX` — every patched view equals the
        /// view built cold from the resulting set; and for group counts
        /// from 1 to past the set's length its ranges hold what
        /// `PartitionHasher::partition` puts in each part, its bank is
        /// `insert_slice` over the set at either sketch count.
        #[test]
        fn a_patched_view_is_the_cold_built_view(
            initial in prop::collection::vec(
                prop_oneof![0u64..64, Just(u64::MAX), any::<u64>()], 0usize..120),
            batches in prop::collection::vec(
                (
                    prop::collection::vec(
                        prop_oneof![0u64..64, Just(u64::MAX), any::<u64>()], 0usize..24),
                    prop::collection::vec(
                        prop_oneof![0u64..64, Just(u64::MAX), any::<u64>()], 0usize..24),
                ),
                0usize..8,
            ),
            seed in any::<u64>(),
            groups in 1usize..200,
        ) {
            let sketches = 40;
            let mut model: BTreeSet<u64> = initial.iter().copied().collect();
            let mut view = SetView::build(initial, seed, sketches, 0);
            for (i, (added, removed)) in batches.iter().enumerate() {
                let epoch = i as u64 + 1;
                for e in removed {
                    model.remove(e);
                }
                model.extend(added.iter().copied());
                view = view.patched(added, removed, epoch);
                let held: Vec<u64> = model.iter().copied().collect();
                prop_assert_eq!(&view, &SetView::build(held, seed, sketches, epoch));
            }
            let held: Vec<u64> = model.iter().copied().collect();
            prop_assert_eq!(sorted(view.elements().to_vec()), held.clone());

            let hasher = PartitionHasher::new(groups as u64, group_seed(seed));
            let ranges = view.group_ranges(groups);
            let parts = hasher.partition(&held);
            prop_assert_eq!(ranges.len(), parts.len());
            let mut next = 0;
            for (range, part) in ranges.iter().zip(parts) {
                prop_assert_eq!(range.start, next);
                next = range.end;
                prop_assert_eq!(sorted(view.elements()[range.clone()].to_vec()), sorted(part));
            }
            prop_assert_eq!(next, view.len());

            for count in [sketches, 7] {
                let mut bank =
                    TowEstimator::new(count, derive_seed(seed, ESTIMATOR_SEED_SALT));
                bank.insert_slice(&held);
                prop_assert_eq!(&*view.bank(count), &bank);
            }
        }
    }
}
