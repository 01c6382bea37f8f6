//! [`SetView`]: a party's set laid out once, for every session that reads
//! it.

use crate::session::group_seed;
use crate::ESTIMATOR_SEED_SALT;
use estimator::{Estimator, TowEstimator};
use std::ops::Range;
use xhash::{derive_seed, xxhash64_u64, xxhash64_u64_slice, PartitionHasher};

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
/// derives the next from it by handing [`SetView::patched`] its changelog
/// since — folded and merged in time proportional to the change — and
/// hands it to as many sessions as run against that version
/// ([`crate::BobSession::from_view`]). The layout depends on the
/// session seed, so sessions that share a view share its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetView {
    seed: u64,
    epoch: u64,
    /// Distinct, ascending by `(xxhash64_u64(e, group_seed(seed)), e)`.
    elements: Vec<u64>,
    /// The bank of `elements` under `derive_seed(seed, ESTIMATOR_SEED_SALT)`.
    bank: TowEstimator,
    /// How many of `elements` have each bit length ([`count_widths`]).
    widths: [u64; 65],
}

/// Add `by` (1, or −1 as it wraps) to `widths`' count of each element's bit
/// length (index: 64 − leading zeros): a view's counts, and the width
/// ledger of the store that holds the set.
pub fn count_widths<'a>(
    widths: &mut [u64; 65],
    elements: impl IntoIterator<Item = &'a u64>,
    by: u64,
) {
    for e in elements {
        let n = &mut widths[64 - e.leading_zeros() as usize];
        *n = n.wrapping_add(by);
    }
}

/// Index of the first element of `run` that `before` rejects, given that it
/// accepts a prefix — `partition_point`, probing at 1, 2, 4, … from the
/// front first, so finding a nearby point costs the logarithm of its
/// distance rather than of the run's length, and stays in the cache lines
/// the copy is about to read: with 25 000 changes spread over 10⁶
/// elements, a patch takes under half the time it takes with
/// `old[at..].partition_point(..)` (docs/PERF.md).
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
        let mut keyed: Vec<(u64, u64)> = Vec::with_capacity(elements.len());
        let mut hashes = [0u64; 1024];
        for chunk in elements.chunks(hashes.len()) {
            let hashes = &mut hashes[..chunk.len()];
            xxhash64_u64_slice(chunk, hash_seed, hashes);
            keyed.extend(hashes.iter().copied().zip(chunk.iter().copied()));
        }
        keyed.sort_unstable();
        keyed.dedup();
        elements.clear();
        elements.extend(keyed.iter().map(|&(_, e)| e));
        let mut bank = TowEstimator::new(sketches, derive_seed(seed, ESTIMATOR_SEED_SALT));
        bank.insert_slice(&elements);
        let mut widths = [0; 65];
        count_widths(&mut widths, &elements, 1);
        SetView {
            seed,
            epoch,
            elements,
            bank,
            widths,
        }
    }

    /// The view of this set brought forward through a changelog — each
    /// batch's `(added, removed)`, in the order the batches were made —
    /// and stamped `epoch`: equal to [`SetView::build`] over the set the
    /// stream leaves. Each element ends up as its *last* change left it
    /// (within a batch, the removals come first, as a `DeltaFold` applies
    /// them), whatever came before; an element the stream does not touch
    /// keeps its place. Removing what the set does not hold or adding what
    /// it holds changes nothing. The cost is one sort of the stream in view
    /// order, one look-up per changed element and a copy of the runs in
    /// between.
    pub fn patched<'a, I>(&self, batches: I, epoch: u64) -> Self
    where
        I: IntoIterator<Item = (&'a [u64], &'a [u64])>,
        I::IntoIter: Clone,
    {
        let hash_seed = group_seed(self.seed);
        let hash = |e: u64| xxhash64_u64(e, hash_seed);
        let batches = batches.into_iter();
        let (entries, adds) = batches
            .clone()
            .fold((0, 0), |(all, adds), (added, removed)| {
                (all + added.len() + removed.len(), adds + added.len())
            });
        // The stream in view order, each element's changes in stream order:
        // `(key, element, batch, added)`, a batch's removal before its add.
        let mut changes: Vec<(u64, u64, usize, bool)> = Vec::with_capacity(entries);
        for (batch, (added, removed)) in batches.enumerate() {
            changes.extend(removed.iter().map(|&e| (hash(e), e, batch, false)));
            changes.extend(added.iter().map(|&e| (hash(e), e, batch, true)));
        }
        changes.sort_unstable();

        let old = &self.elements;
        let mut elements = Vec::with_capacity(old.len() + adds);
        let (mut came, mut went) = (Vec::new(), Vec::new());
        // `old[..at]` is dealt with: copied, or removed.
        let mut at = 0usize;
        for run in changes.chunk_by(|a, b| a.1 == b.1) {
            // The element's last change is the one that stands.
            let Some(&(key, element, _, add)) = run.last() else {
                continue;
            };
            let stop = at + gallop(&old[at..], |e| (hash(e), e) < (key, element));
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
        let mut widths = self.widths;
        count_widths(&mut widths, &came, 1);
        count_widths(&mut widths, &went, u64::MAX);
        SetView {
            seed: self.seed,
            epoch,
            elements,
            bank,
            widths,
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

    /// The bit length of the widest element (0 for the empty set): the
    /// narrowest universe a session on this version can run in.
    pub fn universe_bits(&self) -> u32 {
        self.widths.iter().rposition(|&n| n > 0).unwrap_or(0) as u32
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

    /// The set's ToW bank under this view's seed, kept with the view: the
    /// one bank every session that reads the view estimates against.
    pub fn bank(&self) -> &TowEstimator {
        &self.bank
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

    /// Batches as the changelog stream [`SetView::patched`] takes.
    fn stream(batches: &[(Vec<u64>, Vec<u64>)]) -> impl Iterator<Item = (&[u64], &[u64])> + Clone {
        batches
            .iter()
            .map(|(added, removed)| (&added[..], &removed[..]))
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

        /// The one oracle of the view: a random stream of change batches —
        /// repeats inside a batch, an element removed and re-added (across
        /// batches and within one), removals of what is not held, the empty
        /// set, `0` and `u64::MAX` — patched in whole in one call, and in
        /// two calls split at a random batch, gives the view built cold from
        /// the set the stream leaves; and for group counts from 1 to past
        /// the set's length its ranges hold what
        /// `PartitionHasher::partition` puts in each part, its bank is
        /// `insert_slice` over the set.
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
            split in 0usize..9,
            seed in any::<u64>(),
            groups in 1usize..200,
        ) {
            let sketches = 40;
            let mut model: BTreeSet<u64> = initial.iter().copied().collect();
            let start = SetView::build(initial, seed, sketches, 0);
            let (first, second) = batches.split_at(split.min(batches.len()));
            let mut at_split = model.clone();
            for (i, (added, removed)) in batches.iter().enumerate() {
                for e in removed {
                    model.remove(e);
                }
                model.extend(added.iter().copied());
                if i + 1 == first.len() {
                    at_split = model.clone();
                }
            }
            let held: Vec<u64> = model.iter().copied().collect();
            let epoch = batches.len() as u64;
            let view = start.patched(stream(&batches), epoch);
            prop_assert_eq!(&view, &SetView::build(held.clone(), seed, sketches, epoch));

            let halfway = start.patched(stream(first), first.len() as u64);
            let at_split: Vec<u64> = at_split.into_iter().collect();
            prop_assert_eq!(
                &halfway,
                &SetView::build(at_split, seed, sketches, first.len() as u64)
            );
            prop_assert_eq!(&halfway.patched(stream(second), epoch), &view);

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

            let mut bank = TowEstimator::new(sketches, derive_seed(seed, ESTIMATOR_SEED_SALT));
            bank.insert_slice(&held);
            prop_assert_eq!(view.bank(), &bank);
        }
    }
}
