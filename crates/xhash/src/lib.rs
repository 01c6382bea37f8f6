//! Seeded hashing substrate for the PBS reproduction.
//!
//! Every scheme in the workspace relies on *consistent* hashing: Alice and
//! Bob must map the same element to the same partition, bin, Bloom-filter
//! position, or ±1 sign, using nothing but a shared seed. This crate provides
//! those hash functions, built from scratch (the paper uses the xxHash
//! library; we re-implement xxHash64 so no external dependency is needed):
//!
//! * [`xxhash64`] / [`xxhash64_u64`] — an xxHash64-compatible 64-bit hash,
//!   over a byte slice and specialized to one `u64` key.
//! * [`PartitionHasher`] — maps a `u64` element to a bin in `0..n` under a
//!   round/group seed. PBS uses a fresh, mutually-independent hash function
//!   per round (§2.4); this is achieved by deriving a new seed per round.
//! * [`SignHasher`] — a 4-wise independent ±1 hash family over the Mersenne
//!   prime `2^61 - 1`, as required by the Tug-of-War estimator (§6, Fact 1);
//!   one polynomial evaluation yields 32 sign functions.
//! * [`element_checksum`] — the plain-summation set checksum of §2.2.3.

//!
//! # Example
//!
//! ```
//! use xhash::{derive_seed, xxhash64, PartitionHasher, SetChecksum};
//!
//! // Deterministic, label-separated seed derivation.
//! assert_eq!(xxhash64(b"pbs", 1), xxhash64(b"pbs", 1));
//! assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
//!
//! // Partition elements into 1-based bins 1..=n.
//! let hasher = PartitionHasher::new(127, 42);
//! assert!((1..=127).contains(&hasher.position(1234)));
//!
//! // Incrementally maintained additive set checksum.
//! let mut c = SetChecksum::new(32);
//! c.add(5);
//! c.add(9);
//! c.remove(5);
//! assert_eq!(c.value(), xhash::element_checksum(32, [9]));
//! ```

#![warn(missing_docs)]

mod partition;
mod sign;
mod xx;

pub use partition::PartitionHasher;
pub use sign::SignHasher;
pub use xx::{xxhash64, xxhash64_u64};

/// The set checksum `c(S)` of §2.2.3: the sum of all elements viewed as
/// integers, modulo `2^universe_bits` (i.e. modulo `|U|`).
///
/// The checksum of a set is `log|U|` bits long — the same length as one
/// element — and can be updated incrementally as elements are added or
/// removed (`add` to insert, `remove` to delete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetChecksum {
    value: u64,
    mask: u64,
}

impl SetChecksum {
    /// Create a zero checksum for a universe of `universe_bits`-bit elements.
    pub fn new(universe_bits: u32) -> Self {
        assert!(
            (1..=64).contains(&universe_bits),
            "universe_bits must be in 1..=64"
        );
        let mask = if universe_bits == 64 {
            u64::MAX
        } else {
            (1u64 << universe_bits) - 1
        };
        SetChecksum { value: 0, mask }
    }

    /// Add an element to the checksummed set.
    #[inline]
    pub fn add(&mut self, element: u64) {
        self.value = self.value.wrapping_add(element) & self.mask;
    }

    /// Remove an element from the checksummed set.
    #[inline]
    pub fn remove(&mut self, element: u64) {
        self.value = self.value.wrapping_sub(element) & self.mask;
    }

    /// Current checksum value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// Compute the checksum of a full set in one pass.
pub fn element_checksum(universe_bits: u32, elements: impl IntoIterator<Item = u64>) -> u64 {
    let mut c = SetChecksum::new(universe_bits);
    for e in elements {
        c.add(e);
    }
    c.value()
}

/// Derive a fresh 64-bit seed from a base seed and a label. Used to obtain
/// the mutually independent hash functions PBS needs per round, per group,
/// and per sub-group without any coordination beyond the base seed.
#[inline]
pub fn derive_seed(base: u64, label: u64) -> u64 {
    xxhash64(&label.to_le_bytes(), base ^ 0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_add_remove_round_trip() {
        let mut c = SetChecksum::new(32);
        c.add(10);
        c.add(0xFFFF_FFFF);
        c.add(7);
        let v = c.value();
        c.add(99);
        c.remove(99);
        assert_eq!(c.value(), v);
        assert!(c.value() < 1u64 << 32);
    }

    #[test]
    fn checksum_equals_sum_mod_universe() {
        let elems = [5u64, 1 << 31, (1 << 32) - 1, 123456789];
        let sum: u64 = elems.iter().fold(0u64, |a, &b| a.wrapping_add(b)) & 0xFFFF_FFFF;
        assert_eq!(element_checksum(32, elems), sum);
    }

    #[test]
    fn checksum_is_order_independent() {
        let a = element_checksum(32, [1u64, 2, 3, 4, 5]);
        let b = element_checksum(32, [5u64, 3, 1, 2, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn checksum_64_bit_universe() {
        let mut c = SetChecksum::new(64);
        c.add(u64::MAX);
        c.add(1);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn derive_seed_varies_with_label_and_base() {
        let s1 = derive_seed(42, 0);
        let s2 = derive_seed(42, 1);
        let s3 = derive_seed(43, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(s1, derive_seed(42, 0));
    }

    #[test]
    #[should_panic(expected = "universe_bits must be in 1..=64")]
    fn checksum_rejects_zero_bits() {
        SetChecksum::new(0);
    }
}
