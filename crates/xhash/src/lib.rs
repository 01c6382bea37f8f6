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
//! * [`Set`] / [`Map`] — std tables over `u64` keys hashed by
//!   [`xxhash64_u64`] under a per-table key of the process's choosing
//!   ([`KeyedState`]), for the element and session-id tables a peer's
//!   input reaches.

//!
//! # Example
//!
//! ```
//! use xhash::{derive_seed, element_checksum, xxhash64, PartitionHasher};
//!
//! // Deterministic, label-separated seed derivation.
//! assert_eq!(xxhash64(b"pbs", 1), xxhash64(b"pbs", 1));
//! assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
//!
//! // Partition elements into 1-based bins 1..=n.
//! let hasher = PartitionHasher::new(127, 42);
//! assert!((1..=127).contains(&hasher.position(1234)));
//!
//! // The additive set checksum, modulo the universe.
//! assert_eq!(element_checksum(32, [0xFFFF_FFFF, 9]), 8);
//! ```

#![warn(missing_docs)]

mod keyed;
mod lanes;
mod partition;
mod sign;
mod xx;

pub use keyed::{KeyedHasher, KeyedState, Map, Set};
pub use partition::PartitionHasher;
pub use sign::SignHasher;
pub use xx::{xxhash64, xxhash64_u64, xxhash64_u64_slice};

/// The set checksum `c(S)` of §2.2.3 in one pass: the sum of all elements
/// viewed as integers, modulo `2^universe_bits` (i.e. modulo `|U|`) — a
/// `log|U|`-bit value, the length of one element.
pub fn element_checksum(universe_bits: u32, elements: impl IntoIterator<Item = u64>) -> u64 {
    assert!(
        (1..=64).contains(&universe_bits),
        "universe_bits must be in 1..=64"
    );
    let mask = u64::MAX >> (64 - universe_bits);
    elements
        .into_iter()
        .fold(0, |sum, e| sum.wrapping_add(e) & mask)
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
        assert_eq!(element_checksum(64, [u64::MAX, 1]), 0);
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
        element_checksum(0, [1]);
    }
}
