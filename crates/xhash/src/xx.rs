//! A from-scratch implementation of the xxHash64 algorithm.
//!
//! The paper's reference implementation uses the xxHash C library for all of
//! its hash functions; this module reproduces the 64-bit variant so the rest
//! of the workspace has a fast, seedable, well-distributed hash without an
//! external dependency. The implementation follows the published xxHash64
//! specification (prime constants, 4-lane stripe processing, avalanche
//! finalization) and is verified against the reference test vectors.

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

#[inline]
fn read_u32(b: &[u8]) -> u64 {
    u32::from_le_bytes(b[..4].try_into().unwrap()) as u64
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// One-shot xxHash64 of a byte slice with the given seed.
pub fn xxhash64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut rest = data;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..]));
            v2 = round(v2, read_u64(&rest[8..]));
            v3 = round(v3, read_u64(&rest[16..]));
            v4 = round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while rest.len() >= 8 {
        h ^= round(0, read_u64(rest));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= read_u32(rest).wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        h ^= (byte as u64).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    avalanche(h)
}

/// Convenience: hash a `u64` key (little-endian bytes) with a seed.
///
/// This is the straight-line specialization of [`xxhash64`] for an exactly
/// 8-byte input: the stripe loop, the 4-byte tail and the per-byte tail all
/// vanish, leaving one round, one rotate-multiply-add and the avalanche.
/// Byte-for-byte identical to `xxhash64(&key.to_le_bytes(), seed)` (checked
/// by a unit test), but small enough to inline into the IBLT / partition /
/// estimator hot loops, which the generic byte-slice routine is not.
#[inline]
pub fn xxhash64_u64(key: u64, seed: u64) -> u64 {
    let mut h = seed.wrapping_add(PRIME64_5).wrapping_add(8);
    h ^= round(0, key);
    h = h
        .rotate_left(27)
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4);
    avalanche(h)
}

/// [`xxhash64_u64`] of every key under one seed, into `out`: eight keys at
/// a time, on a CPU with AVX-512 eight lanes wide.
///
/// # Panics
/// Panics if `out` is not as long as `keys`.
pub fn xxhash64_u64_slice(keys: &[u64], seed: u64, out: &mut [u64]) {
    crate::lanes::hash_block(keys, seed, crate::lanes::Whole, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_reference_vector() {
        // The widely published xxHash64 digest of the empty input with seed 0.
        assert_eq!(xxhash64(&[], 0), 0xEF46DB3751D8E999);
    }

    #[test]
    fn output_is_well_distributed() {
        // Hash 64k consecutive integers and check bit balance: each of the 64
        // output bits should be set in roughly half the digests.
        let n = 1 << 16;
        let mut ones = [0u32; 64];
        for i in 0..n as u64 {
            let h = xxhash64_u64(i, 0);
            for (b, count) in ones.iter_mut().enumerate() {
                if (h >> b) & 1 == 1 {
                    *count += 1;
                }
            }
        }
        for (b, &count) in ones.iter().enumerate() {
            let frac = count as f64 / n as f64;
            assert!(
                (0.47..=0.53).contains(&frac),
                "output bit {b} unbalanced: {frac}"
            );
        }
    }

    #[test]
    fn no_collisions_on_small_consecutive_keys() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(xxhash64_u64(i, 9)), "collision at key {i}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let data = b"parity bitmap sketch";
        assert_ne!(xxhash64(data, 1), xxhash64(data, 2));
    }

    #[test]
    fn u64_helper_consistent() {
        assert_eq!(
            xxhash64_u64(0xDEADBEEF, 7),
            xxhash64(&0xDEADBEEFu64.to_le_bytes(), 7)
        );
    }

    #[test]
    fn u64_specialization_matches_generic_path() {
        // The straight-line 8-byte path must agree with the generic routine
        // for every (key, seed) pattern class: small, large, bit-sparse.
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for i in 0..4096u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            let key = match i % 4 {
                0 => x,
                1 => i,
                2 => 1u64 << (i % 64),
                _ => u64::MAX - i,
            };
            let seed = x.rotate_left(17);
            assert_eq!(
                xxhash64_u64(key, seed),
                xxhash64(&key.to_le_bytes(), seed),
                "mismatch at key={key:#x} seed={seed:#x}"
            );
        }
    }
}
