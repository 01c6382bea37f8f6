//! One keyed hash for the `u64`-keyed tables a peer's elements reach.
//!
//! std's default hasher is SipHash-1-3: keyed, and several times the cost
//! of [`xxhash64_u64`] for one `u64`. The tables a store or a session keeps
//! over elements and session ids sit on the path of every write, catch-up
//! and round, so they use [`xxhash64_u64`] instead, under a key that no
//! peer sees: each table draws its own from the process's OS-seeded
//! `RandomState`, never from a seed that goes on the wire. A peer that cannot learn the key
//! cannot aim a crafted set at one probe chain. (`xxhash64` is no keyed
//! PRF: the key keeps slots from being chosen, not from being computed by
//! a peer who recovers it.)

use crate::xx::{xxhash64, xxhash64_u64};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A set of `u64` elements hashed by [`KeyedState`].
pub type Set = HashSet<u64, KeyedState>;

/// A map keyed by `u64` elements or ids, hashed by [`KeyedState`].
pub type Map<V> = HashMap<u64, V, KeyedState>;

/// The [`BuildHasher`] of [`Set`] and [`Map`]: [`xxhash64_u64`] under a key
/// drawn per table. `Default` draws a fresh key; a clone keeps its key, as
/// a cloned table must.
#[derive(Debug, Clone)]
pub struct KeyedState {
    key: u64,
}

impl Default for KeyedState {
    fn default() -> Self {
        KeyedState {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl KeyedState {
    /// What [`BuildHasher::hash_one`] gives each `u64` key, into `out`,
    /// eight keys at a time.
    pub(crate) fn hash_slice(&self, keys: &[u64], out: &mut [u64]) {
        crate::xx::xxhash64_u64_slice(keys, self.key, out);
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher { state: self.key }
    }
}

/// The [`Hasher`] [`KeyedState`] builds. A `u64` is one [`xxhash64_u64`]
/// under the table's key; any other write folds through [`xxhash64`].
#[derive(Debug, Clone)]
pub struct KeyedHasher {
    state: u64,
}

impl Hasher for KeyedHasher {
    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.state = xxhash64_u64(value, self.state);
    }

    fn write(&mut self, bytes: &[u8]) {
        self.state = xxhash64(bytes, self.state);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tables_draw_different_keys() {
        let (a, b) = (KeyedState::default(), KeyedState::default());
        assert_ne!(a.key, b.key);
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        // A table's clone hashes as the table does.
        assert_eq!(a.hash_one(7u64), a.clone().hash_one(7u64));
    }

    #[test]
    fn a_u64_is_one_keyed_xxhash() {
        let state = KeyedState::default();
        let keys = [0u64, 1, 0xFFFF_FFFF, u64::MAX, 7, 8, 9, 10, 11];
        let mut hashes = [0u64; 9];
        state.hash_slice(&keys, &mut hashes);
        for (&e, &h) in keys.iter().zip(&hashes) {
            assert_eq!(state.hash_one(e), xxhash64_u64(e, state.key));
            assert_eq!(h, state.hash_one(e));
        }
    }
}
