//! Hash maps for the simulator's integer-keyed hot-path state.
//!
//! std's default SipHash resists hash flooding, which the simulator does
//! not need: its keys are addresses and line numbers it computes itself.
//! [`FastHasher`] is an FxHash-style multiply-rotate hasher, a few
//! instructions per word, with a final rotation that moves the well-mixed
//! high bits of the product to where the table takes its bucket index.
//!
//! Iteration order over a [`FastMap`] or [`FastSet`] is arbitrary (but
//! deterministic), so only maps nothing iterates order-dependently use them.
//! Content fingerprints keep their own stable hasher
//! ([`crate::fingerprint`]).
//!
//! ```
//! use simkit::fastmap::FastMap;
//!
//! let mut chunks: FastMap<u64, u32> = FastMap::default();
//! chunks.insert(0x40, 1);
//! assert_eq!(chunks.get(&0x40), Some(&1));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`]. Build it with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed by [`FastHasher`]. Build it with `FastSet::default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// The multiplier of the word mix (the 64-bit FxHash constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_keys() {
        assert_eq!(hash_of(0x1234_u64), hash_of(0x1234_u64));
        assert_ne!(hash_of(1_u64), hash_of(2_u64));
        assert_ne!(hash_of((1_u64, 2_u64)), hash_of((2_u64, 1_u64)));
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // Line and chunk addresses share their low bits; the bucket index
        // (the hash's low bits) must still vary.
        let buckets: FastSet<u64> = (0..256_u64).map(|i| hash_of(i << 12) & 0xff).collect();
        assert!(
            buckets.len() > 128,
            "only {} of 256 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut map: FastMap<u64, u64> = FastMap::default();
        let mut set: FastSet<u64> = FastSet::default();
        for i in 0..1000 {
            map.insert(i * 64, i);
            set.insert(i * 64);
        }
        assert_eq!(map.len(), 1000);
        assert!((0..1000).all(|i| map[&(i * 64)] == i && set.contains(&(i * 64))));
        map.retain(|_, v| *v % 2 == 0);
        assert_eq!(map.len(), 500);
        assert!(set.remove(&64) && !set.contains(&64));
    }
}
