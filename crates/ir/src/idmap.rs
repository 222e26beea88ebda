//! Hash tables keyed by compiler-assigned integer ids.
//!
//! [`VarId`](crate::VarId), [`GlobalId`](crate::GlobalId),
//! [`RepId`](crate::RepId) and [`FnId`](crate::FnId) are small integers
//! the compiler hands out itself, so a cheap multiplicative hash spreads
//! them well and no input can pick them to collide. The optimizer and
//! code generator look such ids up millions of times per compile, where
//! std's keyed SipHash costs more than the rest of the lookup.
//!
//! Never key an [`IdMap`] by anything derived from source text (names,
//! string or datum literals): those tables keep std's `RandomState`, so
//! crafted identifiers cannot force collisions.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (as used by rustc for its own id
/// tables): odd, so the low bits of sequential ids stay distinct.
const MULTIPLIER: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-rotate hasher for integer id keys (see the module docs for
/// where it must not be used).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by compiler-assigned ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` of compiler-assigned ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn dense_ids_hash_apart() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let hashes: HashSet<u64> = (0u32..10_000).map(|v| build.hash_one(v)).collect();
        assert_eq!(hashes.len(), 10_000);
        // The table indexes buckets by the low bits: those must differ too.
        let low: HashSet<u64> = (0u32..1024).map(|v| build.hash_one(v) & 1023).collect();
        assert_eq!(low.len(), 1024);
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: IdMap<u32, u32> = IdMap::default();
        for v in 0..1000 {
            m.insert(v * 7, v);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|v| m.get(&(v * 7)) == Some(&v)));
        assert_eq!(m.get(&1), None);
    }
}
