//! An FxHash-style non-cryptographic hasher.
//!
//! The interning maps on the hot paths — `Marking → usize` during STG
//! reachability (a marking is a short sorted list of marked place ids),
//! state-code maps during state-graph construction and CSC
//! checking, cover memoization keys — never face adversarial inputs, so
//! SipHash's HashDoS resistance buys nothing, and a keyless hasher keeps
//! iteration order stable across runs. This is the classic rustc
//! multiply-rotate word hash: one wrapping multiply and one rotate per
//! word of input. Whether it is also faster than SipHash on today's keys
//! is not measured; `e2ebench`'s per-layer numbers are where to settle it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// 64-bit Fibonacci-style multiplicative constant (rustc's `FxHasher` seed).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The multiply-rotate hasher. Deterministic (no per-process random state),
/// so hash-map iteration order is stable across runs for identical insert
/// sequences — a property the determinism guarantees of the parallel
/// pipeline lean on indirectly (no keyed randomness can leak into results).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A wrapping multiply only diffuses entropy toward the high bits, so
        // keys whose entropy sits in scattered single bits (e.g. a vector
        // of 0/1 bytes) would leave the low bits — the ones hashbrown uses
        // for bucket indexing — nearly constant. Fold the high half back
        // down once per key.
        let h = self.hash.wrapping_mul(K);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"marking"), hash_of(&"marking"));
        assert_eq!(hash_of(&vec![1u8, 2, 3]), hash_of(&vec![1u8, 2, 3]));
    }

    #[test]
    fn distinguishes_close_inputs() {
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&[0u8, 1]), hash_of(&[1u8, 0]));
        // Length-tagged tail: a short slice differs from its zero-padding.
        assert_ne!(hash_of(&[0u8][..]), hash_of(&[0u8, 0][..]));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<Vec<u8>, usize> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert(i.to_le_bytes().to_vec(), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000usize {
            assert_eq!(m[&i.to_le_bytes().to_vec()], i);
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.extend(0..100u64);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn distribution_spreads_sequential_keys() {
        // Sequential integers must not collapse into a handful of buckets.
        // A single multiply-rotate is lattice-like on sequential keys, so
        // expect far less than the ~63% a random function would hit — but
        // well above the degenerate few-bucket case that cripples a map.
        let mut top_bits: FxHashSet<u64> = FxHashSet::default();
        for i in 0..4096u64 {
            top_bits.insert(hash_of(&i) >> 52); // top 12 bits
        }
        assert!(top_bits.len() > 256, "only {} distinct", top_bits.len());
    }
}
