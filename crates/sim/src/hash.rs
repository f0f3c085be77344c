//! A deterministic, fast hasher for simulation-internal maps.
//!
//! `std`'s default `RandomState` seeds SipHash per process — fine for
//! DoS resistance, wrong for a simulator that promises bit-identical
//! runs across processes and machines, and needlessly slow for the
//! small integer keys the protocol state machines use. [`FxHasher`]
//! implements the rustc-hash (Firefox) multiply-rotate scheme: a pure
//! function of the key bytes, several times faster than SipHash on
//! word-sized keys.
//!
//! Note hash maps are still unordered: any behaviour-relevant iteration
//! must sort, hasher or no hasher. The determinism win is defence in
//! depth; the throughput win is the point.
//!
//! [`Fnv1a`] is the workspace's one stable digest: campaign and design
//! fingerprints, eval-cache keys and golden digests are all FNV-1a, so
//! they must never change with a Rust release or a platform.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from rustc-hash (the golden-ratio based
/// Fibonacci hashing constant for 64-bit words).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-hash / FxHash word-at-a-time hasher: deterministic across
/// processes and fast on small keys. Not collision-resistant against
/// adversaries — simulation state only.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POWS[k]` = `FNV_PRIME^k`: folding `k` zero bytes.
const PRIME_POWS: [u64; 9] = {
    let mut pows = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pows[k] = pows[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pows
};

/// Incremental 64-bit FNV-1a digest: tiny, and stable across platforms
/// and releases (unlike `std`'s hashers), so it can pin files on disk.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds `count` zero bytes. XOR with zero changes nothing, so each
    /// zero byte is one multiply by the prime, and a run of them is one
    /// multiply by the prime's power.
    pub fn write_zeros(&mut self, count: u32) {
        self.0 = self.0.wrapping_mul(FNV_PRIME.wrapping_pow(count));
    }

    /// Folds a `u64` (little-endian bytes). Its high zero bytes come
    /// last and fold in one multiply.
    pub fn write_u64(&mut self, v: u64) {
        let significant = 8 - (v.leading_zeros() / 8) as usize;
        self.write(&v.to_le_bytes()[..significant]);
        self.0 = self.0.wrapping_mul(PRIME_POWS[8 - significant]);
    }

    /// Folds an `f64` by exact bit pattern (no rounding ambiguity).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// FNV-1a one byte at a time, as the specification states it.
    fn fnv_bytes(bytes: &[u8]) -> u64 {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// `v` with byte `i` cleared wherever bit `i` of `mask` is set.
    fn clear_bytes(v: u64, mask: u32) -> u64 {
        (0..8).filter(|i| mask >> i & 1 == 1).fold(v, |v, i| v & !(0xff << (8 * i)))
    }

    #[test]
    fn fnv_write_u64_matches_the_byte_serial_reference_at_the_edges() {
        let values = [
            0,
            1,
            0xff,
            0x100,
            u64::MAX,
            1 << 63,
            0xff00_0000_0000_0000,
            0x00ff_0000_0000_ff00,
            0x0100_0000_0000_0001,
            0x1234_0000_5678_0000,
        ];
        let mut h = Fnv1a::default();
        let mut bytes = Vec::new();
        for v in values {
            h.write_u64(v);
            bytes.extend_from_slice(&v.to_le_bytes());
            assert_eq!(h.finish(), fnv_bytes(&bytes), "after {v:#x}");
        }
        let mut zeros = Fnv1a::default();
        zeros.write_zeros(300);
        assert_eq!(zeros.finish(), fnv_bytes(&[0; 300]));
    }

    proptest! {
        /// Folding high zero bytes in one multiply hashes exactly the
        /// bytes FNV-1a would, for values with zero bytes anywhere.
        #[test]
        fn fnv_write_u64_matches_the_byte_serial_reference(
            values in proptest::collection::vec((0u64..u64::MAX, 0u32..256), 0..12)
        ) {
            let mut h = Fnv1a::default();
            let mut bytes = Vec::new();
            for (v, mask) in values {
                let v = clear_bytes(v, mask);
                h.write_u64(v);
                bytes.extend_from_slice(&v.to_le_bytes());
                prop_assert_eq!(h.finish(), fnv_bytes(&bytes), "after {:#x}", v);
            }
        }
    }

    #[test]
    fn deterministic_across_builders() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn tuple_keys_work_in_maps() {
        let mut m: FxHashMap<(usize, u64), f64> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert((i, (i * 7) as u64), i as f64);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000usize {
            assert_eq!(m.get(&(i, (i * 7) as u64)), Some(&(i as f64)));
        }
    }

    #[test]
    fn byte_tail_is_hashed() {
        let mut a = FxHasher::default();
        a.write(b"hello wor");
        let mut b = FxHasher::default();
        b.write(b"hello wox");
        assert_ne!(a.finish(), b.finish());
    }
}
