//! A fast, deterministic 256-bit digest, and a map hasher for keys that
//! already are one.
//!
//! The digest is *not* cryptographically secure — it only needs to be
//! collision-free in practice for simulation-scale inputs and cheap to
//! compute, while occupying the same number of bytes on the wire as the
//! SHA-256 digests a production deployment would use.
//!
//! [`DigestMap`] and [`DigestSet`] are the standard collections with
//! [`DigestState`] in place of SipHash, for tables keyed by ids (or a word
//! of one) that a lookup-heavy path touches.  Dropping SipHash is safe for
//! those keys because:
//!
//! * a receiver never trusts the id of content it is sent: the codec
//!   re-derives every microblock and block id from the content, so a peer
//!   picks such an id only by picking content;
//! * every map draws its own secret key from the standard library's
//!   `RandomState`, so a peer — even one naming arbitrary ids in acks or
//!   fetches — cannot tell which ids share a bucket in any replica's
//!   table, or carry a collision from one table to another;
//! * the digest itself is not cryptographic: a peer able to grind ids
//!   into colliding buckets under an unknown key could far more cheaply
//!   grind digest collisions, which break more than a hash table.
//!
//! Keys that are not digests — replica ids, views, tags — keep the
//! standard hasher.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasher;

/// Number of bytes a digest occupies on the wire.
pub const DIGEST_BYTES: usize = 32;

/// A 256-bit digest represented as four little-endian 64-bit words.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Digest(pub [u64; 4]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. the parent of the
    /// genesis block).
    pub const ZERO: Digest = Digest([0; 4]);

    /// Hashes an arbitrary byte slice.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut h = Hasher::new();
        h.update(bytes);
        h.finalize()
    }

    /// Hashes a `u64`, useful for deriving digests from counters.
    pub fn of_u64(value: u64) -> Self {
        let mut h = Hasher::new();
        h.update_u64(value);
        h.finalize()
    }

    /// Combines two digests into a new one (order-sensitive).
    pub fn combine(&self, other: &Digest) -> Digest {
        let mut h = Hasher::new();
        for w in self.0.iter().chain(other.0.iter()) {
            h.update_u64(*w);
        }
        h.finalize()
    }

    /// Returns the first word, handy as a short identifier in logs.
    pub fn short(&self) -> u64 {
        self.0[0]
    }

    /// Returns true when this is the zero sentinel digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Number of bytes this digest occupies on the wire.
    pub const fn wire_size(&self) -> usize {
        DIGEST_BYTES
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({:016x})", self.0[0])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0[0])
    }
}

/// Streaming hasher producing a [`Digest`].
///
/// Internally this is a 4-lane xorshift/multiply construction seeded with
/// distinct odd constants; it mixes every 8-byte chunk into all four lanes
/// so that digests of similar inputs differ in every word.
#[derive(Clone, Debug)]
pub struct Hasher {
    state: [u64; 4],
    len: u64,
}

const SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];

#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

impl Hasher {
    /// Creates a hasher with the default seed.
    pub fn new() -> Self {
        Hasher {
            state: SEEDS,
            len: 0,
        }
    }

    /// Creates a hasher whose output is domain-separated by `domain`.
    pub fn with_domain(domain: u64) -> Self {
        let mut h = Hasher::new();
        h.update_u64(domain);
        h
    }

    /// Absorbs a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(c);
            self.update_u64(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.update_u64(u64::from_le_bytes(buf));
        }
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    /// Absorbs a single 64-bit word.
    pub fn update_u64(&mut self, word: u64) {
        for (i, lane) in self.state.iter_mut().enumerate() {
            let mixed = mix(word ^ SEEDS[i].rotate_left(i as u32 * 13));
            *lane = mix(lane.wrapping_add(mixed).rotate_left(17 + i as u32));
        }
        self.len = self.len.wrapping_add(8);
    }

    /// Absorbs an existing digest.
    pub fn update_digest(&mut self, digest: &Digest) {
        for w in digest.0.iter() {
            self.update_u64(*w);
        }
    }

    /// Produces the final digest.
    pub fn finalize(mut self) -> Digest {
        self.update_u64(self.len ^ 0xa076_1d64_78bd_642f);
        let mut out = [0u64; 4];
        for (i, lane) in self.state.iter().enumerate() {
            out[i] = mix(lane.wrapping_add(SEEDS[(i + 1) % 4]));
        }
        Digest(out)
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A `HashMap` keyed by digests, or by values derived from one.
pub type DigestMap<K, V> = HashMap<K, V, DigestState>;

/// A `HashSet` of digests, or of values derived from one.
pub type DigestSet<K> = HashSet<K, DigestState>;

/// The [`BuildHasher`] of [`DigestMap`] and [`DigestSet`]: keys whose
/// words are already uniformly distributed need mixing with a secret, not
/// SipHash's rounds.  Each 8-byte word costs one keyed 64 × 64 → 128-bit
/// multiply, folded to 64 bits.  Every [`Default`] instance draws fresh
/// keys (see the module docs for why this is safe).
#[derive(Clone, Debug)]
pub struct DigestState {
    seed: u64,
    key: u64,
}

impl Default for DigestState {
    fn default() -> Self {
        // Each `RandomState::new()` has keys of its own, so two hashes
        // under it give this map two words no other map shares.
        let keys = RandomState::new();
        DigestState {
            seed: keys.hash_one(0u64),
            key: keys.hash_one(1u64),
        }
    }
}

impl BuildHasher for DigestState {
    type Hasher = DigestHasher;

    fn build_hasher(&self) -> DigestHasher {
        DigestHasher {
            acc: self.seed,
            key: self.key,
        }
    }
}

/// The [`std::hash::Hasher`] a [`DigestState`] builds.
#[derive(Clone, Debug)]
pub struct DigestHasher {
    acc: u64,
    key: u64,
}

impl std::hash::Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let product = ((self.acc ^ word) as u128) * (self.key as u128);
        self.acc = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_inputs_hash_identically() {
        assert_eq!(Digest::of_bytes(b"hello"), Digest::of_bytes(b"hello"));
        assert_eq!(Digest::of_u64(42), Digest::of_u64(42));
    }

    #[test]
    fn different_inputs_hash_differently() {
        assert_ne!(Digest::of_bytes(b"hello"), Digest::of_bytes(b"hellp"));
        assert_ne!(Digest::of_u64(1), Digest::of_u64(2));
        assert_ne!(Digest::of_bytes(b""), Digest::of_bytes(b"\0"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Digest::of_u64(1);
        let b = Digest::of_u64(2);
        assert_ne!(a.combine(&b), b.combine(&a));
    }

    #[test]
    fn domain_separation_changes_output() {
        let mut a = Hasher::with_domain(1);
        let mut b = Hasher::with_domain(2);
        a.update(b"payload");
        b.update(b"payload");
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn chunk_boundaries_do_not_collide() {
        // 8 bytes vs the same 8 bytes split as 7 + explicit length change.
        assert_ne!(Digest::of_bytes(b"abcdefgh"), Digest::of_bytes(b"abcdefg"));
        assert_ne!(Digest::of_bytes(b"abcdefg\0"), Digest::of_bytes(b"abcdefg"));
    }

    #[test]
    fn zero_digest_is_zero() {
        assert!(Digest::ZERO.is_zero());
        assert!(!Digest::of_u64(7).is_zero());
    }

    #[test]
    fn wire_size_matches_constant() {
        assert_eq!(Digest::of_u64(9).wire_size(), DIGEST_BYTES);
    }

    #[test]
    fn every_digest_map_draws_its_own_keys() {
        let a: DigestMap<Digest, ()> = DigestMap::default();
        let b: DigestMap<Digest, ()> = DigestMap::default();
        let id = Digest::of_u64(7);
        assert_ne!(a.hasher().hash_one(id), b.hasher().hash_one(id));
        assert_eq!(a.hasher().hash_one(id), a.hasher().hash_one(id));
    }

    /// The heaviest of `buckets` buckets, indexed by the hash's low bits
    /// (where a table probes) or by its top 7 (a table's tag byte), over
    /// the mean load.
    fn worst_load(keys: impl Iterator<Item = Digest>, bits_from_top: bool) -> f64 {
        let state = DigestState::default();
        let buckets = if bits_from_top { 128 } else { 1024 };
        let mut load = vec![0u32; buckets];
        let mut n = 0;
        for key in keys {
            let h = state.hash_one(key);
            let b = if bits_from_top {
                h >> 57
            } else {
                h % buckets as u64
            };
            load[b as usize] += 1;
            n += 1;
        }
        *load.iter().max().unwrap() as f64 / (n as f64 / buckets as f64)
    }

    #[test]
    fn digest_state_spreads_near_identical_and_sequential_ids() {
        let last_word = || (0..10_000u64).map(|i| Digest([1, 2, 3, i]));
        let sequential = || (0..10_000u64).map(Digest::of_u64);
        for top in [false, true] {
            for (name, load) in [
                ("last word", worst_load(last_word(), top)),
                ("of_u64", worst_load(sequential(), top)),
            ] {
                assert!(
                    load <= 4.0,
                    "{name} ids (top bits: {top}): worst bucket at {load:.2}× the mean"
                );
            }
        }
    }

    #[test]
    fn many_sequential_inputs_are_distinct() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(Digest::of_u64(i)), "collision at {i}");
        }
    }
}
