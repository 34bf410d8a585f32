//! The seeded, history-independent shard router.
//!
//! A sharded dictionary's *observable state* includes which shard every key
//! lives on. If shard assignment depended on anything other than the key
//! itself — arrival order, current shard load, a rebalancing heuristic —
//! the assignment would encode the operation history and break the
//! history-independence guarantee the per-shard engines work so hard to
//! provide. The router therefore computes the shard of a key as a **pure
//! function of `(key, seed, shard_count)`**: a seeded hash of the key's
//! bytes reduced onto the shard range. Same key, seed and shard count ⇒
//! same shard, always; different seeds ⇒ an (unpredictably) different
//! partition, modelling the deployment's secret coins exactly like the
//! per-engine layout randomness.
//!
//! The hash is a seeded FNV-1a over the key's [`Hash`] byte stream with a
//! splitmix64 finalizer, written out explicitly (instead of
//! `std::collections::hash_map::RandomState`) so the assignment is
//! reproducible across processes and platforms — a requirement for the
//! determinism regressions, and for any future replicated deployment where
//! two nodes must agree on the partition.

use std::hash::{Hash, Hasher};

/// Maximum number of shards a router (and the allocation-free k-way merge)
/// supports. 64 shards is far beyond the thread counts this workspace
/// targets while keeping the merge iterator's inline storage bounded.
pub const MAX_SHARDS: usize = 64;

/// A seeded FNV-1a hasher with a splitmix64 finalizer.
///
/// Multi-byte writes are folded through their little-endian encoding, so
/// the stream is platform independent (the default `Hasher` byte routing
/// would be endianness dependent for `write_u64` and friends).
#[derive(Debug, Clone)]
pub struct SeededHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// splitmix64: a full-avalanche 64-bit finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent 64-bit seed as a pure function of
/// `(seed, index)` — used for per-shard engine coins and per-shard
/// bulk-load coins, so every stream of randomness in a sharded structure
/// stems from one root seed without any cross-shard sharing.
pub fn derive_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ splitmix64(0x5AD0_11E5 ^ index as u64))
}

impl SeededHasher {
    /// A hasher whose stream is keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: FNV_OFFSET ^ splitmix64(seed),
        }
    }

    #[inline]
    fn fold_byte(&mut self, byte: u8) {
        self.state ^= u64::from(byte);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }
}

impl Hasher for SeededHasher {
    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold_byte(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold_byte(i);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        // Folded through u64 so 32- and 64-bit builds agree.
        self.write(&(i as u64).to_le_bytes());
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// Assigns keys to shards as a pure function of `(key, seed, shard_count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    seed: u64,
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards keyed by `seed`.
    ///
    /// # Panics
    ///
    /// If `shards` is zero or exceeds [`MAX_SHARDS`].
    pub fn new(seed: u64, shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        Self { seed, shards }
    }

    /// The router's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard `key` lives on — stable across calls, processes and
    /// platforms for a fixed `(seed, shard_count)`.
    #[inline]
    pub fn route<K: Hash + ?Sized>(&self, key: &K) -> usize {
        let mut h = SeededHasher::new(self.seed);
        key.hash(&mut h);
        // Multiply-shift reduction: unbiased enough for shard counts ≤ 64
        // and cheaper than widening modulo reduction.
        (((u128::from(h.finish()) * self.shards as u128) >> 64) as u64) as usize
    }

    /// Derives the secret seed of shard `index` from the router seed.
    ///
    /// Pure function of `(seed, index)`, so a sharded structure's complete
    /// layout — router plus every per-shard engine — derives from the one
    /// root seed.
    pub fn shard_seed(&self, index: usize) -> u64 {
        derive_seed(self.seed, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let r = ShardRouter::new(42, 7);
        for k in 0u64..10_000 {
            let s = r.route(&k);
            assert!(s < 7);
            assert_eq!(s, r.route(&k), "routing must be a pure function");
        }
    }

    #[test]
    fn routing_is_reasonably_balanced() {
        let r = ShardRouter::new(9, 8);
        let mut counts = [0usize; 8];
        let n = 80_000u64;
        for k in 0..n {
            counts[r.route(&k)] += 1;
        }
        let expected = n as usize / 8;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "shard {i} holds {c} of {n} keys — badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_partitions() {
        let a = ShardRouter::new(1, 8);
        let b = ShardRouter::new(2, 8);
        let moved = (0u64..1_000).filter(|k| a.route(k) != b.route(k)).count();
        assert!(moved > 500, "only {moved}/1000 keys moved across seeds");
    }

    #[test]
    fn string_keys_route_stably() {
        let r = ShardRouter::new(77, 5);
        assert_eq!(r.route("alpha"), r.route("alpha"));
        assert_eq!(r.route(&"alpha".to_string()), r.route(&"alpha".to_string()));
    }

    #[test]
    fn shard_seeds_are_distinct() {
        let r = ShardRouter::new(1234, 16);
        let seeds: std::collections::BTreeSet<u64> = (0..16).map(|i| r.shard_seed(i)).collect();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_is_rejected() {
        ShardRouter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn oversized_shard_count_is_rejected() {
        ShardRouter::new(0, MAX_SHARDS + 1);
    }
}
