//! A deterministic open-addressing map from `u64` keys, for simulator
//! bookkeeping.
//!
//! `std::collections::HashMap` seeds its hasher from process randomness, so
//! anything that observes it — iteration order, but also allocation and
//! probe patterns — varies run to run. The simulator's ledgers only ever
//! need *membership* (the LRU's id→slab index, the model's dirty set), yet
//! auditing "we never iterate" by hand on every change is exactly the kind
//! of promise this repo prefers to make structural: [`DetMap`] hashes with
//! a fixed mixer, probes linearly, and deliberately exposes **no iteration
//! API at all**, so its behavior is a pure function of the operation
//! sequence and nothing about a run can depend on a process-random seed.
//!
//! The implementation is a plain power-of-two open-addressing table with
//! tombstone deletion and load-factor-7/8 rehash (which also sweeps the
//! tombstones). All operations are `O(1)` expected; the fixed mixer is
//! splitmix64's finalizer, whose avalanche behavior keeps probe chains
//! short for the dense low-entropy block ids the simulator produces.

const EMPTY: u8 = 0;
const FULL: u8 = 1;
const TOMB: u8 = 2;

/// splitmix64's finalizer: a fixed, seedless avalanche mix.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    value: usize,
    state: u8,
}

const VACANT: Slot = Slot {
    key: 0,
    value: 0,
    state: EMPTY,
};

/// A deterministic `u64 → usize` map with no iteration API (see module
/// docs for why that absence is the point).
#[derive(Debug, Clone, Default)]
pub struct DetMap {
    slots: Vec<Slot>,
    len: usize,
    tombstones: usize,
}

impl DetMap {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map pre-sized so `capacity` inserts happen without rehash.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut m = Self::new();
        if capacity > 0 {
            m.slots = vec![VACANT; table_size_for(capacity)];
        }
        m
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: u64) -> Option<usize> {
        self.find(key).map(|i| self.slots[i].value)
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: u64, value: usize) -> Option<usize> {
        self.reserve_one();
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        let mut reuse: Option<usize> = None;
        loop {
            let s = self.slots[i];
            match s.state {
                FULL if s.key == key => {
                    let old = self.slots[i].value;
                    self.slots[i].value = value;
                    return Some(old);
                }
                TOMB if reuse.is_none() => reuse = Some(i),
                TOMB => {}
                EMPTY => {
                    let target = match reuse {
                        Some(t) => {
                            self.tombstones -= 1;
                            t
                        }
                        None => i,
                    };
                    self.slots[target] = Slot {
                        key,
                        value,
                        state: FULL,
                    };
                    self.len += 1;
                    return None;
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<usize> {
        let i = self.find(key)?;
        let value = self.slots[i].value;
        self.slots[i] = Slot {
            key: 0,
            value: 0,
            state: TOMB,
        };
        self.len -= 1;
        self.tombstones += 1;
        Some(value)
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.fill(VACANT);
        self.len = 0;
        self.tombstones = 0;
    }

    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        loop {
            let s = self.slots[i];
            match s.state {
                FULL if s.key == key => return Some(i),
                EMPTY => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Guarantees a vacant (empty, not tombstone) slot exists for one more
    /// insert; rehashes — which also sweeps tombstones — past 7/8 load.
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        if cap == 0 {
            self.slots = vec![VACANT; 8];
            return;
        }
        if (self.len + self.tombstones + 1) * 8 <= cap * 7 {
            return;
        }
        // Double only when genuinely full of live entries; a tombstone-heavy
        // table rehashes at the same size, so churny workloads (the LRU's
        // evict/invalidate cycle) stay at bounded capacity.
        let new_cap = if (self.len + 1) * 4 > cap * 3 {
            cap * 2
        } else {
            cap
        };
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_cap]);
        self.len = 0;
        self.tombstones = 0;
        for s in old {
            if s.state == FULL {
                self.insert(s.key, s.value);
            }
        }
    }
}

/// Smallest power-of-two table that fits `entries` below 7/8 load.
fn table_size_for(entries: usize) -> usize {
    let mut cap = 8;
    while entries * 8 > cap * 7 {
        cap *= 2;
    }
    cap
}

/// A deterministic set of `u64` keys: [`DetMap`] with unit values.
#[derive(Debug, Clone, Default)]
pub struct DetSet {
    map: DetMap,
}

impl DetSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is a member.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains(key)
    }

    /// Adds `key`; `true` if it was newly inserted.
    pub fn insert(&mut self, key: u64) -> bool {
        self.map.insert(key, 0).is_none()
    }

    /// Removes `key`; `true` if it was a member.
    pub fn remove(&mut self, key: u64) -> bool {
        self.map.remove(key).is_some()
    }

    /// Drops every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 70), None);
        assert_eq!(m.insert(8, 80), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(7), Some(71));
        assert_eq!(m.get(9), None);
        assert_eq!(m.remove(7), Some(71));
        assert_eq!(m.remove(7), None);
        assert!(!m.contains(7));
        assert!(m.contains(8));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "std's HashMap is the reference DetMap is checked against"
    )]
    fn tracks_std_hashmap_under_mixed_operations() {
        use std::collections::HashMap;
        let mut det = DetMap::new();
        let mut std = HashMap::new();
        // A deterministic pseudo-random operation tape.
        let mut x = 0xDEAD_BEEFu64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 512;
            match x % 3 {
                0 => assert_eq!(det.insert(key, x as usize), std.insert(key, x as usize)),
                1 => assert_eq!(det.remove(key), std.remove(&key)),
                _ => assert_eq!(det.get(key), std.get(&key).copied()),
            }
            assert_eq!(det.len(), std.len());
        }
    }

    #[test]
    fn churn_does_not_grow_without_bound() {
        // Insert/remove cycles leave tombstones; same-size rehash must sweep
        // them instead of doubling forever.
        let mut m = DetMap::new();
        for k in 0..100_000u64 {
            m.insert(k, 0);
            m.remove(k);
        }
        assert!(m.is_empty());
        assert!(m.slots.len() <= 64, "table grew to {}", m.slots.len());
    }

    #[test]
    fn with_capacity_avoids_rehash() {
        let mut m = DetMap::with_capacity(100);
        let cap = m.slots.len();
        for k in 0..100u64 {
            m.insert(k, k as usize);
        }
        assert_eq!(m.slots.len(), cap);
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut m = DetMap::new();
        for k in 0..1000u64 {
            m.insert(k, 1);
        }
        let cap = m.slots.len();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.slots.len(), cap);
        assert_eq!(m.get(5), None);
    }

    #[test]
    fn set_semantics() {
        let mut s = DetSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert_eq!(s.len(), 1);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn behavior_is_identical_across_instances() {
        // The point of the type: two maps fed the same tape agree on every
        // observable, with no process-random seed anywhere.
        let mut a = DetMap::new();
        let mut b = DetMap::new();
        for k in [5u64, 1 << 40, 13, 5, 99, 13] {
            assert_eq!(a.insert(k, k as usize), b.insert(k, k as usize));
        }
        for k in [5u64, 7, 1 << 40] {
            assert_eq!(a.remove(k), b.remove(k));
            assert_eq!(a.get(k), b.get(k));
        }
        assert_eq!(a.len(), b.len());
    }
}
