//! The history-independent cache-oblivious B-tree (paper §5).
//!
//! The paper builds its cache-oblivious B-tree by *augmenting* the
//! history-independent PMA: alongside the rank tree (element counts per
//! range) a second, identically shaped van Emde Boas tree stores the **value
//! of every balance element**. A keyed search descends that value tree —
//! `O(log N)` comparisons, `O(log_B N)` I/Os, without knowing `B` — converts
//! the key to a rank, and then delegates to the PMA, whose leaves answer
//! range queries at the scan-optimal `O(k/B)` I/Os. A read needs no rank:
//! `get`, `successor` and a range scan descend the value tree alone
//! ([`HiPma::iter_from_by`]) and scan on from the landing leaf; only the
//! writes, which address the PMA by rank, sum the rank tree on the way down.
//!
//! In this workspace the augmented PMA lives inside [`pma::HiPma`] (which
//! maintains the value tree under exactly the same rebuild events as the
//! rank tree); [`CobBTree`] wraps it with a keyed [`Dictionary`] API:
//!
//! * `insert`, `remove`, `get` — amortized `O(log²N / B + log_B N)` I/Os whp;
//! * `range(a, b)` — `O(log_B N + k/B)` I/Os;
//! * `predecessor` / `successor` — one descent each.
//!
//! Every keyed read counts one query in the ledger.
//!
//! Because every layout decision is inherited from the HI PMA (size, balance
//! elements, even leaf spreading) and the two auxiliary trees are
//! deterministic functions of those decisions, the whole dictionary is weakly
//! history independent (Theorem 2).
//!
//! # Quick example
//!
//! ```
//! use cob_btree::CobBTree;
//! use hi_common::Dictionary;
//!
//! let mut index: CobBTree<u64, &'static str> = CobBTree::new(7);
//! index.insert(20, "twenty");
//! index.insert(10, "ten");
//! index.insert(30, "thirty");
//! assert_eq!(index.get(&20), Some("twenty"));
//! assert_eq!(index.range(&10, &20), vec![(10, "ten"), (20, "twenty")]);
//! assert_eq!(index.predecessor(&25).unwrap().0, 20);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::ops::RangeBounds;

use hi_common::counters::SharedCounters;
use hi_common::rng::RngSource;
use hi_common::traits::{
    below_end_bound, cloned_bounds, normalize_pairs, start_bound_cmp, Dictionary,
};
use io_sim::Tracer;
use pma::HiPma;

/// A weakly history-independent, cache-oblivious B-tree: a keyed dictionary
/// backed by the augmented HI PMA.
#[derive(Debug, Clone)]
pub struct CobBTree<K: Ord + Clone + Default, V: Clone + Default> {
    pma: HiPma<(K, V)>,
}

impl<K: Ord + Clone + Default, V: Clone + Default> CobBTree<K, V> {
    /// Creates an empty tree seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            pma: HiPma::new(seed),
        }
    }

    /// Creates an empty tree drawing its coins from OS entropy.
    #[expect(
        clippy::disallowed_methods,
        reason = "forwards to the audited RngSource intake; production trees need a seed the observer cannot know"
    )]
    pub fn from_entropy() -> Self {
        Self {
            pma: HiPma::from_entropy(),
        }
    }

    /// Creates an empty tree with explicit randomness, counters, I/O tracer
    /// and per-record on-disk size.
    pub fn with_parts(
        rng: RngSource,
        counters: SharedCounters,
        tracer: Tracer,
        elem_size: u64,
    ) -> Self {
        Self {
            pma: HiPma::with_parts(rng, counters, tracer, elem_size),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.pma.len()
    }

    /// Returns `true` when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.pma.is_empty()
    }

    /// The backing PMA (for diagnostics: geometry, occupancy, counters).
    pub fn pma(&self) -> &HiPma<(K, V)> {
        &self.pma
    }

    /// The shared operation counters.
    pub fn counters(&self) -> &SharedCounters {
        self.pma.counters()
    }

    /// The I/O tracer handle.
    pub fn tracer(&self) -> &Tracer {
        self.pma.tracer()
    }

    /// Total slots in the backing array (`Θ(N)`).
    pub fn total_slots(&self) -> usize {
        self.pma.total_slots()
    }

    /// Occupancy bitmap of the backing array — the memory-representation
    /// fingerprint used by the history-independence tests. See the
    /// [`Occupancy`](hi_common::traits::Occupancy) impl for the packed form.
    pub fn occupancy(&self) -> Vec<bool> {
        hi_common::traits::Occupancy::occupancy(&self.pma)
    }

    /// Verifies the backing PMA's structural invariants plus key ordering.
    pub fn check_invariants(&self)
    where
        V: PartialEq,
    {
        self.pma.check_invariants();
        let all = self.to_sorted_vec();
        for window in all.windows(2) {
            assert!(window[0].0 < window[1].0, "keys out of order");
        }
    }

    /// Rank of the first element with key > `key`.
    fn upper_bound(&self, key: &K) -> usize {
        self.pma.lower_bound_by(|(k, _)| {
            if k <= key {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        })
    }

    /// Inserts a key–value pair, returning the previous value if present.
    /// The occupancy probe borrows the stored pair (no clone); only a
    /// replacement pays the delete + reinsert.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (rank, probe) = self.pma.lower_bound_ref_by(|(k, _)| k.cmp(&key));
        if let Some((existing, _)) = probe {
            if *existing == key {
                // Replace: delete + reinsert at the same rank keeps the
                // layout distribution a function of the key set only.
                #[expect(
                    clippy::expect_used,
                    reason = "delete at the rank the probe just returned"
                )]
                let (_, old_value) = self.pma.delete(rank).expect("rank just observed");
                #[expect(
                    clippy::expect_used,
                    reason = "reinsert at the rank the delete just vacated"
                )]
                self.pma
                    .insert(rank, (key, value))
                    .expect("rank still valid");
                return Some(old_value);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "lower_bound returns a rank <= len, the valid insertion range"
        )]
        self.pma
            .insert(rank, (key, value))
            .expect("lower bound is a valid insertion rank");
        None
    }

    /// Removes a key, returning its value if present. The probe borrows the
    /// stored pair; only an actual removal moves it out.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (rank, probe) = self.pma.lower_bound_ref_by(|(k, _)| k.cmp(key));
        match probe {
            Some((existing, _)) if existing == key => {
                #[expect(
                    clippy::expect_used,
                    reason = "delete at the rank the probe just returned"
                )]
                let (_, v) = self.pma.delete(rank).expect("rank just observed");
                Some(v)
            }
            _ => None,
        }
    }

    /// Looks up a key, cloning the value.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_ref(key).cloned()
    }

    /// Borrows the value stored under `key` without copying it: one
    /// cache-oblivious descent of the value tree, zero allocations.
    pub fn get_ref(&self, key: &K) -> Option<&V> {
        self.counters().add_query();
        match self.pma.iter_from_by(|(k, _)| k.cmp(key)).next() {
            Some((existing, v)) if existing == key => Some(v),
            _ => None,
        }
    }

    /// Lazily yields every pair whose key lies in `range`, in ascending key
    /// order: one descent to the first matching pair, then a sequential leaf
    /// scan at `O(log_B N + k/B)` I/Os with **no per-query allocation**.
    pub fn range_iter<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        self.counters().add_query();
        let (start, end) = cloned_bounds(&range);
        self.pma
            .iter_from_by(move |(k, _)| start_bound_cmp(k, &start))
            .take_while(move |(k, _)| below_end_bound(k, &end))
            .map(|(k, v)| (k, v))
    }

    /// Borrows every pair in ascending key order. Counts one query, like
    /// [`CobBTree::range_iter`] (which the `Dictionary` trait's `iter`
    /// default routes through).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.counters().add_query();
        self.pma.iter().map(|(k, v)| (k, v))
    }

    /// Replaces the entire contents with `pairs`, drawing fresh coins from
    /// `seed` (see [`HiPma::bulk_load`]). The input need not be sorted or
    /// deduplicated — it is normalised (last write wins) so the resulting
    /// layout is a pure function of *(contents, seed)*, independent of
    /// arrival order. Cost is `O(n log n)` for the sort plus `O(n)` moves,
    /// against `O(n log² n)` moves for element-at-a-time insertion.
    pub fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (K, V)>, seed: u64) {
        let pairs = normalize_pairs(pairs.into_iter().collect());
        self.pma.bulk_load(pairs, seed);
    }

    /// Smallest key ≥ `key`, with its value.
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        self.counters().add_query();
        self.pma.iter_from_by(|(k, _)| k.cmp(key)).next().cloned()
    }

    /// Largest key ≤ `key`, with its value.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        self.counters().add_query();
        let rank = self.upper_bound(key);
        if rank == 0 {
            None
        } else {
            self.pma.get_rank(rank - 1)
        }
    }

    /// Collects the whole dictionary in ascending key order.
    #[expect(
        clippy::expect_used,
        reason = "empty trees take the explicit empty-range branch; otherwise 0..len-1 is valid"
    )]
    pub fn to_sorted_vec(&self) -> Vec<(K, V)> {
        if self.is_empty() {
            Vec::new()
        } else {
            self.pma
                .range_query(0, self.len() - 1)
                .expect("full range is valid")
        }
    }
}

impl<K: Ord + Clone + Default, V: Clone + Default> hi_common::traits::Occupancy for CobBTree<K, V> {
    fn slot_count(&self) -> usize {
        self.pma.total_slots()
    }

    fn occupancy_into(&self, words: &mut Vec<u64>) {
        hi_common::traits::Occupancy::occupancy_into(&self.pma, words);
    }
}

impl<K: Ord + Clone + Default, V: Clone + Default> Dictionary for CobBTree<K, V> {
    type Key = K;
    type Value = V;

    fn len(&self) -> usize {
        CobBTree::len(self)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        CobBTree::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        CobBTree::remove(self, key)
    }

    fn get_ref(&self, key: &K) -> Option<&V> {
        CobBTree::get_ref(self, key)
    }

    fn get(&self, key: &K) -> Option<V> {
        CobBTree::get(self, key)
    }

    fn range_iter<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        CobBTree::range_iter(self, range)
    }

    fn successor(&self, key: &K) -> Option<(K, V)> {
        CobBTree::successor(self, key)
    }

    fn predecessor(&self, key: &K) -> Option<(K, V)> {
        CobBTree::predecessor(self, key)
    }

    fn to_sorted_vec(&self) -> Vec<(K, V)> {
        CobBTree::to_sorted_vec(self)
    }

    fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (K, V)>, seed: u64) {
        CobBTree::bulk_load(self, pairs, seed)
    }

    fn extend(&mut self, pairs: impl IntoIterator<Item = (K, V)>) {
        for (key, value) in pairs {
            CobBTree::insert(self, key, value);
        }
    }

    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        hi_common::batch::get_many_keyed(&self.pma, keys, || self.counters().add_query())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn empty_tree() {
        let t: CobBTree<u64, u64> = CobBTree::new(0);
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.range(&0, &10), vec![]);
        assert_eq!(t.successor(&1), None);
        assert_eq!(t.predecessor(&1), None);
        t.check_invariants();
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = CobBTree::new(1);
        for k in 0..1500u64 {
            assert_eq!(t.insert(k * 3, k), None);
        }
        assert_eq!(t.len(), 1500);
        for k in 0..1500u64 {
            assert_eq!(t.get(&(k * 3)), Some(k));
            assert_eq!(t.get(&(k * 3 + 1)), None);
        }
        for k in (0..1500u64).step_by(2) {
            assert_eq!(t.remove(&(k * 3)), Some(k));
        }
        assert_eq!(t.len(), 750);
        t.check_invariants();
    }

    #[test]
    fn insert_replaces_values() {
        let mut t = CobBTree::new(2);
        assert_eq!(t.insert(5, "a"), None);
        assert_eq!(t.insert(5, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&5), Some("b"));
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        let mut t: CobBTree<u64, u64> = CobBTree::new(3);
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        for step in 0..5000u64 {
            let key = rng.gen_range(0..900);
            match rng.gen_range(0..10) {
                0..=5 => assert_eq!(t.insert(key, step), model.insert(key, step), "step {step}"),
                6..=8 => assert_eq!(t.remove(&key), model.remove(&key), "step {step}"),
                _ => assert_eq!(t.get(&key), model.get(&key).copied(), "step {step}"),
            }
            if step % 1000 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        assert_eq!(
            t.to_sorted_vec(),
            model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_queries_match_model() {
        let mut t = CobBTree::new(4);
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2500 {
            let k = rng.gen_range(0..10_000u64);
            t.insert(k, k * 10);
            model.insert(k, k * 10);
        }
        for _ in 0..50 {
            let a = rng.gen_range(0..10_000u64);
            let b = rng.gen_range(a..10_000u64);
            let expected: Vec<(u64, u64)> = model.range(a..=b).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(t.range(&a, &b), expected);
        }
        // Degenerate ranges.
        assert_eq!(t.range(&5, &4), vec![]);
    }

    #[test]
    fn successor_predecessor_match_model() {
        let mut t = CobBTree::new(6);
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..1000 {
            let k = rng.gen_range(0..5_000u64);
            t.insert(k, k);
            model.insert(k, k);
        }
        for probe in (0..5_000u64).step_by(61) {
            let expected_succ = model.range(probe..).next().map(|(&k, &v)| (k, v));
            let expected_pred = model.range(..=probe).next_back().map(|(&k, &v)| (k, v));
            assert_eq!(t.successor(&probe), expected_succ, "succ {probe}");
            assert_eq!(t.predecessor(&probe), expected_pred, "pred {probe}");
        }
    }

    #[test]
    fn string_keys_work() {
        let mut t: CobBTree<String, u32> = CobBTree::new(9);
        for word in ["pear", "apple", "mango", "banana", "cherry"] {
            t.insert(word.to_string(), word.len() as u32);
        }
        assert_eq!(t.get(&"mango".to_string()), Some(5));
        let range = t.range(&"a".to_string(), &"c".to_string());
        assert_eq!(
            range.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["apple", "banana"]
        );
    }

    #[test]
    fn same_contents_same_distribution_regardless_of_history() {
        // Weak history independence at the dictionary level: inserting the
        // same key set in ascending vs. descending order (plus a
        // delete/reinsert episode) must not shift the layout distribution.
        // With a fixed seed the layout is a function of (contents, coins), so
        // we compare a coarse layout statistic across many seeds.
        let n = 150u64;
        let trials = 200u64;
        let mut first_slot_a = Vec::new();
        let mut first_slot_b = Vec::new();
        for t in 0..trials {
            let mut a = CobBTree::new(1_000 + t);
            for k in 0..n {
                a.insert(k, k);
            }
            let mut b = CobBTree::new(5_000 + t);
            for k in (0..n).rev() {
                b.insert(k, k);
            }
            for k in 0..n / 3 {
                b.remove(&k);
                b.insert(k, k);
            }
            assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
            let pos_a =
                a.occupancy().iter().position(|&x| x).unwrap() as f64 / a.total_slots() as f64;
            let pos_b =
                b.occupancy().iter().position(|&x| x).unwrap() as f64 / b.total_slots() as f64;
            first_slot_a.push(pos_a);
            first_slot_b.push(pos_b);
        }
        let mean_a: f64 = first_slot_a.iter().sum::<f64>() / trials as f64;
        let mean_b: f64 = first_slot_b.iter().sum::<f64>() / trials as f64;
        assert!(
            (mean_a - mean_b).abs() < 0.1,
            "layout statistic differs between histories: {mean_a} vs {mean_b}"
        );
    }

    #[test]
    fn traced_search_is_cheap() {
        use io_sim::IoConfig;
        let tracer = Tracer::enabled(IoConfig::new(4096, 1 << 14));
        let mut t: CobBTree<u64, u64> = CobBTree::with_parts(
            RngSource::from_seed(11),
            SharedCounters::new(),
            tracer.clone(),
            16,
        );
        for k in 0..30_000u64 {
            t.insert(k, k);
        }
        tracer.reset_cold();
        for probe in (0..30_000u64).step_by(293) {
            t.get(&probe);
        }
        let searches = 30_000 / 293 + 1;
        let per_search = tracer.stats().reads as f64 / searches as f64;
        // A full scan would be total_slots * 16 / 4096 ≈ hundreds of blocks;
        // a cache-oblivious search should touch a handful.
        assert!(
            per_search < 30.0,
            "per-search I/O {per_search} too high for a cache-oblivious B-tree"
        );
    }

    #[test]
    fn dictionary_trait_is_usable_generically() {
        fn sum_values<D: Dictionary<Key = u64, Value = u64>>(d: &D) -> u64 {
            d.to_sorted_vec().iter().map(|(_, v)| v).sum()
        }
        let mut t = CobBTree::new(13);
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(sum_values(&t), 30);
    }
}

// Compile-time audit for the sharded service layer: the cache-oblivious
// B-tree (PMA + vEB trees + RNG + instrumentation handles) must be movable
// onto worker threads whenever its keys and values are.
#[cfg(test)]
mod send_sync_audit {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn cob_btree_is_send_and_sync() {
        assert_send_sync::<CobBTree<u64, u64>>();
        assert_send_sync::<CobBTree<String, Vec<u8>>>();
    }
}
