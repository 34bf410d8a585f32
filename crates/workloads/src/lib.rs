//! Workload generators shared by the tests, examples and benchmark harnesses.
//!
//! The paper's evaluation (§4.3) uses two workloads — uniformly random
//! inserts for Figure 2 and sequential inserts for the χ² uniformity test —
//! and its motivation section describes the history-revealing workloads the
//! classic PMA suffers under ("repeatedly insert towards the front of the
//! array", "repeatedly delete from the back"). This crate generates all of
//! them, plus the Zipf-skewed and alternating-adversary workloads used by the
//! extended benchmarks, as explicit operation traces that any structure in
//! the workspace can replay.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One keyed dictionary operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert (or overwrite) a key with a value.
    Insert(u64, u64),
    /// Delete a key.
    Delete(u64),
    /// Point query.
    Get(u64),
    /// Range query over `[low, high]`.
    Range(u64, u64),
}

/// A reproducible operation trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Human-readable name (appears in bench output).
    pub name: &'static str,
    /// The operations, in order.
    pub ops: Vec<Op>,
}

impl Trace {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of insert operations in the trace.
    pub fn insert_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Insert(_, _)))
            .count()
    }
}

/// Distinct uniformly random keys, in insertion order (Figure 2's workload).
pub fn random_inserts(n: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only dedup — trace order comes from the seeded rng; the set is never iterated"
    )]
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let key: u64 = rng.gen();
        if seen.insert(key) {
            ops.push(Op::Insert(key, ops.len() as u64));
        }
    }
    Trace {
        name: "random_inserts",
        ops,
    }
}

/// Sequential ascending inserts `1, 2, …, n` (the §4.3 χ² workload).
pub fn sequential_inserts(n: usize) -> Trace {
    Trace {
        name: "sequential_inserts",
        ops: (1..=n as u64).map(|k| Op::Insert(k, k)).collect(),
    }
}

/// Sequential descending inserts — every insert lands at the front, the
/// history-revealing workload from the paper's introduction.
pub fn front_loaded_inserts(n: usize) -> Trace {
    Trace {
        name: "front_loaded_inserts",
        ops: (1..=n as u64).rev().map(|k| Op::Insert(k, k)).collect(),
    }
}

/// Builds `n` keys then deletes the largest half in descending order
/// ("repeatedly delete from the back").
pub fn delete_from_back(n: usize) -> Trace {
    let mut ops: Vec<Op> = (1..=n as u64).map(|k| Op::Insert(k, k)).collect();
    ops.extend(((n as u64 / 2 + 1)..=n as u64).rev().map(Op::Delete));
    Trace {
        name: "delete_from_back",
        ops,
    }
}

/// A mixed read/write workload with the given insert fraction; deletes and
/// point queries fill the rest. Keys are drawn uniformly from `0..key_space`.
pub fn mixed(n: usize, key_space: u64, insert_fraction: f64, seed: u64) -> Trace {
    assert!((0.0..=1.0).contains(&insert_fraction));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let key = rng.gen_range(0..key_space);
        let roll: f64 = rng.gen();
        if roll < insert_fraction {
            ops.push(Op::Insert(key, i as u64));
        } else if roll < insert_fraction + (1.0 - insert_fraction) / 2.0 {
            ops.push(Op::Delete(key));
        } else {
            ops.push(Op::Get(key));
        }
    }
    Trace { name: "mixed", ops }
}

/// Zipf-skewed inserts over `0..key_space` with exponent `theta` (hot keys
/// are overwritten repeatedly — an update-heavy index workload).
pub fn zipf_inserts(n: usize, key_space: u64, theta: f64, seed: u64) -> Trace {
    assert!(key_space > 0);
    assert!(theta > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Precompute the harmonic normalizer (capped to keep setup cheap).
    let support = key_space.min(100_000);
    let harmonics: Vec<f64> = (1..=support)
        .map(|i| 1.0 / (i as f64).powf(theta))
        .collect();
    let total: f64 = harmonics.iter().sum();
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let mut target = rng.gen::<f64>() * total;
        let mut key = 0u64;
        for (idx, h) in harmonics.iter().enumerate() {
            target -= h;
            if target <= 0.0 {
                key = idx as u64;
                break;
            }
        }
        ops.push(Op::Insert(key, i as u64));
    }
    Trace {
        name: "zipf_inserts",
        ops,
    }
}

/// The Observation 1 adversary: fill to `n`, then alternate insert/delete of
/// a fresh key forever (for `rounds` rounds). Forces canonical-capacity
/// structures to resize on every operation.
pub fn alternating_adversary(n: usize, rounds: usize) -> Trace {
    let mut ops: Vec<Op> = (0..n as u64).map(|k| Op::Insert(k, k)).collect();
    for r in 0..rounds {
        let key = n as u64 + 1;
        if r % 2 == 0 {
            ops.push(Op::Insert(key, key));
        } else {
            ops.push(Op::Delete(key));
        }
    }
    Trace {
        name: "alternating_adversary",
        ops,
    }
}

/// Range queries of a fixed result size `k` over an existing key population
/// `0..n` (used by the range-query benches).
pub fn range_queries(n: u64, k: u64, count: usize, seed: u64) -> Trace {
    assert!(k >= 1 && k <= n);
    let mut rng = StdRng::seed_from_u64(seed);
    let ops = (0..count)
        .map(|_| {
            let low = rng.gen_range(0..n - k + 1);
            Op::Range(low, low + k - 1)
        })
        .collect();
    Trace {
        name: "range_queries",
        ops,
    }
}

/// Replays a trace against any [`hi_common::Dictionary`] with `u64` keys and
/// values, returning the number of operations applied. Used by the
/// integration tests and benches so every structure sees identical input.
pub fn replay<D>(trace: &Trace, dict: &mut D) -> usize
where
    D: hi_common::Dictionary<Key = u64, Value = u64>,
{
    for op in &trace.ops {
        match *op {
            Op::Insert(k, v) => {
                dict.insert(k, v);
            }
            Op::Delete(k) => {
                dict.remove(&k);
            }
            Op::Get(k) => {
                let _ = dict.get(&k);
            }
            Op::Range(a, b) => {
                let _ = dict.range(&a, &b);
            }
        }
    }
    trace.ops.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_inserts_are_distinct() {
        let t = random_inserts(5000, 1);
        assert_eq!(t.len(), 5000);
        assert_eq!(t.insert_count(), 5000);
        let keys: std::collections::BTreeSet<u64> = t
            .ops
            .iter()
            .map(|op| match op {
                Op::Insert(k, _) => *k,
                _ => panic!("only inserts expected"),
            })
            .collect();
        assert_eq!(keys.len(), 5000);
    }

    #[test]
    fn random_inserts_are_reproducible() {
        assert_eq!(random_inserts(100, 7), random_inserts(100, 7));
        assert_ne!(random_inserts(100, 7), random_inserts(100, 8));
    }

    #[test]
    fn sequential_and_front_loaded_are_reverses() {
        let seq = sequential_inserts(10);
        let front = front_loaded_inserts(10);
        let mut rev = front.ops.clone();
        rev.reverse();
        assert_eq!(seq.ops, rev);
    }

    #[test]
    fn delete_from_back_shrinks() {
        let t = delete_from_back(100);
        let deletes = t.ops.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        assert_eq!(deletes, 50);
        assert_eq!(t.insert_count(), 100);
    }

    #[test]
    fn mixed_respects_fraction_roughly() {
        let t = mixed(10_000, 1000, 0.7, 3);
        let inserts = t.insert_count() as f64 / t.len() as f64;
        assert!((inserts - 0.7).abs() < 0.05, "insert fraction {inserts}");
    }

    #[test]
    fn zipf_is_skewed() {
        let t = zipf_inserts(20_000, 1000, 1.1, 5);
        let mut counts = std::collections::BTreeMap::new();
        for op in &t.ops {
            if let Op::Insert(k, _) = op {
                *counts.entry(*k).or_insert(0usize) += 1;
            }
        }
        let hottest = *counts.values().max().unwrap();
        assert!(
            hottest > t.len() / 100,
            "hottest key only {hottest} of {} ops",
            t.len()
        );
    }

    #[test]
    fn alternating_adversary_alternates() {
        let t = alternating_adversary(10, 6);
        assert_eq!(t.len(), 16);
        assert!(matches!(t.ops[10], Op::Insert(_, _)));
        assert!(matches!(t.ops[11], Op::Delete(_)));
    }

    #[test]
    fn range_queries_have_requested_width() {
        let t = range_queries(1000, 50, 20, 9);
        for op in &t.ops {
            match op {
                Op::Range(a, b) => assert_eq!(b - a + 1, 50),
                _ => panic!("only ranges expected"),
            }
        }
    }

    #[test]
    fn replay_into_a_btreemap_like_dictionary() {
        // Minimal Dictionary impl over BTreeMap for the test.
        struct MapDict(std::collections::BTreeMap<u64, u64>);
        impl hi_common::Dictionary for MapDict {
            type Key = u64;
            type Value = u64;
            fn len(&self) -> usize {
                self.0.len()
            }
            fn insert(&mut self, k: u64, v: u64) -> Option<u64> {
                self.0.insert(k, v)
            }
            fn remove(&mut self, k: &u64) -> Option<u64> {
                self.0.remove(k)
            }
            fn get_ref(&self, k: &u64) -> Option<&u64> {
                self.0.get(k)
            }
            fn range_iter<R: std::ops::RangeBounds<u64>>(
                &self,
                range: R,
            ) -> impl Iterator<Item = (&u64, &u64)> {
                self.0.range(range)
            }
            fn successor(&self, k: &u64) -> Option<(u64, u64)> {
                self.0.range(*k..).next().map(|(&k, &v)| (k, v))
            }
            fn predecessor(&self, k: &u64) -> Option<(u64, u64)> {
                self.0.range(..=*k).next_back().map(|(&k, &v)| (k, v))
            }
            fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
                self.0.iter().map(|(&k, &v)| (k, v)).collect()
            }
        }
        let mut dict = MapDict(Default::default());
        let trace = mixed(2000, 200, 0.6, 11);
        let applied = replay(&trace, &mut dict);
        assert_eq!(applied, 2000);
        assert!(!dict.0.is_empty());
    }
}
