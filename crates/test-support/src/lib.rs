//! Differential-testing harness for every structure in the workspace.
//!
//! The paper's correctness claims are all of the form "this structure behaves
//! exactly like the textbook abstraction, while its *layout* is history
//! independent". The behavioural half is what this crate tests, uniformly,
//! for every implementation:
//!
//! * [`Dictionary`] implementations (`BTree`, `RankedDict` over either PMA,
//!   `ExternalSkipList` in all three parameterizations) are driven against a
//!   [`std::collections::BTreeMap`] reference by seeded random operation
//!   scripts ([`DictScript`]), checking the *return value of every single
//!   operation* — insert's previous-value, remove's evicted value, range
//!   contents and order, successor/predecessor — plus periodic whole-state
//!   audits via `to_sorted_vec`.
//! * [`RankedSequence`] implementations (`HiPma`, `ClassicPma`) are driven
//!   against a plain `Vec` reference with rank-addressed scripts
//!   ([`run_seq_differential`]), including deliberately out-of-range ranks
//!   that must fail identically on both sides.
//! * [`dictionary_edge_cases`] is a deterministic battery of the classic
//!   boundary conditions: empty structure, single element, duplicate-key
//!   overwrite, remove-of-absent-key, and full-drain-then-refill.
//! * [`whi`] checks the HI-PMA's layout half: Lemma 9's representation
//!   function, whose coins `hi_common::stats::uniformity` tests.
//!
//! Adding a future structure to the conformance suite is one line per script:
//! construct it, hand it to the runner.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use hi_common::batch::BatchOp;
use hi_common::traits::{Dictionary, RankedSequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

pub mod whi;

/// One keyed operation in a differential script, covering the full
/// [`Dictionary`] surface (a superset of `workloads::Op`, which only models
/// the four operations the benchmarks need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictOp {
    /// Insert or overwrite; the returned previous value is checked.
    Insert(u64, u64),
    /// Remove; the returned evicted value is checked.
    Remove(u64),
    /// Point lookup; the returned value is checked.
    Get(u64),
    /// Membership probe; the returned flag is checked.
    Contains(u64),
    /// Inclusive range query; contents and order are checked.
    Range(u64, u64),
    /// Smallest key ≥ the probe; the returned pair is checked.
    Successor(u64),
    /// Largest key ≤ the probe; the returned pair is checked.
    Predecessor(u64),
    /// Whole-state audit: `len` and `to_sorted_vec` against the oracle.
    CheckAll,
}

/// A reproducible, named script of dictionary operations.
#[derive(Debug, Clone)]
pub struct DictScript {
    /// Human-readable name, used in failure messages.
    pub name: String,
    /// The seed the script was generated from.
    pub seed: u64,
    /// The operations, in order.
    pub ops: Vec<DictOp>,
}

/// Tunable generator for [`DictScript`]s.
///
/// Weights are relative; they need not sum to anything in particular.
#[derive(Debug, Clone)]
pub struct ScriptProfile {
    /// Script name prefix (the seed is appended).
    pub name: &'static str,
    /// Number of operations to generate.
    pub ops: usize,
    /// Keys are drawn uniformly from `0..key_space`. Small key spaces force
    /// frequent overwrites and remove-hits; large ones exercise misses.
    pub key_space: u64,
    /// Relative weight of inserts.
    pub insert: u32,
    /// Relative weight of removes.
    pub remove: u32,
    /// Relative weight of point reads (get/contains).
    pub read: u32,
    /// Relative weight of ordered reads (range/successor/predecessor).
    pub ordered: u32,
    /// A [`DictOp::CheckAll`] is appended every `check_every` operations
    /// (and always at the end).
    pub check_every: usize,
}

impl ScriptProfile {
    /// Generates the script for `seed`.
    pub fn generate(&self, seed: u64) -> DictScript {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = self.insert + self.remove + self.read + self.ordered;
        assert!(
            total > 0,
            "script profile needs at least one nonzero weight"
        );
        let mut ops = Vec::with_capacity(self.ops + self.ops / self.check_every.max(1) + 1);
        for i in 0..self.ops {
            let key = rng.gen_range(0..self.key_space);
            let roll = rng.gen_range(0..total);
            let op = if roll < self.insert {
                DictOp::Insert(key, rng.gen::<u64>())
            } else if roll < self.insert + self.remove {
                DictOp::Remove(key)
            } else if roll < self.insert + self.remove + self.read {
                if rng.gen_bool(0.5) {
                    DictOp::Get(key)
                } else {
                    DictOp::Contains(key)
                }
            } else {
                match rng.gen_range(0..3u32) {
                    0 => {
                        let span = rng.gen_range(0..self.key_space / 4 + 1);
                        DictOp::Range(key, key.saturating_add(span))
                    }
                    1 => DictOp::Successor(key),
                    _ => DictOp::Predecessor(key),
                }
            };
            ops.push(op);
            if self.check_every > 0 && (i + 1) % self.check_every == 0 {
                ops.push(DictOp::CheckAll);
            }
        }
        ops.push(DictOp::CheckAll);
        DictScript {
            name: format!("{}#{}", self.name, seed),
            seed,
            ops,
        }
    }
}

/// The standard conformance battery: three behaviourally distinct profiles,
/// each generated at three seeds (nine scripts per structure).
///
/// * `churn-small-keyspace` — heavy overwrite/remove collisions in a tiny
///   key space, the regime where balance-element resampling and merges fire
///   constantly;
/// * `grow-mostly` — insert-dominated growth with occasional deletes, the
///   classic index-build workload;
/// * `read-heavy-ordered` — range/successor/predecessor dominated, probing
///   navigation against a churning population.
pub fn standard_scripts() -> Vec<DictScript> {
    let profiles = [
        ScriptProfile {
            name: "churn-small-keyspace",
            ops: 1_500,
            key_space: 64,
            insert: 4,
            remove: 4,
            read: 2,
            ordered: 2,
            check_every: 250,
        },
        ScriptProfile {
            name: "grow-mostly",
            ops: 1_500,
            key_space: 100_000,
            insert: 8,
            remove: 1,
            read: 2,
            ordered: 1,
            check_every: 250,
        },
        ScriptProfile {
            name: "read-heavy-ordered",
            ops: 1_200,
            key_space: 512,
            insert: 3,
            remove: 2,
            read: 3,
            ordered: 6,
            check_every: 200,
        },
    ];
    let mut scripts = Vec::new();
    for profile in &profiles {
        for seed in [0xA5A5, 0xBEEF, 0x1234_5678] {
            scripts.push(profile.generate(seed));
        }
    }
    scripts
}

/// Statistics from a differential run, for test-side sanity assertions
/// (e.g. "this script actually exercised overwrites").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Operations applied.
    pub ops: usize,
    /// Inserts that overwrote an existing key.
    pub overwrites: usize,
    /// Removes that found their key.
    pub remove_hits: usize,
    /// Removes of absent keys.
    pub remove_misses: usize,
    /// Whole-state audits performed.
    pub audits: usize,
    /// Final number of keys.
    pub final_len: usize,
}

/// Replays `script` against `dict` and a `BTreeMap` oracle in lockstep,
/// asserting that every operation returns identical results.
///
/// # Panics
///
/// Panics (with the script name, operation index and operation) on the first
/// divergence between `dict` and the oracle.
pub fn run_dict_differential<D>(dict: &mut D, script: &DictScript) -> DiffReport
where
    D: Dictionary<Key = u64, Value = u64>,
{
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut report = DiffReport::default();
    let ctx = |i: usize, op: &DictOp| format!("script {} op #{i} {op:?}", script.name);
    for (i, op) in script.ops.iter().enumerate() {
        report.ops += 1;
        match *op {
            DictOp::Insert(k, v) => {
                let got = dict.insert(k, v);
                let want = oracle.insert(k, v);
                assert_eq!(got, want, "{}: insert previous value", ctx(i, op));
                if want.is_some() {
                    report.overwrites += 1;
                }
            }
            DictOp::Remove(k) => {
                let got = dict.remove(&k);
                let want = oracle.remove(&k);
                assert_eq!(got, want, "{}: removed value", ctx(i, op));
                if want.is_some() {
                    report.remove_hits += 1;
                } else {
                    report.remove_misses += 1;
                }
            }
            DictOp::Get(k) => {
                assert_eq!(dict.get(&k), oracle.get(&k).copied(), "{}: get", ctx(i, op));
            }
            DictOp::Contains(k) => {
                assert_eq!(
                    dict.contains(&k),
                    oracle.contains_key(&k),
                    "{}: contains",
                    ctx(i, op)
                );
            }
            DictOp::Range(lo, hi) => {
                let want: Vec<(u64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                let got = dict.range(&lo, &hi);
                assert_eq!(got, want, "{}: range contents/order", ctx(i, op));
                // The lazy path must agree with the eager one, for every
                // flavour of bound expression.
                let lazy: Vec<(u64, u64)> =
                    dict.range_iter(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(lazy, want, "{}: range_iter contents/order", ctx(i, op));
                if lo > 0 {
                    let lazy_excl: Vec<(u64, u64)> = dict
                        .range_iter((
                            std::ops::Bound::Excluded(lo - 1),
                            std::ops::Bound::Included(hi),
                        ))
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(lazy_excl, want, "{}: range_iter excluded bound", ctx(i, op));
                }
            }
            DictOp::Successor(k) => {
                let want = oracle.range(k..).next().map(|(&k, &v)| (k, v));
                assert_eq!(dict.successor(&k), want, "{}: successor", ctx(i, op));
            }
            DictOp::Predecessor(k) => {
                let want = oracle.range(..=k).next_back().map(|(&k, &v)| (k, v));
                assert_eq!(dict.predecessor(&k), want, "{}: predecessor", ctx(i, op));
            }
            DictOp::CheckAll => {
                report.audits += 1;
                assert_eq!(dict.len(), oracle.len(), "{}: len", ctx(i, op));
                assert_eq!(
                    dict.is_empty(),
                    oracle.is_empty(),
                    "{}: is_empty",
                    ctx(i, op)
                );
                let got = dict.to_sorted_vec();
                let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want, "{}: full sorted contents", ctx(i, op));
                // The zero-copy full-scan surface must agree too.
                let lazy: Vec<(u64, u64)> = dict.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(lazy, want, "{}: iter() full scan", ctx(i, op));
                let keys: Vec<u64> = dict.keys().copied().collect();
                assert_eq!(
                    keys,
                    oracle.keys().copied().collect::<Vec<_>>(),
                    "{}: keys()",
                    ctx(i, op)
                );
            }
        }
    }
    report.final_len = oracle.len();
    report
}

/// Deterministic boundary-condition battery for a dictionary built by `make`.
///
/// Covers, in order: the empty structure (every read on nothing), a single
/// element (every read around one key), duplicate-key overwrite, removal of
/// absent keys, and a full drain followed by a refill with different
/// contents — the sequence that catches stale-tombstone and
/// shrink-to-empty bugs.
pub fn dictionary_edge_cases<D, F>(make: F)
where
    D: Dictionary<Key = u64, Value = u64>,
    F: Fn() -> D,
{
    // Empty structure.
    let mut d = make();
    assert_eq!(d.len(), 0, "fresh dictionary must be empty");
    assert!(d.is_empty());
    assert_eq!(d.get(&42), None);
    assert!(!d.contains(&42));
    assert_eq!(d.remove(&42), None, "remove on empty must miss");
    assert_eq!(d.range(&0, &u64::MAX), vec![]);
    assert_eq!(d.successor(&0), None);
    assert_eq!(d.predecessor(&u64::MAX), None);
    assert_eq!(d.to_sorted_vec(), vec![]);

    // Single element: reads on, below and above the key.
    let mut d = make();
    assert_eq!(d.insert(7, 70), None);
    assert_eq!(d.len(), 1);
    assert_eq!(d.get(&7), Some(70));
    assert_eq!(d.get(&6), None);
    assert_eq!(d.get(&8), None);
    assert_eq!(d.range(&0, &u64::MAX), vec![(7, 70)]);
    assert_eq!(d.range(&8, &u64::MAX), vec![]);
    assert_eq!(d.range(&7, &7), vec![(7, 70)]);
    assert_eq!(d.successor(&0), Some((7, 70)));
    assert_eq!(d.successor(&7), Some((7, 70)));
    assert_eq!(d.successor(&8), None);
    assert_eq!(d.predecessor(&u64::MAX), Some((7, 70)));
    assert_eq!(d.predecessor(&7), Some((7, 70)));
    assert_eq!(d.predecessor(&6), None);
    assert_eq!(d.remove(&7), Some(70));
    assert!(
        d.is_empty(),
        "structure must be empty after removing its only key"
    );

    // Duplicate-key overwrite: len stays, value and previous-value rotate.
    let mut d = make();
    assert_eq!(d.insert(5, 1), None);
    assert_eq!(d.insert(5, 2), Some(1));
    assert_eq!(d.insert(5, 3), Some(2));
    assert_eq!(d.len(), 1, "overwrites must not grow the dictionary");
    assert_eq!(d.get(&5), Some(3));
    assert_eq!(d.to_sorted_vec(), vec![(5, 3)]);

    // Remove-of-absent around present keys.
    let mut d = make();
    for k in [10u64, 20, 30] {
        d.insert(k, k * 10);
    }
    assert_eq!(d.remove(&15), None);
    assert_eq!(d.remove(&5), None);
    assert_eq!(d.remove(&35), None);
    assert_eq!(
        d.len(),
        3,
        "absent-key removes must not change the population"
    );
    assert_eq!(d.to_sorted_vec(), vec![(10, 100), (20, 200), (30, 300)]);

    // Full drain, then refill with different keys and values.
    let mut d = make();
    let first: Vec<u64> = (0..200).map(|k| k * 3).collect();
    for &k in &first {
        assert_eq!(d.insert(k, k), None);
    }
    assert_eq!(d.len(), first.len());
    // Drain in an order different from insertion (evens descending, then
    // the rest ascending) so the structure shrinks through varied shapes.
    for &k in first.iter().rev().filter(|k| *k % 2 == 0) {
        assert_eq!(d.remove(&k), Some(k), "drain phase 1, key {k}");
    }
    for &k in first.iter().filter(|k| *k % 2 == 1) {
        assert_eq!(d.remove(&k), Some(k), "drain phase 2, key {k}");
    }
    assert!(
        d.is_empty(),
        "dictionary must be empty after the full drain"
    );
    assert_eq!(d.to_sorted_vec(), vec![]);
    // Refill with an offset population and audit.
    let mut want = Vec::new();
    for k in (1..150u64).map(|k| k * 7 + 1) {
        assert_eq!(d.insert(k, k + 1), None, "refill insert {k}");
        want.push((k, k + 1));
    }
    want.sort();
    assert_eq!(d.to_sorted_vec(), want, "refilled contents must match");
    assert_eq!(d.len(), want.len());
}

/// Differential check of [`Dictionary::bulk_load`] against a `BTreeMap`
/// oracle and against an incrementally built twin.
///
/// `make` constructs a fresh (empty or pre-populated — `bulk_load` must
/// discard prior contents) dictionary. The check:
///
/// 1. generates `n` pairs with duplicate keys, shuffles them, and bulk-loads
///    them with `seed` — the result must match a `BTreeMap` loaded with the
///    same pairs in the same order (last write wins);
/// 2. probes `get`/`get_ref`/`successor`/`predecessor`/`range_iter` across
///    the key space against the oracle;
/// 3. keeps operating incrementally afterwards (insert/remove/get) to prove
///    the bulk-loaded structure is fully functional, auditing the final
///    state.
///
/// # Panics
///
/// Panics on the first divergence from the oracle.
pub fn run_bulk_load_differential<D, F>(make: F, n: usize, seed: u64)
where
    D: Dictionary<Key = u64, Value = u64>,
    F: Fn() -> D,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let key_space = (n as u64 * 2).max(8);
    let pairs: Vec<(u64, u64)> = (0..n)
        .map(|_| (rng.gen_range(0..key_space), rng.gen()))
        .collect();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for &(k, v) in &pairs {
        oracle.insert(k, v);
    }

    let mut dict = make();
    dict.bulk_load(pairs.clone(), seed ^ 0xB01D);
    assert_eq!(dict.len(), oracle.len(), "bulk_load: len after load");
    assert_eq!(
        dict.to_sorted_vec(),
        oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
        "bulk_load: contents after load"
    );

    for _ in 0..200 {
        let probe = rng.gen_range(0..key_space + 4);
        assert_eq!(
            dict.get(&probe),
            oracle.get(&probe).copied(),
            "bulk_load: get({probe})"
        );
        assert_eq!(
            dict.get_ref(&probe),
            oracle.get(&probe),
            "bulk_load: get_ref({probe})"
        );
        assert_eq!(
            dict.successor(&probe),
            oracle.range(probe..).next().map(|(&k, &v)| (k, v)),
            "bulk_load: successor({probe})"
        );
        assert_eq!(
            dict.predecessor(&probe),
            oracle.range(..=probe).next_back().map(|(&k, &v)| (k, v)),
            "bulk_load: predecessor({probe})"
        );
        let hi = probe.saturating_add(rng.gen_range(0..key_space / 4 + 1));
        let got: Vec<(u64, u64)> = dict.range_iter(probe..=hi).map(|(&k, &v)| (k, v)).collect();
        let want: Vec<(u64, u64)> = oracle.range(probe..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "bulk_load: range_iter({probe}..={hi})");
    }

    // The structure must remain fully operational after a bulk load.
    for step in 0..500u64 {
        let key = rng.gen_range(0..key_space);
        match rng.gen_range(0..10) {
            0..=5 => assert_eq!(
                dict.insert(key, step),
                oracle.insert(key, step),
                "post-bulk insert({key})"
            ),
            6..=8 => assert_eq!(
                dict.remove(&key),
                oracle.remove(&key),
                "post-bulk remove({key})"
            ),
            _ => assert_eq!(
                dict.get(&key),
                oracle.get(&key).copied(),
                "post-bulk get({key})"
            ),
        }
    }
    assert_eq!(
        dict.to_sorted_vec(),
        oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
        "bulk_load: final audit"
    );
}

/// Tunable generator for batched differential runs (see
/// [`run_batch_differential`]).
#[derive(Debug, Clone, Copy)]
pub struct BatchProfile {
    /// Number of batches to apply.
    pub batches: usize,
    /// Operations per batch.
    pub batch_len: usize,
    /// Keys are drawn uniformly from `0..key_space`. Small key spaces force
    /// duplicate keys *within* one batch (last write wins) and remove-hits.
    pub key_space: u64,
    /// Probability (out of 100) that an operation is a remove.
    pub remove_pct: u32,
}

impl BatchProfile {
    /// Heavy-duplicate mixed batches in a tiny key space: the regime where
    /// last-write-wins, put-then-remove and remove-then-put all occur
    /// inside a single batch.
    pub fn churn() -> Self {
        Self {
            batches: 8,
            batch_len: 300,
            key_space: 48,
            remove_pct: 40,
        }
    }

    /// Insert-dominated growth over a large key space (mostly distinct
    /// keys, occasional removes).
    pub fn grow() -> Self {
        Self {
            batches: 6,
            batch_len: 500,
            key_space: 100_000,
            remove_pct: 10,
        }
    }

    /// Sequential-run batches (ascending key blocks) with interleaved
    /// removals of the previous block — the bulk-ingest shape.
    pub fn sequential() -> Self {
        Self {
            batches: 6,
            batch_len: 400,
            key_space: 0, // marker: keys are generated sequentially
            remove_pct: 25,
        }
    }
}

/// Drives `dict` through seeded mixed batches (duplicate keys included)
/// via [`Dictionary::apply_batch`], while a `BTreeMap` oracle applies the
/// same operations one at a time — checking the returned remove-hit count,
/// the full contents after every batch, and a [`Dictionary::get_many`]
/// probe sweep against per-key oracle lookups.
///
/// # Panics
///
/// Panics on the first divergence from the oracle.
pub fn run_batch_differential<D>(dict: &mut D, seed: u64, profile: BatchProfile)
where
    D: Dictionary<Key = u64, Value = u64>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for batch_no in 0..profile.batches {
        let ops: Vec<BatchOp<u64, u64>> = (0..profile.batch_len)
            .map(|i| {
                let key = if profile.key_space == 0 {
                    // Sequential blocks; removes target the previous block.
                    let block = batch_no as u64;
                    if rng.gen_range(0..100) < profile.remove_pct && block > 0 {
                        (block - 1) * profile.batch_len as u64 + i as u64
                    } else {
                        block * profile.batch_len as u64 + i as u64
                    }
                } else {
                    rng.gen_range(0..profile.key_space)
                };
                if rng.gen_range(0..100) < profile.remove_pct {
                    BatchOp::Remove(key)
                } else {
                    BatchOp::Put(key, rng.gen())
                }
            })
            .collect();
        let mut expected_removed = 0usize;
        for op in &ops {
            match op {
                BatchOp::Put(k, v) => {
                    oracle.insert(*k, *v);
                }
                BatchOp::Remove(k) => {
                    if oracle.remove(k).is_some() {
                        expected_removed += 1;
                    }
                }
            }
        }
        let removed = dict.apply_batch(ops);
        assert_eq!(
            removed, expected_removed,
            "seed {seed} batch #{batch_no}: remove-hit count"
        );
        assert_eq!(
            dict.len(),
            oracle.len(),
            "seed {seed} batch #{batch_no}: len"
        );
        assert_eq!(
            dict.to_sorted_vec(),
            oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
            "seed {seed} batch #{batch_no}: contents after batch"
        );
    }
    // Batched lookups (sorted finger probes inside) must agree with the
    // oracle, in input order, hits and misses alike.
    let space = if profile.key_space == 0 {
        profile.batches as u64 * profile.batch_len as u64 + 10
    } else {
        profile.key_space + 10
    };
    let probes: Vec<u64> = (0..300).map(|_| rng.gen_range(0..space)).collect();
    let expected: Vec<Option<u64>> = probes.iter().map(|k| oracle.get(k).copied()).collect();
    assert_eq!(
        dict.get_many(&probes),
        expected,
        "seed {seed}: get_many disagrees with per-key lookups"
    );
}

/// Profile for a rank-addressed differential run (see
/// [`run_seq_differential`]). Ops are drawn on the fly because valid ranks
/// depend on the evolving length.
#[derive(Debug, Clone, Copy)]
pub struct SeqProfile {
    /// Number of operations to apply.
    pub ops: usize,
    /// Relative weight of rank inserts.
    pub insert: u32,
    /// Relative weight of rank deletes.
    pub delete: u32,
    /// Relative weight of reads (get / query).
    pub read: u32,
    /// Whether to interleave deliberately out-of-range operations (which
    /// must fail identically on the structure and the oracle).
    pub probe_out_of_range: bool,
}

impl SeqProfile {
    /// A balanced default profile.
    pub fn standard(ops: usize) -> Self {
        Self {
            ops,
            insert: 5,
            delete: 3,
            read: 4,
            probe_out_of_range: true,
        }
    }
}

/// Drives a [`RankedSequence`] against a `Vec` reference with a seeded
/// random rank-addressed workload, checking every returned element, every
/// range query, and — when `probe_out_of_range` is set — that invalid ranks
/// are rejected with the same [`hi_common::traits::RankError`] semantics.
///
/// Returns the number of operations applied.
///
/// # Panics
///
/// Panics on the first divergence from the oracle.
pub fn run_seq_differential<S>(seq: &mut S, seed: u64, profile: SeqProfile) -> usize
where
    S: RankedSequence<Item = u64>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle: Vec<u64> = Vec::new();
    let total = profile.insert + profile.delete + profile.read;
    assert!(
        total > 0,
        "sequence profile needs at least one nonzero weight"
    );
    for i in 0..profile.ops {
        assert_eq!(seq.len(), oracle.len(), "op #{i}: length drifted");
        let roll = rng.gen_range(0..total);
        if roll < profile.insert || oracle.is_empty() {
            let rank = rng.gen_range(0..=oracle.len());
            let item: u64 = rng.gen();
            seq.insert_at(rank, item)
                .unwrap_or_else(|e| panic!("op #{i}: insert_at({rank}) failed: {e}"));
            oracle.insert(rank, item);
        } else if roll < profile.insert + profile.delete {
            let rank = rng.gen_range(0..oracle.len());
            let got = seq
                .delete_at(rank)
                .unwrap_or_else(|e| panic!("op #{i}: delete_at({rank}) failed: {e}"));
            let want = oracle.remove(rank);
            assert_eq!(got, want, "op #{i}: delete_at({rank}) element");
        } else {
            let rank = rng.gen_range(0..oracle.len());
            assert_eq!(seq.get(rank), Some(oracle[rank]), "op #{i}: get({rank})");
            let j = rng.gen_range(rank..oracle.len());
            let got = seq
                .query(rank, j)
                .unwrap_or_else(|e| panic!("op #{i}: query({rank}, {j}) failed: {e}"));
            assert_eq!(got, oracle[rank..=j], "op #{i}: query({rank}, {j})");
        }
        if profile.probe_out_of_range && i % 64 == 0 {
            let past_end = oracle.len() + rng.gen_range(1..4usize);
            assert!(
                seq.insert_at(past_end, 0).is_err(),
                "op #{i}: insert_at past the end must be rejected"
            );
            assert!(
                seq.delete_at(oracle.len()).is_err(),
                "op #{i}: delete_at(len) must be rejected"
            );
            assert_eq!(seq.get(oracle.len()), None, "op #{i}: get(len) must miss");
            if !oracle.is_empty() {
                let err = match seq.query(0, oracle.len()) {
                    Err(e) => e,
                    Ok(_) => panic!("op #{i}: query past the end must be rejected"),
                };
                assert_eq!(
                    (err.rank, err.len),
                    (oracle.len(), oracle.len()),
                    "op #{i}: out-of-bounds query must report rank j and len"
                );
            }
            // Uniform empty-range contract: i > j succeeds with no elements,
            // even at out-of-bounds ranks — on the oracle and the structure
            // alike.
            let a = rng.gen_range(0..oracle.len() + 3);
            if a > 0 {
                assert_eq!(
                    seq.query(a, a - 1).expect("empty range must be Ok").len(),
                    0,
                    "op #{i}: query({a}, {}) must be an empty Ok",
                    a - 1
                );
            }
        }
    }
    assert_eq!(seq.to_vec(), oracle, "final contents must match the oracle");
    profile.ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BTreeMap` wrapped as a `Dictionary` — differential-testing the
    /// oracle against itself validates the runner's bookkeeping.
    struct MapDict(BTreeMap<u64, u64>);

    impl Dictionary for MapDict {
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

    /// A deliberately buggy dictionary: forgets to report overwrites.
    struct LossyInsert(BTreeMap<u64, u64>);

    impl Dictionary for LossyInsert {
        type Key = u64;
        type Value = u64;
        fn len(&self) -> usize {
            self.0.len()
        }
        fn insert(&mut self, k: u64, v: u64) -> Option<u64> {
            self.0.insert(k, v);
            None // bug: swallows the previous value
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

    #[test]
    fn scripts_are_reproducible() {
        let p = &standard_scripts()[0];
        let again = ScriptProfile {
            name: "churn-small-keyspace",
            ops: 1_500,
            key_space: 64,
            insert: 4,
            remove: 4,
            read: 2,
            ordered: 2,
            check_every: 250,
        }
        .generate(p.seed);
        assert_eq!(p.ops, again.ops);
    }

    #[test]
    fn standard_scripts_cover_the_interesting_regimes() {
        let scripts = standard_scripts();
        assert!(scripts.len() >= 9, "need at least three seeds per profile");
        // The churn profile must actually produce overwrites and remove hits
        // when replayed — otherwise the conformance battery is toothless.
        let mut dict = MapDict(BTreeMap::new());
        let report = run_dict_differential(&mut dict, &scripts[0]);
        assert!(
            report.overwrites > 10,
            "churn script produced no overwrites"
        );
        assert!(
            report.remove_hits > 10,
            "churn script produced no remove hits"
        );
        assert!(report.remove_misses > 0);
        assert!(report.audits >= 2);
    }

    #[test]
    fn oracle_agrees_with_itself() {
        for script in standard_scripts() {
            let mut dict = MapDict(BTreeMap::new());
            run_dict_differential(&mut dict, &script);
        }
    }

    #[test]
    fn edge_cases_pass_on_the_reference() {
        dictionary_edge_cases(|| MapDict(BTreeMap::new()));
    }

    #[test]
    fn batch_runner_is_clean_on_the_reference() {
        // The reference dictionary uses the trait's per-op apply_batch
        // default, so this validates the runner's own bookkeeping (hit
        // counts, duplicate-key folding, probe sweep).
        for profile in [
            BatchProfile::churn(),
            BatchProfile::grow(),
            BatchProfile::sequential(),
        ] {
            let mut dict = MapDict(BTreeMap::new());
            run_batch_differential(&mut dict, 0xBA7C4, profile);
        }
    }

    #[test]
    #[should_panic(expected = "insert previous value")]
    fn harness_catches_a_lossy_insert() {
        let script = ScriptProfile {
            name: "bug-hunt",
            ops: 200,
            key_space: 8, // tiny key space forces an overwrite quickly
            insert: 1,
            remove: 0,
            read: 0,
            ordered: 0,
            check_every: 0,
        }
        .generate(1);
        let mut dict = LossyInsert(BTreeMap::new());
        run_dict_differential(&mut dict, &script);
    }

    #[test]
    fn vec_sequence_differential_is_clean() {
        /// Trivial Vec-backed RankedSequence.
        struct VecSeq(Vec<u64>);
        impl RankedSequence for VecSeq {
            type Item = u64;
            fn len(&self) -> usize {
                self.0.len()
            }
            fn insert_at(&mut self, rank: usize, item: u64) -> Result<(), hi_common::RankError> {
                if rank > self.0.len() {
                    return Err(hi_common::RankError {
                        rank,
                        len: self.0.len(),
                    });
                }
                self.0.insert(rank, item);
                Ok(())
            }
            fn delete_at(&mut self, rank: usize) -> Result<u64, hi_common::RankError> {
                if rank >= self.0.len() {
                    return Err(hi_common::RankError {
                        rank,
                        len: self.0.len(),
                    });
                }
                Ok(self.0.remove(rank))
            }
            fn get_ref(&self, rank: usize) -> Option<&u64> {
                self.0.get(rank)
            }
            fn range_iter(
                &self,
                i: usize,
                j: usize,
            ) -> Result<impl Iterator<Item = &u64>, hi_common::RankError> {
                if i > j {
                    return Ok(self.0[0..0].iter());
                }
                if j >= self.0.len() {
                    return Err(hi_common::RankError {
                        rank: j,
                        len: self.0.len(),
                    });
                }
                Ok(self.0[i..=j].iter())
            }
        }
        let applied = run_seq_differential(&mut VecSeq(Vec::new()), 77, SeqProfile::standard(800));
        assert_eq!(applied, 800);
    }
}
