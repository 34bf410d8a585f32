//! Barrier-synchronized multi-threaded batch storm against the sharded
//! service, cross-checked op-for-op against the `BTreeMap` oracle.
//!
//! Shape of each round:
//!
//! 1. **Writer storm**: `WRITERS` threads, one per disjoint key range,
//!    generate seeded batches behind a [`Barrier`] (so generation is
//!    genuinely concurrent), which are then applied through the service's
//!    batched write path.
//! 2. **Reader storm**: `READERS` threads share the service immutably
//!    behind another barrier and hammer `multi_get`, merged `range_iter`
//!    scans and ordered navigation, each checked against the oracle.
//!
//! Everything derives from one root seed, so a failure reproduces exactly;
//! the failure messages carry the round and thread indices.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::thread;

use anti_persistence::dict::{Backend, Dict, DynDict};
use anti_persistence::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WRITERS: usize = 4;
const READERS: usize = 4;
const ROUNDS: usize = 5;
const OPS_PER_WRITER: usize = 1_500;
/// Each writer owns keys `[w·RANGE, (w+1)·RANGE)`.
const RANGE: u64 = 100_000;

/// A writer round's puts plus removes of keys the writer may have inserted
/// in earlier rounds.
type Batch = (Vec<(u64, u64)>, Vec<u64>);

/// One writer's seeded batch for one round.
fn writer_batch(root_seed: u64, round: usize, writer: usize) -> Batch {
    let mut rng = StdRng::seed_from_u64(
        root_seed ^ (round as u64).wrapping_mul(0x9E37_79B9) ^ (writer as u64) << 32,
    );
    let base = writer as u64 * RANGE;
    let mut puts = Vec::with_capacity(OPS_PER_WRITER);
    let mut removes = Vec::new();
    for i in 0..OPS_PER_WRITER {
        let key = base + rng.gen_range(0..RANGE);
        if i % 5 == 4 {
            removes.push(key);
        } else {
            puts.push((key, rng.gen::<u64>()));
        }
    }
    (puts, removes)
}

fn run_storm(backend: Backend, shards: usize, root_seed: u64) {
    let mut service: ShardedDict<DynDict<u64, u64>> = Dict::builder()
        .backend(backend)
        .seed(root_seed)
        .shards(shards)
        .build_sharded();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();

    for round in 0..ROUNDS {
        // --- writer storm: concurrent seeded generation, barrier start ---
        let barrier = Barrier::new(WRITERS);
        let batches: Vec<Batch> = thread::scope(|s| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        writer_batch(root_seed, round, w)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer thread panicked"))
                .collect()
        });

        // Apply in writer order (deterministic), one batch per writer;
        // mirror into the oracle identically.
        for (w, (puts, removes)) in batches.into_iter().enumerate() {
            service.multi_put(puts.clone());
            for (k, v) in puts {
                oracle.insert(k, v);
            }
            let removed = service.multi_remove(removes.clone());
            let oracle_removed = removes
                .iter()
                .filter(|k| oracle.remove(k).is_some())
                .count();
            assert_eq!(
                removed, oracle_removed,
                "backend {backend}, round {round}, writer {w}: remove counts diverged"
            );
        }
        assert_eq!(
            service.len(),
            oracle.len(),
            "backend {backend}, round {round}: len diverged"
        );

        // --- reader storm: shared service, barrier-synchronized threads ---
        let barrier = Barrier::new(READERS);
        thread::scope(|s| {
            for r in 0..READERS {
                let service = &service;
                let oracle = &oracle;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let mut rng = StdRng::seed_from_u64(
                        root_seed ^ 0xFEED ^ (round as u64 * READERS as u64 + r as u64),
                    );
                    // Batched point reads, answered in input order.
                    let keys: Vec<u64> = (0..800)
                        .map(|_| rng.gen_range(0..WRITERS as u64 * RANGE))
                        .collect();
                    let got = service.multi_get(&keys);
                    for (k, v) in keys.iter().zip(got) {
                        assert_eq!(
                            v.as_ref(),
                            oracle.get(k),
                            "backend {backend}, round {round}, reader {r}: get({k})"
                        );
                    }
                    // Merged range scans over random windows.
                    for _ in 0..20 {
                        let lo = rng.gen_range(0..WRITERS as u64 * RANGE);
                        let hi = lo + rng.gen_range(0..RANGE / 4);
                        let scanned: Vec<(u64, u64)> =
                            service.range_iter(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                        let expected: Vec<(u64, u64)> =
                            oracle.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                        assert_eq!(
                            scanned, expected,
                            "backend {backend}, round {round}, reader {r}: range {lo}..={hi}"
                        );
                    }
                    // Ordered navigation across shard boundaries.
                    for _ in 0..100 {
                        let probe = rng.gen_range(0..WRITERS as u64 * RANGE);
                        assert_eq!(
                            service.successor(&probe),
                            oracle.range(probe..).next().map(|(k, v)| (*k, *v)),
                            "backend {backend}, round {round}, reader {r}: successor({probe})"
                        );
                        assert_eq!(
                            service.predecessor(&probe),
                            oracle.range(..=probe).next_back().map(|(k, v)| (*k, *v)),
                            "backend {backend}, round {round}, reader {r}: predecessor({probe})"
                        );
                    }
                });
            }
        });
    }

    // Final audit: merged full scan equals the oracle, invariants hold.
    assert_eq!(
        service.to_sorted_vec(),
        oracle.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
        "backend {backend}: final contents diverged"
    );
    for (i, shard) in service.shards().iter().enumerate() {
        shard.check_invariants();
        assert!(
            shard.len() > 0,
            "backend {backend}: shard {i} never received a key — router imbalance"
        );
    }
}

#[test]
fn batch_storm_matches_oracle_on_hi_pma_shards() {
    run_storm(Backend::HiPma, 4, 0x57AE_5501);
}

#[test]
fn batch_storm_matches_oracle_on_btree_shards() {
    run_storm(Backend::BTree, 5, 0x57AE_5502);
}

#[test]
fn batch_storm_matches_oracle_on_hi_skiplist_shards() {
    run_storm(Backend::HiSkipList, 3, 0x57AE_5503);
}
