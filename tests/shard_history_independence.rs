//! History independence of the sharded service, on the type the server runs:
//! `ShardedDict<HiDict>`.
//!
//! `tests/history_independence.rs` holds one HI-PMA to Lemma 9: its layout
//! is R(N, N̂, balances), and those inputs are uniform. A sharded service
//! could leak history two more ways: through how the caller cut the
//! operation stream into batches, and through the key → shard assignment.
//! Here every shard is held to R after every batch of four histories that
//! differ in order and in batching, every shard's N̂ is tested for
//! uniformity after a batched insert/delete episode, and the router is
//! shown to ignore load.

use anti_persistence::dict::{Backend, Dict, HiDict};
use anti_persistence::hi_common::BatchOp;
use anti_persistence::prelude::*;
use hi_common::stats::Pooled;
use std::fmt::Arguments;
use test_support::whi::lemma9_occupancy;

const KEYS: u64 = 600;
const EXTRA: u64 = 120;

fn service(seed: u64, shards: usize) -> ShardedDict<HiDict> {
    Dict::builder()
        .backend(Backend::HiPma)
        .seed(seed)
        .shards(shards)
        .try_build_hi_sharded()
        .expect("a HI-PMA config")
}

/// Asserts that every shard's layout is R of its own balance records.
fn assert_lemma9(d: &ShardedDict<HiDict>, context: Arguments<'_>) {
    for (i, shard) in d.shards().iter().enumerate() {
        let pma = shard.seq();
        let balances = pma
            .balance_records()
            .into_iter()
            .map(|r| (r.range, r.window, r.offset));
        assert!(
            (pma.slot_count(), pma.occupancy_words())
                == lemma9_occupancy(pma.len(), pma.n_hat(), balances),
            "{context}: shard {i}'s layout is not R(N = {}, N̂ = {}, balances)",
            pma.len(),
            pma.n_hat()
        );
    }
}

/// A history: the batches, in order, that a caller hands `multi_apply`.
type Batches = Vec<Vec<BatchOp<u64, u64>>>;

/// Four histories, as batches, that all reach keys `{0, 3, …, 3·(KEYS−1)}`:
/// ascending single puts; descending single puts, then `EXTRA` more keys
/// put and removed one at a time; evens then odds in batches of 97; the
/// back half then the front half in batches of 13.
fn histories() -> [(&'static str, Batches); 4] {
    let put = |k: u64| BatchOp::Put(3 * k, k);
    let puts = |keys: Vec<u64>, size: usize| {
        let batch = |chunk: &[u64]| chunk.iter().copied().map(put).collect();
        keys.chunks(size).map(batch).collect()
    };
    let episode = (KEYS..KEYS + EXTRA).map(put);
    let removals = (KEYS..KEYS + EXTRA).map(|k| BatchOp::Remove(3 * k));
    let descending = (0..KEYS).rev().map(put).chain(episode).chain(removals);
    let interleaved = (0..KEYS).step_by(2).chain((1..KEYS).step_by(2));
    let rotated = (KEYS / 2..KEYS).chain(0..KEYS / 2);
    [
        ("ascending", puts((0..KEYS).collect(), 1)),
        (
            "descending + churn",
            descending.map(|op| vec![op]).collect(),
        ),
        (
            "evens then odds, batches of 97",
            puts(interleaved.collect(), 97),
        ),
        ("rotated, batches of 13", puts(rotated.collect(), 13)),
    ]
}

#[test]
fn every_shard_is_lemma9_after_every_batch_of_four_histories() {
    for shards in [2usize, 3, 5] {
        for seed in [11u64, 12, 13] {
            let mut contents = None;
            for (name, batches) in histories() {
                let mut d = service(seed, shards);
                for (b, batch) in batches.into_iter().enumerate() {
                    d.multi_apply(batch);
                    assert_lemma9(
                        &d,
                        format_args!("S={shards} seed {seed}, {name}, batch {b}"),
                    );
                }
                let got = d.to_sorted_vec();
                assert_eq!(contents.get_or_insert_with(|| got.clone()), &got, "{name}");
            }
        }
    }
}

#[test]
fn every_shards_capacity_is_uniform_after_batched_churn() {
    // The sharded form of secure delete: after a batch of inserts and a
    // batch removing them again, each shard's N̂ is uniform on
    // {len, …, 2·len − 1}, as if the episode had never happened.
    let mut pooled = Pooled::new(0xCA9);
    for t in 0..400u64 {
        let mut d = service(4_000_000 + t, 3);
        d.multi_put((0..KEYS).map(|k| (3 * k, k)));
        d.multi_put((KEYS..KEYS + EXTRA).map(|k| (3 * k, k)));
        d.multi_remove((KEYS..KEYS + EXTRA).map(|k| 3 * k));
        for shard in d.shards() {
            pooled.capacity(shard.len(), shard.seq().n_hat());
        }
    }
    let report = pooled.report();
    assert_eq!(report.tests.len(), 1, "{report}");
    assert!(!report.rejects(0.01), "{report}");
}

#[test]
fn router_assignment_is_load_free_and_balanced() {
    // The router must place the same key on the same shard no matter what
    // else was inserted before it (assignment is f(key, seed, S), never
    // load) — and the partition must stay roughly balanced so the service
    // scales. Both checks across the same three shard counts.
    for shards in [2usize, 3, 5] {
        let empty = service(77, shards);
        let mut loaded = service(77, shards);
        loaded.multi_put((10_000..20_000u64).map(|k| (k, k)));
        let mut counts = vec![0usize; shards];
        for k in 0..3_000u64 {
            let home = empty.shard_of(&k);
            assert_eq!(
                home,
                loaded.shard_of(&k),
                "S={shards}: key {k} moved because of unrelated load"
            );
            counts[home] += 1;
        }
        let expected = 3_000 / shards;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "S={shards}: shard {i} holds {c} of 3000 keys: {counts:?}"
            );
        }
    }
}
