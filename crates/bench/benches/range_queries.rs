//! Criterion micro-benchmarks for range queries across all dictionaries
//! (the `log_B N + k/B` experiments of Theorems 2 and 3): latency of range
//! scans of increasing result size, for both the `Vec`-materialising `range`
//! and the zero-allocation `range_iter` paths; and the full export a served
//! `FLUSH` streams, merged across HI-PMA shards two ways.

use anti_persistence::dict::{Backend, DictBuilder, DictConfig};
use anti_persistence::prelude::Dictionary;
use anti_persistence::shard::RunMerge;
use btree::BTree;
use cob_btree::CobBTree;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skiplist::ExternalSkipList;
use std::time::Duration;

const N: u64 = 50_000;

fn bench_ranges(c: &mut Criterion) {
    let mut cob: CobBTree<u64, u64> = CobBTree::new(1);
    let mut skip: ExternalSkipList<u64, u64> = ExternalSkipList::history_independent(64, 0.5, 2);
    let mut bt: BTree<u64, u64> = BTree::new(128);
    for k in 0..N {
        cob.insert(k, k);
        skip.insert(k, k);
        bt.insert(k, k);
    }
    let mut group = c.benchmark_group("range_query_by_k");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for k in [64u64, 1024, 8192] {
        group.bench_with_input(BenchmarkId::new("cob_btree", k), &k, |b, &k| {
            b.iter(|| cob.range(&10_000, &(10_000 + k - 1)).len())
        });
        group.bench_with_input(BenchmarkId::new("hi_skiplist", k), &k, |b, &k| {
            b.iter(|| skip.range(&10_000, &(10_000 + k - 1)).len())
        });
        group.bench_with_input(BenchmarkId::new("btree", k), &k, |b, &k| {
            b.iter(|| bt.range(&10_000, &(10_000 + k - 1)).len())
        });
        // The lazy counterparts: identical scans, no Vec per query.
        group.bench_with_input(BenchmarkId::new("cob_btree_iter", k), &k, |b, &k| {
            b.iter(|| cob.range_iter(10_000..10_000 + k).count())
        });
        group.bench_with_input(BenchmarkId::new("hi_skiplist_iter", k), &k, |b, &k| {
            b.iter(|| skip.range_iter(10_000..10_000 + k).count())
        });
        group.bench_with_input(BenchmarkId::new("btree_iter", k), &k, |b, &k| {
            b.iter(|| bt.range_iter(10_000..10_000 + k).count())
        });
    }
    group.finish();
}

/// The merge alone of a served `FLUSH` at the benchmark's `wire_flush`
/// size: 136 000 records over `S` HI-PMA shards, folded as the record
/// encoder would consume them. `k_way` is the per-record `KWayMerge` over
/// the shards' `DynDict` iterators; `runs` the `RunMerge` over their
/// leaves.
fn bench_export(c: &mut Criterion) {
    const RECORDS: u64 = 136_000;
    let pairs = || (0..RECORDS).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i));
    let mut group = c.benchmark_group("flush_merge_136k");
    group.sample_size(30);
    for shards in [1usize, 2, 4, 8, 16] {
        let config = DictConfig {
            backend: Backend::HiPma,
            seed: 7,
            shards,
            ..DictConfig::default()
        };
        let mut dynamic = DictBuilder::from_config(config.clone())
            .try_build_sharded::<u64, u64>()
            .expect("valid config");
        let mut served = DictBuilder::from_config(config)
            .try_build_hi_sharded()
            .expect("valid config");
        dynamic.bulk_load(pairs(), 7);
        served.bulk_load(pairs(), 7);
        group.bench_with_input(BenchmarkId::new("k_way", shards), &shards, |b, _| {
            b.iter(|| dynamic.iter().fold(0, |acc, (k, v)| acc ^ k ^ v))
        });
        group.bench_with_input(BenchmarkId::new("runs", shards), &shards, |b, _| {
            b.iter(|| {
                let leaves = served.shards().iter().map(|s| s.seq().leaves());
                RunMerge::new(leaves, |r: &(u64, u64)| r.0).fold(0, |acc, (k, v)| acc ^ k ^ v)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ranges, bench_export);
criterion_main!(benches);
