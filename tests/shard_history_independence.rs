//! History independence of the *sharded* dictionary service.
//!
//! `tests/history_independence.rs` establishes the single-structure claim:
//! two operation sequences reaching the same logical state induce the same
//! distribution over memory representations. This battery extends the claim
//! to the deployment shape the ROADMAP targets — `S` hash-partitioned
//! shards fed by batched writes — and adds the new way a sharded service
//! could leak history that a single structure cannot: **batch
//! partitioning**. How the caller split the operation stream into
//! `multi_put` batches must not show up in the layout.
//!
//! Methodology is identical to the single-structure battery: build the same
//! final contents through different histories over many independent seeds,
//! fingerprint the layout (first-occupied-slot bucket of a shard's
//! occupancy bitmap), and χ²-compare the fingerprint distributions. Run
//! across three shard counts, per the acceptance criteria.

use anti_persistence::dict::{Backend, Dict, DynDict};
use anti_persistence::prelude::*;
use hi_common::stats::chi2::chi2_gof;

const KEYS: u64 = 240;
const EXTRA: u64 = 48;
const TRIALS: u64 = 300;
const BUCKETS: usize = 6;

/// The contents every history converges to: keys `{0, 3, …, 3·(KEYS−1)}`.
fn pairs_ascending() -> Vec<(u64, u64)> {
    (0..KEYS).map(|k| (k * 3, k)).collect()
}

fn service(seed: u64, shards: usize) -> ShardedDict<DynDict<u64, u64>> {
    Dict::builder()
        .backend(Backend::HiPma)
        .seed(seed)
        .shards(shards)
        .build_sharded()
}

/// First-occupied-slot bucket of shard 0's occupancy bitmap — the same
/// coarse layout fingerprint the single-structure χ² test uses. Shard 0's
/// contents are identical across histories under a fixed seed (the router
/// is part of the seed), so its layout distribution is directly comparable.
fn layout_bucket(d: &ShardedDict<DynDict<u64, u64>>) -> usize {
    let occupancy = d.shards()[0]
        .occupancy()
        .expect("HiPma shards expose occupancy");
    let pos = occupancy.iter().position(|&b| b).unwrap_or(0);
    (pos * BUCKETS / occupancy.len().max(1)).min(BUCKETS - 1)
}

/// History A: ascending single-key inserts.
fn build_ascending(seed: u64, shards: usize) -> ShardedDict<DynDict<u64, u64>> {
    let mut d = service(seed, shards);
    for (k, v) in pairs_ascending() {
        d.insert(k, v);
    }
    d
}

/// History B: descending single-key inserts plus an insert-then-delete
/// episode — the classic history-revealing workload.
fn build_descending_with_churn(seed: u64, shards: usize) -> ShardedDict<DynDict<u64, u64>> {
    let mut d = service(seed, shards);
    for (k, v) in pairs_ascending().into_iter().rev() {
        d.insert(k, v);
    }
    for k in 0..EXTRA {
        d.insert(3 * KEYS + k, k);
    }
    for k in 0..EXTRA {
        d.remove(&(3 * KEYS + k));
    }
    d
}

/// History C: interleaved arrival order (evens then odds), delivered as
/// `multi_put` batches of 97.
fn build_interleaved_batches(seed: u64, shards: usize) -> ShardedDict<DynDict<u64, u64>> {
    let mut d = service(seed, shards);
    let ascending = pairs_ascending();
    let mut interleaved: Vec<(u64, u64)> = ascending.iter().copied().step_by(2).collect();
    interleaved.extend(ascending.iter().copied().skip(1).step_by(2));
    for chunk in interleaved.chunks(97) {
        d.multi_put(chunk.to_vec());
    }
    d
}

/// History D: a different arrival order (back half, then front half) with a
/// different batch partitioning: batches of 13.
fn build_rotated_batches(seed: u64, shards: usize) -> ShardedDict<DynDict<u64, u64>> {
    let mut d = service(seed, shards);
    let ascending = pairs_ascending();
    let half = ascending.len() / 2;
    let mut rotated = ascending[half..].to_vec();
    rotated.extend_from_slice(&ascending[..half]);
    for chunk in rotated.chunks(13) {
        d.multi_put(chunk.to_vec());
    }
    d
}

/// χ²-compares two fingerprint histograms, treating A (scaled) as the
/// expected distribution and merging tiny buckets, exactly like the
/// single-structure battery.
fn assert_same_distribution(hist_a: &[u64], hist_b: &[u64], label: &str) {
    let mut observed = Vec::new();
    let mut expected = Vec::new();
    for (a, b) in hist_a.iter().zip(hist_b) {
        if *a >= 20 {
            expected.push(*a as f64);
            observed.push(*b);
        }
    }
    if observed.len() >= 2 {
        let outcome = chi2_gof(&observed, &expected);
        assert!(
            outcome.p_value > 1e-4,
            "{label}: layout distributions differ: A = {hist_a:?}, B = {hist_b:?}, p = {}",
            outcome.p_value
        );
    } else {
        assert_eq!(hist_a, hist_b, "{label}: degenerate histograms must agree");
    }
}

#[test]
fn sharded_layout_distribution_is_history_and_schedule_free() {
    // Acceptance: the χ² comparison must pass across ≥ 3 shard counts.
    for shards in [2usize, 3, 5] {
        let mut hist = [[0u64; BUCKETS]; 4];
        for t in 0..TRIALS {
            let seed = 9_000_000 + t * 7 + shards as u64;
            let builds = [
                build_ascending(seed, shards),
                build_descending_with_churn(seed, shards),
                build_interleaved_batches(seed, shards),
                build_rotated_batches(seed, shards),
            ];
            let reference = builds[0].to_sorted_vec();
            for (h, d) in hist.iter_mut().zip(&builds) {
                assert_eq!(d.to_sorted_vec(), reference, "contents must agree");
                h[layout_bucket(d)] += 1;
            }
        }
        assert_same_distribution(
            &hist[0],
            &hist[1],
            &format!("S={shards}: ascending vs descending+churn"),
        );
        assert_same_distribution(
            &hist[0],
            &hist[2],
            &format!("S={shards}: ascending vs interleaved batches of 97"),
        );
        assert_same_distribution(
            &hist[0],
            &hist[3],
            &format!("S={shards}: ascending vs rotated batches of 13"),
        );
    }
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

#[test]
fn shard_density_distribution_survives_batched_churn() {
    // Sharded form of the secure-delete test: the per-shard slot density
    // (occupied / total slots, which tracks the secret capacity parameter
    // N̂) must be distributed identically whether the contents arrived
    // clean or through a batch storm with an insert-then-delete
    // episode. Compared as total-variation distance between the two
    // empirical density histograms, like the skip-list height test.
    let shards = 3usize;
    let trials = 1_000u64;
    let buckets = 16usize;
    let mut clean_hist = vec![0u64; buckets];
    let mut churn_hist = vec![0u64; buckets];
    let density_bucket = |d: &ShardedDict<DynDict<u64, u64>>| {
        let occupancy = d.shards()[0].occupancy().expect("HiPma occupancy");
        let occupied = occupancy.iter().filter(|&&b| b).count();
        ((occupied * buckets) / occupancy.len().max(1)).min(buckets - 1)
    };
    for t in 0..trials {
        let seed = 4_000_000 + t;
        let mut clean = service(seed, shards);
        clean.multi_put((0..KEYS).map(|k| (k * 3, k)));
        clean_hist[density_bucket(&clean)] += 1;

        let mut churn = service(seed + 500_000, shards);
        churn.multi_put((0..KEYS).map(|k| (k * 3, k)));
        churn.multi_put((0..EXTRA).map(|k| (3 * KEYS + k, k)));
        churn.multi_remove((0..EXTRA).map(|k| 3 * KEYS + k).collect::<Vec<_>>());
        churn_hist[density_bucket(&churn)] += 1;
    }
    let tv: f64 = clean_hist
        .iter()
        .zip(&churn_hist)
        .map(|(&a, &b)| (a as f64 - b as f64).abs())
        .sum::<f64>()
        / (2.0 * trials as f64);
    assert!(
        tv < 0.1,
        "density distributions differ: TV = {tv}, clean = {clean_hist:?}, churn = {churn_hist:?}"
    );
}
