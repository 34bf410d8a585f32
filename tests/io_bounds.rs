//! Integration tests of the I/O bounds (the theorems' *shape*, at test-sized
//! inputs): these are fast sanity checks; the full sweeps live in the
//! benchmark harnesses (`crates/bench/src/bin`).

use anti_persistence::dict::HiDict;
use anti_persistence::prelude::*;

#[test]
fn pma_range_query_is_scan_optimal() {
    // Theorem 1: Query(i, j) for k elements costs O(1 + k/B) I/Os given the
    // starting rank. Doubling k should roughly double the I/O count once k/B
    // dominates.
    let tracer = Tracer::enabled(IoConfig::new(4096, 1 << 15));
    let mut pma: HiPma<u64> = HiPma::with_parts(
        RngSource::from_seed(1),
        SharedCounters::new(),
        tracer.clone(),
        16,
    );
    for k in 0..40_000u64 {
        pma.insert(k as usize, k).unwrap();
    }
    let cost_of = |k: usize| {
        tracer.reset_cold();
        pma.range_query(10_000, 10_000 + k - 1).unwrap();
        tracer.stats().reads
    };
    let small = cost_of(1_000).max(1);
    let large = cost_of(16_000);
    let ratio = large as f64 / small as f64;
    assert!(
        ratio > 8.0 && ratio < 32.0,
        "16x larger range should cost ~16x more I/Os, got ratio {ratio} ({small} -> {large})"
    );
}

#[test]
fn skiplist_search_cost_grows_sublinearly() {
    // Theorem 3: searches cost O(log_B N) I/Os whp — quadrupling N must not
    // come close to quadrupling the per-search I/O count.
    let block = 64usize;
    let mut avg_cost = Vec::new();
    for &n in &[4_000u64, 16_000] {
        let mut list: ExternalSkipList<u64, u64> =
            ExternalSkipList::history_independent(block, 0.5, 7);
        for k in 0..n {
            list.insert(k, k);
        }
        let mut total = 0u64;
        let probes = 200u64;
        for i in 0..probes {
            list.get(&(i * (n / probes)));
            total += list.last_op_ios();
        }
        avg_cost.push(total as f64 / probes as f64);
    }
    assert!(
        avg_cost[1] < avg_cost[0] * 2.0,
        "4x data should not double search I/Os: {avg_cost:?}"
    );
}

#[test]
fn hi_skiplist_beats_folklore_bskiplist_on_search_tail() {
    // Lemma 15's practical consequence: the folklore B-skip list has a heavy
    // search-cost tail, the HI skip list does not.
    let block = 64usize;
    let n = 20_000u64;
    let mut hi: ExternalSkipList<u64, u64> = ExternalSkipList::history_independent(block, 0.5, 3);
    let mut folk: ExternalSkipList<u64, u64> = ExternalSkipList::folklore_b(block, 4);
    for k in 0..n {
        hi.insert(k, k);
        folk.insert(k, k);
    }
    let tail_cost = |list: &ExternalSkipList<u64, u64>| {
        let mut worst = 0u64;
        for k in (0..n).step_by(23) {
            list.get(&k);
            worst = worst.max(list.last_op_ios());
        }
        worst
    };
    let hi_worst = tail_cost(&hi);
    let folk_worst = tail_cost(&folk);
    assert!(
        hi_worst <= folk_worst,
        "HI worst-case search ({hi_worst}) should not exceed the folklore B-skip list's ({folk_worst})"
    );
}

#[test]
fn btree_and_hi_dict_search_io_are_comparable() {
    // Theorem 2: the HI cache-oblivious B-tree (the served `HiDict`) matches
    // a B-tree's I/O complexity up to constants when B = Ω(log N log log N).
    let n = 50_000u64;
    let block_bytes = 4096usize;
    // B-tree with ~256 records per node ≈ 4 KiB nodes.
    let mut bt: BTree<u64, u64> = BTree::new(256);
    for k in 0..n {
        bt.insert(k, k);
    }
    let tracer = Tracer::enabled(IoConfig::new(block_bytes, 1 << 14));
    let mut hi = HiDict::new(HiPma::with_parts(
        RngSource::from_seed(5),
        SharedCounters::new(),
        tracer.clone(),
        16,
    ));
    for k in 0..n {
        hi.insert(k, k);
    }
    // Average search I/Os.
    let probes: Vec<u64> = (0..n).step_by(991).collect();
    let mut bt_total = 0u64;
    for p in &probes {
        bt.get(p);
        bt_total += bt.last_op_ios();
    }
    tracer.reset_cold();
    for p in &probes {
        hi.get(p);
    }
    let hi_avg = tracer.stats().reads as f64 / probes.len() as f64;
    let bt_avg = bt_total as f64 / probes.len() as f64;
    assert!(
        hi_avg <= 12.0 * bt_avg.max(1.0),
        "cache-oblivious searches ({hi_avg}) should be within a constant factor of the B-tree ({bt_avg})"
    );
}

#[test]
fn observation1_whi_capacity_beats_canonical_capacity() {
    // Observation 1: under the alternating adversary a canonical (SHI-style)
    // capacity rule resizes every step, while the WHI rule almost never does.
    use hi_common::capacity::{HiCapacity, ShiCanonicalCapacity};
    let mut rng = RngSource::from_seed(9);
    let r = rng.rng();
    let n = 1 << 12;
    let mut whi = HiCapacity::new();
    for _ in 0..n {
        whi.on_insert(r);
    }
    let mut shi = ShiCanonicalCapacity::with_len(n);
    let mut whi_rebuilds = 0u64;
    let mut shi_rebuilds = 0u64;
    for i in 0..2_000u64 {
        if i % 2 == 0 {
            if whi.on_insert(r).is_rebuild() {
                whi_rebuilds += 1;
            }
            if shi.on_insert().is_rebuild() {
                shi_rebuilds += 1;
            }
        } else {
            if whi.on_delete(r).is_rebuild() {
                whi_rebuilds += 1;
            }
            if shi.on_delete().is_rebuild() {
                shi_rebuilds += 1;
            }
        }
    }
    assert_eq!(shi_rebuilds, 2_000, "the canonical rule must thrash");
    assert!(
        whi_rebuilds < 100,
        "the WHI rule should rebuild O(1/N) of the time, got {whi_rebuilds}"
    );
}
