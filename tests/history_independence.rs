//! Integration tests of the workspace's central claim: weak history
//! independence. Two operation sequences that reach the same logical state
//! must induce the same *distribution* over memory representations.
//!
//! The tests build the same final contents through different histories over
//! many independent seeds and compare layout statistics with a χ² test
//! (the same methodology as the paper's §4.3 experiment). Thresholds are
//! deliberately generous so the tests are stable in CI while still catching
//! real leaks (the classic PMA fails the analogous check deterministically —
//! see the `classic_pma_layout_leaks_history` test in the `pma` crate).

use anti_persistence::prelude::*;
use hi_common::stats::chi2::chi2_gof;

/// Returns the index of the first occupied slot, bucketed into `buckets`
/// equal parts of the array — a coarse layout fingerprint.
fn layout_bucket(occupancy: &[bool], buckets: usize) -> usize {
    let pos = occupancy.iter().position(|&b| b).unwrap_or(0);
    (pos * buckets / occupancy.len()).min(buckets - 1)
}

/// Builds the set {0, …, n−1} in the HI cache-oblivious B-tree via history A
/// (ascending inserts) and history B (descending inserts, plus an
/// insert-then-delete episode for keys n..n+extra), and χ²-compares the
/// layout-fingerprint distributions.
fn compare_histories(n: u64, extra: u64, trials: u64, buckets: usize) -> (Vec<u64>, Vec<u64>) {
    let mut hist_a = vec![0u64; buckets];
    let mut hist_b = vec![0u64; buckets];
    for t in 0..trials {
        let mut a: CobBTree<u64, u64> = CobBTree::new(1_000_000 + t);
        for k in 0..n {
            a.insert(k, k);
        }
        let mut b: CobBTree<u64, u64> = CobBTree::new(2_000_000 + t);
        for k in (0..n).rev() {
            b.insert(k, k);
        }
        for k in n..n + extra {
            b.insert(k, k);
        }
        for k in n..n + extra {
            b.remove(&k);
        }
        assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
        hist_a[layout_bucket(&a.occupancy(), buckets)] += 1;
        hist_b[layout_bucket(&b.occupancy(), buckets)] += 1;
    }
    (hist_a, hist_b)
}

#[test]
fn cob_btree_layout_distribution_is_history_free() {
    let (hist_a, hist_b) = compare_histories(300, 60, 400, 6);
    // Treat history A's histogram (scaled) as the expected distribution for
    // history B. Merge tiny buckets to keep the test valid.
    let mut observed = Vec::new();
    let mut expected = Vec::new();
    for (a, b) in hist_a.iter().zip(&hist_b) {
        if *a >= 20 {
            expected.push(*a as f64);
            observed.push(*b);
        }
    }
    if observed.len() >= 2 {
        let outcome = chi2_gof(&observed, &expected);
        assert!(
            outcome.p_value > 1e-4,
            "layout distributions differ: A = {hist_a:?}, B = {hist_b:?}, p = {}",
            outcome.p_value
        );
    } else {
        // Everything landed in one bucket for both histories — identical
        // distributions trivially.
        assert_eq!(hist_a, hist_b);
    }
}

#[test]
fn secure_delete_leaves_no_trace_in_capacity() {
    // After inserting and deleting a batch, N̂ must be distributed exactly as
    // if the batch never existed: uniform over {N, …, 2N−1}.
    let n = 64usize;
    let trials = 4_000u64;
    let mut with_episode = vec![0u64; n];
    let mut without = vec![0u64; n];
    for t in 0..trials {
        let mut clean: CobBTree<u64, u64> = CobBTree::new(3_000_000 + t);
        for k in 0..n as u64 {
            clean.insert(k, k);
        }
        without[clean.pma().n_hat() - n] += 1;

        let mut episodic: CobBTree<u64, u64> = CobBTree::new(4_000_000 + t);
        for k in 0..(n as u64 + 40) {
            episodic.insert(k, k);
        }
        for k in n as u64..(n as u64 + 40) {
            episodic.remove(&k);
        }
        with_episode[episodic.pma().n_hat() - n] += 1;
    }
    // Both histories must produce N̂ uniform over {N, …, 2N−1}; test each
    // against the exact uniform distribution (comparing against the other
    // empirical sample would double-count sampling noise).
    let clean_outcome = hi_common::stats::chi2::chi2_gof_uniform(&without);
    let episodic_outcome = hi_common::stats::chi2::chi2_gof_uniform(&with_episode);
    assert!(
        clean_outcome.p_value > 1e-4,
        "clean-history capacity not uniform: p = {}",
        clean_outcome.p_value
    );
    assert!(
        episodic_outcome.p_value > 1e-4,
        "capacity distribution leaks the episode: p = {}",
        episodic_outcome.p_value
    );
}

#[test]
fn skip_list_heights_do_not_leak_history() {
    // The HI skip list's height depends only on the key set's coin flips;
    // compare the height distribution across two histories.
    let n = 400u64;
    let trials = 300u64;
    let mut heights_a = std::collections::HashMap::new();
    let mut heights_b = std::collections::HashMap::new();
    for t in 0..trials {
        let mut a: ExternalSkipList<u64, u64> =
            ExternalSkipList::history_independent(16, 0.5, 5_000_000 + t);
        for k in 0..n {
            a.insert(k, k);
        }
        let mut b: ExternalSkipList<u64, u64> =
            ExternalSkipList::history_independent(16, 0.5, 6_000_000 + t);
        for k in (0..n).rev() {
            b.insert(k, k);
        }
        for k in n..n + 100 {
            b.insert(k, k);
            b.remove(&k);
        }
        *heights_a.entry(a.height()).or_insert(0u64) += 1;
        *heights_b.entry(b.height()).or_insert(0u64) += 1;
    }
    // The two height distributions must essentially coincide. Comparing
    // modes is brittle when two heights are (near-)equally likely, so use
    // the total-variation distance between the empirical distributions.
    let all_heights: std::collections::BTreeSet<usize> =
        heights_a.keys().chain(heights_b.keys()).copied().collect();
    let tv: f64 = all_heights
        .iter()
        .map(|h| {
            let a = *heights_a.get(h).unwrap_or(&0) as f64 / trials as f64;
            let b = *heights_b.get(h).unwrap_or(&0) as f64 / trials as f64;
            (a - b).abs()
        })
        .sum::<f64>()
        / 2.0;
    assert!(
        tv < 0.2,
        "height distributions differ: TV = {tv}, {heights_a:?} vs {heights_b:?}"
    );
}

#[test]
fn balance_elements_stay_uniform_after_a_long_history() {
    // Invariant 6 end-to-end: after a long mixed history, the balance
    // elements recorded across seeds are uniform over their candidate sets.
    //
    // Windows of different sizes are folded into a fixed number of buckets;
    // because a window of size w does not split evenly into `buckets` parts,
    // the correct expected count per bucket is accumulated per record (the
    // fraction of the w offsets that map into that bucket), not assumed
    // uniform.
    let trials = 600u64;
    let n = 600usize;
    let buckets = 8usize;
    let mut observed = vec![0u64; buckets];
    let mut expected = vec![0f64; buckets];
    for t in 0..trials {
        let mut pma: HiPma<u64> = HiPma::new(7_000_000 + t);
        for k in 0..n {
            pma.insert(k, k as u64).unwrap();
        }
        for k in (0..n / 2).rev() {
            pma.delete(k).unwrap();
        }
        for r in pma.balance_records() {
            if r.window >= 8 {
                observed[r.offset * buckets / r.window] += 1;
                for offset in 0..r.window {
                    expected[offset * buckets / r.window] += 1.0 / r.window as f64;
                }
            }
        }
    }
    let total: u64 = observed.iter().sum();
    assert!(total > 500, "not enough samples: {observed:?}");
    let outcome = chi2_gof(&observed, &expected);
    assert!(
        outcome.p_value > 1e-4,
        "balance offsets deviate from uniform: {observed:?} vs expected {expected:?}, p = {}",
        outcome.p_value
    );
}

#[test]
fn balance_elements_stay_uniform_at_every_depth_that_draws_a_coin() {
    // The test above samples windows ≥ 8 at n = 600, which under the
    // shorter range tree is the top three internal levels. This one is large
    // enough (15 000 ≤ N̂ < 30 000: paper constants, height 8) to give every
    // internal depth its own χ², down to the deepest, whose candidate set
    // has 5–8 elements — so every level that still draws a coin is covered.
    // Fewer trials suffice: a trial yields 2^d records at depth d.
    let trials = 96u64;
    let n = 20_000usize;
    // Per depth, counted from the leaves up: (observed, expected).
    let mut by_depth: Vec<(Vec<u64>, Vec<f64>)> = Vec::new();
    let mut deepest_windows = std::collections::BTreeSet::new();
    for t in 0..trials {
        let mut pma: HiPma<u64> = HiPma::new(9_000_000 + t);
        for k in 0..n {
            pma.insert(k, k as u64).unwrap();
        }
        // A one-sided episode: drain a quarter from the front, the history
        // an unbalanced structure would remember.
        for _ in 0..n / 4 {
            pma.delete(0).unwrap();
        }
        let height = pma.geometry().height;
        for r in pma.balance_records() {
            let above_leaves = (height - 1 - r.depth) as usize;
            let buckets = if above_leaves == 0 { 4 } else { 8 };
            if by_depth.len() <= above_leaves {
                by_depth.resize(above_leaves + 1, (Vec::new(), Vec::new()));
            }
            let (observed, expected) = &mut by_depth[above_leaves];
            observed.resize(buckets, 0);
            expected.resize(buckets, 0.0);
            if above_leaves == 0 {
                deepest_windows.insert(r.window);
            }
            observed[r.offset * buckets / r.window] += 1;
            for offset in 0..r.window {
                expected[offset * buckets / r.window] += 1.0 / r.window as f64;
            }
        }
    }
    assert!(
        deepest_windows.iter().all(|w| (5..=8).contains(w)),
        "deepest candidate sets: {deepest_windows:?}"
    );
    assert_eq!(by_depth.len(), 8, "internal depths");
    for (above_leaves, (observed, expected)) in by_depth.iter().enumerate() {
        // At least the root's one record per trial.
        assert!(observed.iter().sum::<u64>() >= trials, "{observed:?}");
        let outcome = chi2_gof(observed, expected);
        assert!(
            outcome.p_value > 1e-4,
            "{above_leaves} levels above the leaves: balance offsets deviate from uniform: \
             {observed:?} vs expected {expected:?}, p = {}",
            outcome.p_value
        );
    }
}
