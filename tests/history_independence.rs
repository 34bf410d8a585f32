//! Weak history independence, checked through Lemma 9 (paper §3.3): the
//! HI-PMA's layout is a fixed function R(N, N̂, balance elements), and the
//! inputs of R are uniform whatever the history.
//!
//! * The deterministic half holds `occupancy_words()` to
//!   `test_support::whi::lemma9_occupancy`, which is R written from the
//!   paper's formulas. It is checked after every step of a script that
//!   crosses both geometry boundaries and of the two `HiDict` histories,
//!   at the end of every trial, and on the FLUSH layout. A control moves one
//!   balance by one at several depths, and R must change.
//! * The random half pools every balance of every trial of four histories
//!   into one χ² test (`hi_common::stats::Pooled`): overall, per depth, and
//!   `N̂ − n` against U{0, …, n−1}. Two corrupted copies of the same records
//!   must be rejected: midpoint balances, and the last offset folded onto 0.
//!   A bias one history alone carries could hide in the pool, so the keyed
//!   histories, the drained one (per depth), a grow-then-shrink history and
//!   an insert/delete episode (capacity only) are also pooled on their own.

use anti_persistence::dict::HiDict;
use anti_persistence::pma::BalanceRecord;
use anti_persistence::prelude::*;
use hi_common::stats::{Pooled, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Arguments;
use std::sync::OnceLock;
use test_support::whi::lemma9_occupancy;
use workloads::{alternating_adversary, front_loaded_inserts, replay, Op, Trace};

/// R(N, N̂, `records`) for `pma`'s N and N̂.
fn lemma9<T: Clone + Default>(pma: &HiPma<T>, records: &[BalanceRecord]) -> (usize, Vec<u64>) {
    let balances = records.iter().map(|r| (r.range, r.window, r.offset));
    lemma9_occupancy(pma.len(), pma.n_hat(), balances)
}

/// Asserts that `pma`'s layout is R of its own balance records.
fn assert_lemma9<T: Clone + Default>(
    pma: &HiPma<T>,
    records: &[BalanceRecord],
    context: Arguments<'_>,
) {
    assert!(
        (pma.slot_count(), pma.occupancy_words()) == lemma9(pma, records),
        "{context}: the layout is not R(N = {}, N̂ = {}, balances)",
        pma.len(),
        pma.n_hat()
    );
}

#[test]
fn every_step_across_both_geometry_boundaries_is_lemma9() {
    // Random ranks, growing past N̂ = 4096 (the paper's constants) and then
    // shrinking below N̂ = 128 (one leaf): both boundaries, both directions.
    let mut rng = StdRng::seed_from_u64(0x1E449);
    let mut pma: HiPma<u64> = HiPma::new(0x1E449);
    let regime = |n_hat: usize| usize::from(n_hat >= 128) + usize::from(n_hat >= 4096);
    let mut crossings = BTreeSet::new();
    for step in 0..12_000u64 {
        let before = regime(pma.n_hat());
        let p_insert = if step < 6_000 { 0.8 } else { 0.2 };
        if pma.is_empty() || rng.gen_bool(p_insert) {
            pma.insert(rng.gen_range(0..=pma.len()), step).unwrap();
        } else {
            pma.delete(rng.gen_range(0..pma.len())).unwrap();
        }
        assert_lemma9(&pma, &pma.balance_records(), format_args!("step {step}"));
        crossings.insert((before, regime(pma.n_hat())));
    }
    for crossing in [(0, 1), (1, 2), (2, 1), (1, 0)] {
        assert!(crossings.contains(&crossing), "never crossed {crossing:?}");
    }
}

#[test]
fn the_flush_layout_is_lemma9() {
    // `pma::persist`'s lengths: word boundaries and both sides of height steps.
    let lens = [0, 1, 2, 63, 64, 65, 1_000, 65_536, 65_537, 140_046, 140_047];
    for seed in [1u64, 0xA5EED, u64::MAX] {
        for len in lens {
            let mut unit = HiPma::<()>::new(seed);
            unit.bulk_load(std::iter::repeat_n((), len), seed);
            let (slots, words) = lemma9(&unit, &unit.balance_records());
            assert!(
                HiPma::<u64>::canonical_occupancy(len, seed) == (slots as u64, words),
                "len {len} seed {seed}"
            );
        }
    }
}

#[test]
fn moving_one_balance_by_one_changes_r() {
    let mut pma: HiPma<u64> = HiPma::new(7);
    pma.bulk_load(0..20_000u64, 7);
    let records = pma.balance_records();
    assert_lemma9(&pma, &records, format_args!("unmoved"));
    let layout = (pma.slot_count(), pma.occupancy_words());
    let mut depths = BTreeSet::new();
    for (i, r) in records.iter().enumerate() {
        if r.window < 2 || !depths.insert(r.depth) {
            continue;
        }
        let mut moved = records.clone();
        moved[i].offset = if r.offset + 1 < r.window {
            r.offset + 1
        } else {
            r.offset - 1
        };
        assert!(
            lemma9(&pma, &moved) != layout,
            "depth {}: R did not move",
            r.depth
        );
    }
    assert!(depths.len() >= 3, "depths tried: {depths:?}");
}

/// What the trials of one history observed: `(depth, window, offset)` per
/// balance and `(n, N̂)` per structure.
#[derive(Default)]
struct Samples {
    balances: Vec<(usize, usize, usize)>,
    capacities: Vec<(usize, usize)>,
}

impl Samples {
    /// Holds `pma` to R, then records its balances and capacity.
    fn observe<T: Clone + Default>(&mut self, pma: &HiPma<T>, history: &str, trial: u64) {
        let records = pma.balance_records();
        assert_lemma9(pma, &records, format_args!("{history}, trial {trial}"));
        self.balances
            .extend(records.iter().map(|r| (r.depth, r.window, r.offset)));
        self.capacities.push((pma.len(), pma.n_hat()));
    }
}

/// The pooled report of `histories`, every offset replaced by
/// `offset(window, offset)`.
fn pool<'a>(
    histories: impl IntoIterator<Item = &'a Samples>,
    offset: impl Fn(usize, usize) -> usize,
) -> Report {
    let mut pooled = Pooled::new(0x0DD_BA11);
    for samples in histories {
        for &(depth, window, o) in &samples.balances {
            pooled.balance(depth, window, offset(window, o));
        }
        for &(n, n_hat) in &samples.capacities {
            pooled.capacity(n, n_hat);
        }
    }
    pooled.report()
}

/// Reverse inserts, then an insert/delete burst above them, keyed.
fn reverse_and_burst() -> Trace {
    let mut trace = front_loaded_inserts(2_000);
    trace.ops.extend((2_001..2_400).map(|k| Op::Insert(k, k)));
    trace.ops.extend((2_001..2_400).map(Op::Delete));
    trace
}

/// Observation 1: one key inserted and deleted over and over.
fn alternation() -> Trace {
    alternating_adversary(2_000, 1_001)
}

/// Indices into [`four_histories`].
const SEQUENTIAL: usize = 0;
const REVERSE_AND_BURST: usize = 1;
const FRONT_DRAIN: usize = 2;
const ALTERNATION: usize = 3;

/// 200 trials of each of four histories, every trial's structure held to R:
/// built once and shared by the tests that pool them.
fn four_histories() -> &'static [Samples; 4] {
    static SAMPLES: OnceLock<[Samples; 4]> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let mut samples: [Samples; 4] = Default::default();
        let (reverse, alternating) = (reverse_and_burst(), alternation());
        for t in 0..200u64 {
            // §4.3's protocol: sequential inserts.
            let mut sequential: HiPma<u64> = HiPma::new((1 << 32) | t);
            for k in 0..4_000 {
                sequential.insert(k, k as u64).unwrap();
            }
            samples[SEQUENTIAL].observe(&sequential, "sequential inserts", t);

            let mut hi = HiDict::new(HiPma::new((2 << 32) | t));
            replay(&reverse, &mut hi);
            samples[REVERSE_AND_BURST].observe(hi.seq(), "reverse inserts + burst", t);

            // `bulk_load`, then a one-sided drain from the front.
            let mut drained: HiPma<u64> = HiPma::new(0);
            drained.bulk_load(0..30_000u64, (3 << 32) | t);
            for _ in 0..7_500 {
                drained.delete(0).unwrap();
            }
            samples[FRONT_DRAIN].observe(&drained, "bulk_load + front drain", t);

            let mut hi = HiDict::new(HiPma::new((4 << 32) | t));
            replay(&alternating, &mut hi);
            samples[ALTERNATION].observe(hi.seq(), "Observation 1 alternation", t);
        }
        samples
    })
}

#[test]
fn balances_and_capacity_are_uniform_over_four_histories() {
    let samples = four_histories();
    let report = pool(samples, |_, offset| offset);
    assert!(report.balances >= 100_000, "{report}");
    assert!(report.tests.len() >= 10, "{report}");
    assert!(!report.rejects(0.01), "{report}");
    let midpoint = pool(samples, |window, _| window / 2);
    assert!(
        midpoint.rejects(0.01),
        "midpoint balances passed: {midpoint}"
    );
    let folded = pool(samples, |window, o| if o + 1 == window { 0 } else { o });
    assert!(folded.rejects(0.01), "folded last offsets passed: {folded}");
}

#[test]
fn hi_dict_layout_distribution_is_history_free() {
    // The layout is R after every operation of both keyed histories, and
    // their balances and capacities, pooled apart from the others, are
    // uniform: so the layout's distribution is R's over uniform inputs.
    for (name, trace) in [
        ("reverse inserts + burst", reverse_and_burst()),
        ("alternation", alternation()),
    ] {
        for t in 0..2u64 {
            let mut hi = HiDict::new(HiPma::new((5 << 32) | t));
            for (step, op) in trace.ops.iter().enumerate() {
                match *op {
                    Op::Insert(k, v) => {
                        hi.insert(k, v);
                    }
                    Op::Delete(k) => {
                        hi.remove(&k);
                    }
                    _ => unreachable!("insert/delete traces only"),
                }
                let pma = hi.seq();
                assert_lemma9(
                    pma,
                    &pma.balance_records(),
                    format_args!("{name}, trial {t}, step {step}"),
                );
            }
        }
    }
    let samples = four_histories();
    let report = pool(
        [&samples[REVERSE_AND_BURST], &samples[ALTERNATION]],
        |_, o| o,
    );
    assert!(report.tests.len() >= 5, "{report}");
    assert!(!report.rejects(0.01), "{report}");
}

#[test]
fn balance_elements_stay_uniform_at_every_depth_that_draws_a_coin() {
    // The drained history alone: N̂ ≥ 22 500 gives the range tree eight or
    // nine levels, and every level whose window holds a choice gets its own
    // sub-test, down to the deepest.
    let drained = &four_histories()[FRONT_DRAIN];
    let report = pool([drained], |_, o| o);
    let coin_depths: BTreeSet<usize> = drained
        .balances
        .iter()
        .filter(|&&(_, window, _)| window >= 2)
        .map(|&(depth, _, _)| depth)
        .collect();
    assert!(
        coin_depths.len() >= 8,
        "depths drawing a coin: {coin_depths:?}"
    );
    for depth in coin_depths {
        let name = format!("depth {depth}");
        assert!(
            report.tests.iter().any(|(test, _, _)| *test == name),
            "{name} has no sub-test: {report}"
        );
    }
    assert!(!report.rejects(0.01), "{report}");
}

#[test]
fn balance_elements_stay_uniform_after_a_long_history() {
    // A fifth history, pooled on its own: grow to 600, then delete the
    // first half in descending rank order, every structure held to R.
    let mut samples = Samples::default();
    for t in 0..600u64 {
        let mut pma: HiPma<u64> = HiPma::new(7_000_000 + t);
        for k in 0..600 {
            pma.insert(k, k as u64).unwrap();
        }
        for k in (0..300).rev() {
            pma.delete(k).unwrap();
        }
        samples.observe(&pma, "grow then delete half", t);
    }
    let report = pool([&samples], |_, o| o);
    assert!(report.balances >= 4_000, "{report}");
    assert!(!report.rejects(0.01), "{report}");
}

#[test]
fn balance_elements_stay_uniform_when_every_insert_lands_in_the_middle() {
    // A sixth history, pooled on its own: 1 000 inserts, each at rank n/2,
    // so every newcomer lands inside the root's candidate window. A
    // reservoir that let the newcomer win more often than 1/|M| would pile
    // the root's balance onto the last arrivals; one root per trial gives
    // depth 0 its 4 000 samples.
    let mut samples = Samples::default();
    for t in 0..4_000u64 {
        let mut pma: HiPma<u64> = HiPma::new((6 << 32) | t);
        for k in 0..1_000 {
            pma.insert(pma.len() / 2, k).unwrap();
        }
        samples.observe(&pma, "centre inserts", t);
    }
    let report = pool([&samples], |_, o| o);
    let root = report.tests.iter().find(|(name, _, _)| name == "depth 0");
    assert!(root.is_some_and(|&(_, n, _)| n >= 4_000), "{report}");
    assert!(!report.rejects(0.01), "{report}");
}

#[test]
fn secure_delete_leaves_no_trace_in_capacity() {
    // After inserting and deleting a batch, N̂ must be distributed exactly as
    // if the batch never existed: uniform over {N, …, 2N−1}. Each history
    // is tested on its own against the exact uniform distribution.
    let n = 64u64;
    let (mut clean, mut episodic) = (Samples::default(), Samples::default());
    for t in 0..4_000u64 {
        let mut a = HiDict::new(HiPma::new(3_000_000 + t));
        for k in 0..n {
            a.insert(k, k);
        }
        clean.observe(a.seq(), "clean", t);

        let mut b = HiDict::new(HiPma::new(4_000_000 + t));
        for k in 0..n + 40 {
            b.insert(k, k);
        }
        for k in n..n + 40 {
            b.remove(&k);
        }
        episodic.observe(b.seq(), "insert/delete episode", t);
    }
    for (name, samples) in [("clean history", clean), ("episodic history", episodic)] {
        let report = pool([&samples], |_, o| o);
        assert_eq!(report.tests.len(), 1, "{name}: only N̂ − n runs: {report}");
        assert!(!report.rejects(0.01), "{name}: capacity leaks: {report}");
    }
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
