//! Keyed reads against a `BTreeMap`, across the HI-PMA's geometry changes.
//!
//! `get_ref`, `successor` and `range_iter` take one descent of the value
//! tree, which reads no rank, search the landing leaf, and scan on from
//! there: a bound that lies past the landing leaf is answered by the scan,
//! with no second descent. Probing a balance element is that case every
//! time. The balance compares `Equal`, so the descent turns left at its
//! range and lands in a leaf whose elements are all smaller.
//!
//! One history drives the two keyed views of the HI-PMA up across N̂ = 128
//! and N̂ = 4096 and back down to empty: `RankedDict` (the served `HiDict`,
//! Theorem 2's cache-oblivious B-tree) and the `DynDict` facade. After every
//! step both views hold one layout, and each answers every stored key, every
//! gap key and every balance element as the oracle does.

use std::collections::BTreeMap;
use std::ops::Bound;

use anti_persistence::prelude::*;

const SEED: u64 = 0x4B45_5944;
/// Enough keys that N̂, uniform over `{N, …, 2N − 1}`, passes 4096.
const PEAK: usize = 4_400;
/// How many pairs of each scan are checked.
const SCAN: usize = 64;

type Ranked = RankedDict<HiPma<(u64, u64)>, u64, u64>;

/// splitmix64, for a reproducible key order.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key of the first element of every balance's right child: the
/// balance elements Lemma 9's representation reads, as keys.
fn balance_keys(pma: &HiPma<(u64, u64)>) -> Vec<u64> {
    let height = pma.geometry().height;
    let mut first_rank = vec![0usize];
    for leaf in pma.leaves() {
        first_rank.push(first_rank.last().unwrap() + leaf.len());
    }
    let pairs = pma.to_vec();
    pma.balance_records()
        .into_iter()
        .map(|r| {
            let leaves_below = 1usize << (height - r.depth);
            let first_leaf = (r.range + 1 - (1 << r.depth)) * leaves_below;
            let right_child = first_leaf + leaves_below / 2;
            pairs[first_rank[right_child]].0
        })
        .collect()
}

/// Checks one view's reads of `q` against the oracle.
fn check_reads<D: Dictionary<Key = u64, Value = u64>>(
    view: &str,
    d: &D,
    model: &BTreeMap<u64, u64>,
    q: u64,
) {
    assert_eq!(d.get_ref(&q), model.get(&q), "{view}: get_ref({q})");
    let succ = model.range(q..).next().map(|(k, v)| (*k, *v));
    assert_eq!(d.successor(&q), succ, "{view}: successor({q})");
    assert!(
        d.range_iter(q..).take(SCAN).eq(model.range(q..).take(SCAN)),
        "{view}: range_iter({q}..)"
    );
}

/// Probes every stored key, every gap key and every balance element through
/// both views; balance elements also start an excluded-bound scan.
fn probe_all(ranked: &Ranked, facade: &DynDict<u64, u64>, model: &BTreeMap<u64, u64>) {
    let balances = balance_keys(ranked.seq());
    // Stored keys are odd, so `k − 1` lies in the gap below `k`.
    let gaps = model
        .keys()
        .map(|k| k - 1)
        .chain([model.keys().last().map_or(0, |k| k + 1)]);
    let probes = model
        .keys()
        .copied()
        .chain(gaps)
        .chain(balances.iter().copied());
    for q in probes {
        check_reads("RankedDict", ranked, model, q);
        check_reads("DynDict", facade, model, q);
    }
    for &b in &balances {
        let range = (Bound::Excluded(b), Bound::Included(b + 400));
        let want: Vec<_> = model.range(range).take(SCAN).collect();
        assert!(
            ranked.range_iter(range).take(SCAN).eq(want.iter().copied()),
            "RankedDict: ({b}, {}]",
            b + 400
        );
        assert!(
            facade.range_iter(range).take(SCAN).eq(want.iter().copied()),
            "DynDict: ({b}, {}]",
            b + 400
        );
    }
}

#[test]
fn keyed_reads_match_the_oracle_across_height_steps_in_both_directions() {
    let mut ranked: Ranked = RankedDict::new(HiPma::new(SEED));
    let mut facade: DynDict<u64, u64> = Dict::builder().backend(Backend::HiPma).seed(SEED).build();
    let mut model = BTreeMap::new();
    let keys: Vec<u64> = (0..PEAK as u64)
        .map(|i| 2 * (mix(i) % (1 << 40)) + 1)
        .collect();
    // N̂ on each side of 128 and of 4096, going up and coming down.
    let mut seen = [[false; 3]; 2];
    let mut record = |n_hat: usize, down: usize| {
        seen[down][usize::from(n_hat >= 128) + usize::from(n_hat >= 4096)] = true;
    };

    let mut next = 0;
    while next < keys.len() {
        let step = (next / 8).clamp(1, keys.len() - next);
        for &k in &keys[next..next + step] {
            let v = mix(k);
            assert_eq!(ranked.insert(k, v), model.insert(k, v));
            facade.insert(k, v);
        }
        next += step;
        record(ranked.seq().n_hat(), 0);
        assert_eq!(
            facade.occupancy(),
            Some(ranked.seq().occupancy()),
            "one history, one layout"
        );
        probe_all(&ranked, &facade, &model);
    }
    let mut left = keys.len();
    while left > 0 {
        let step = (left / 8).clamp(1, left);
        for &k in &keys[left - step..left] {
            assert_eq!(ranked.remove(&k), model.remove(&k));
            facade.remove(&k);
        }
        left -= step;
        record(ranked.seq().n_hat(), 1);
        assert_eq!(
            facade.occupancy(),
            Some(ranked.seq().occupancy()),
            "one history, one layout"
        );
        probe_all(&ranked, &facade, &model);
    }
    assert_eq!(
        seen, [[true; 3]; 2],
        "the walk must cross N̂ = 128 and 4096 both ways"
    );
}

/// Counts the queries one call books into a ledger.
fn queries(counters: &SharedCounters, read: impl FnOnce()) -> u64 {
    let before = counters.snapshot();
    read();
    counters.snapshot().since(&before).queries
}

#[test]
fn a_keyed_read_counts_exactly_one_query() {
    // The builder shares one ledger between the keyed adapter and its PMA,
    // so a read counted at both layers would show here as two.
    for backend in [Backend::HiPma, Backend::ClassicPma] {
        let mut d: DynDict<u64, u64> = Dict::builder().backend(backend).seed(SEED).build();
        for k in 0..2_000u64 {
            d.insert(2 * k, k);
        }
        let c = d.counters().clone();
        assert_eq!(
            queries(&c, || assert_eq!(d.get_ref(&10), Some(&5))),
            1,
            "{backend} get_ref hit"
        );
        assert_eq!(
            queries(&c, || assert_eq!(d.get_ref(&11), None)),
            1,
            "{backend} get_ref miss"
        );
        assert_eq!(
            queries(&c, || assert_eq!(d.successor(&11), Some((12, 6)))),
            1,
            "{backend} successor"
        );
        assert_eq!(
            queries(&c, || assert_eq!(
                d.range_iter(101..).take(SCAN).count(),
                SCAN
            )),
            1,
            "{backend} range_iter"
        );
        assert_eq!(
            queries(&c, || assert_eq!(d.range_iter(..).count(), 2_000)),
            1,
            "{backend} full scan"
        );
        assert_eq!(
            queries(&c, || assert_eq!(d.range(&0, &9).len(), 5)),
            1,
            "{backend} range"
        );
    }
}
