//! The paper's evaluation as one registry of anchors.
//!
//! Each [`Anchor`] is one figure, table or theorem of the paper: an
//! experiment `run(size)` and a `verdict` that reads its rows and says
//! whether the paper's claim holds. Each entry also records the outcome this
//! reproduction expects, so [`Anchor::check`] fails both when a claim that
//! held breaks and when a recorded deviation disappears.
//!
//! `size` is Figure 2's insert count ([`DEFAULT_SIZE`] × `AP_BENCH_SCALE` in
//! the `paper` runner); every anchor sizes its inputs from it. Verdicts read
//! counts, never wall-clock time, except the runtime table's, whose
//! predicate (HI slower than classic) has a margin timing noise cannot close.

use crate::{timed, Row};
use btree::BTree;
use hi_common::capacity::{HiCapacity, ShiCanonicalCapacity};
use hi_common::stats::{uniformity_of_p_values, Pooled, Summary};
use hi_common::{Dictionary, RankedDict, RngSource, SharedCounters};
use io_sim::{IoConfig, Tracer};
use pma::fenwick::Fenwick;
use pma::{ClassicPma, HiPma};
use skiplist::ExternalSkipList;
use workloads::{random_inserts, Op, Trace};
use Expected::Holds;

/// Figure 2's insert count at `AP_BENCH_SCALE=1`.
pub const DEFAULT_SIZE: usize = 200_000;

/// The outcome the registry records for an anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// The paper's claim holds.
    Holds,
    /// The claim fails, for the reason on file in `DESIGN.md` or `ROADMAP.md`.
    Deviates(&'static str),
}

/// Whether the paper's claim holds, and the sentence that gives the evidence.
pub type Verdict = (bool, String);

/// One paper anchor: an experiment and the predicate that judges it.
pub struct Anchor {
    /// Name on the runner's command line.
    pub name: &'static str,
    /// The part of the paper it reproduces.
    pub section: &'static str,
    /// Runs the experiment at `size` (see the module docs).
    pub run: fn(usize) -> Vec<Row>,
    /// Judges the rows `run` returned.
    pub verdict: fn(&[Row]) -> Verdict,
    /// The outcome this reproduction records.
    pub expected: Expected,
}

impl Anchor {
    /// `Ok` when `verdict` agrees with [`Anchor::expected`], else why not.
    pub fn check(&self, verdict: &Verdict) -> Result<(), String> {
        match (self.expected, verdict.0) {
            (Holds, true) | (Expected::Deviates(_), false) => Ok(()),
            (Holds, false) => Err(format!("{}: recorded as holding, broke", self.name)),
            (Expected::Deviates(why), true) => Err(format!(
                "{}: recorded as a deviation ({why}), now holds: update the record",
                self.name
            )),
        }
    }
}

const fn entry(
    name: &'static str,
    section: &'static str,
    run: fn(usize) -> Vec<Row>,
    verdict: fn(&[Row]) -> Verdict,
    expected: Expected,
) -> Anchor {
    Anchor {
        name,
        section,
        run,
        verdict,
        expected,
    }
}

const ITEM_3: Expected = Expected::Deviates("ROADMAP item 3; DESIGN.md \"Deliberate deviations\"");
const ITEM_10: Expected =
    Expected::Deviates("ROADMAP item 10; DESIGN.md \"Deliberate deviations\"");

/// Every anchor of the paper's evaluation.
pub const ANCHORS: &[Anchor] = &[
    entry("fig2", "Figure 2", fig2, fig2_verdict, ITEM_3),
    entry("space", "§4.3 space table", space, space_verdict, ITEM_10),
    entry(
        "overhead",
        "§4.3 runtime",
        overhead,
        overhead_verdict,
        Holds,
    ),
    entry("chi2", "§4.3 χ² experiment", chi2, chi2_verdict, Holds),
    entry("thm1", "Theorem 1", thm1, thm1_verdict, Holds),
    entry("thm2", "Theorem 2", thm2, thm2_verdict, Holds),
    entry("thm3", "Theorem 3", thm3, thm3_verdict, Holds),
    entry("obs1", "Observation 1", obs1, obs1_verdict, Holds),
    entry("lemma15", "Lemma 15", lemma15, lemma15_verdict, Holds),
];

/// Looks an anchor up by name.
pub fn anchor(name: &str) -> Option<&'static Anchor> {
    ANCHORS.iter().find(|a| a.name == name)
}

/// Each insert of `trace` as (rank it lands at, key): one Fenwick count over
/// the sorted distinct keys, `O(n log n)`.
pub fn rank_trace(trace: &Trace) -> Vec<(usize, u64)> {
    let keys: Vec<u64> = trace
        .ops
        .iter()
        .map(|op| match op {
            Op::Insert(key, _) => *key,
            other => panic!("rank_trace takes inserts only, got {other:?}"),
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let mut present = Fenwick::new(sorted.len());
    keys.into_iter()
        .map(|key| {
            let i = sorted.partition_point(|k| *k < key);
            present.add(i, 1);
            (present.prefix_sum(i) as usize, key)
        })
        .collect()
}

/// The `(x, y)` of every row of `series`, in row order.
fn points(rows: &[Row], series: &str) -> Vec<(f64, f64)> {
    rows.iter()
        .filter(|r| r.series == series)
        .map(|r| (r.x, r.y))
        .collect()
}

/// The `y` of every row of `series`, in row order.
fn ys(rows: &[Row], series: &str) -> Vec<f64> {
    points(rows, series).into_iter().map(|p| p.1).collect()
}

/// Smallest and largest of `values`.
fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Least-squares slope of `ln y` against `ln x` over the rows of `series`.
fn log_log_slope(rows: &[Row], series: &str) -> f64 {
    let logs: Vec<(f64, f64)> = points(rows, series)
        .iter()
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    cov / logs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum::<f64>()
}

/// Simulated block size, and bytes per record, of the I/O anchors.
const BLOCK_BYTES: usize = 4096;
const RECORD_BYTES: usize = 16;

/// A tracer whose cache holds an eighth of `bytes`: at most an eighth of a
/// structure of `bytes` or more.
fn eighth_cache(bytes: usize) -> Tracer {
    Tracer::enabled(IoConfig::new(BLOCK_BYTES, (bytes / 8 / BLOCK_BYTES).max(1)))
}

/// The transfers of `probes` operations, each from a cold cache.
fn cold_costs(tracer: &Tracer, probes: u64, mut op: impl FnMut(u64)) -> Summary {
    let costs: Vec<u64> = (0..probes)
        .map(|i| {
            tracer.reset_cold();
            op(i);
            tracer.stats().transfers()
        })
        .collect();
    Summary::of_counts(&costs).unwrap()
}

const MOVES: &str = "normalized moves";
const SLOTS: &str = "slots per element";

/// Figure 2's run: `size` random inserts (seed 42) into both PMAs, sampled
/// at 40 checkpoints; keeps the rows of `metric`.
fn insert_run(size: usize, metric: &str) -> Vec<Row> {
    let (mut hi, mut classic) = (HiPma::new(1), ClassicPma::new());
    let checkpoint = (size / 40).max(1);
    let mut rows = Vec::new();
    let trace = rank_trace(&random_inserts(size, 42));
    for (i, &(rank, key)) in trace.iter().enumerate() {
        hi.insert(rank, key).unwrap();
        classic.insert(rank, key).unwrap();
        let x = (i + 1) as f64;
        if (i + 1) % checkpoint == 0 || i + 1 == size {
            let norm = x * x.log2().powi(2);
            let moves = |c: &SharedCounters| c.snapshot().element_moves as f64 / norm;
            let mut push = |series: &str, y: f64, metric: &str| {
                rows.push(Row::new(series, x, y, metric));
            };
            push("HIPMA moves/(n log^2 n)", moves(hi.counters()), MOVES);
            push("PMA moves/(n log^2 n)", moves(classic.counters()), MOVES);
            push("HI PMA slots/N", hi.total_slots() as f64 / x, SLOTS);
            push(
                "classic PMA slots/N",
                classic.total_slots() as f64 / x,
                SLOTS,
            );
        }
    }
    rows.retain(|r| r.metric == metric);
    rows
}

/// Normalised element moves of Figure 2.
fn fig2(size: usize) -> Vec<Row> {
    insert_run(size, MOVES)
}

/// The paper draws the HI curve a small constant factor above the classic
/// one; "small" is read as at most 5× at the last checkpoint.
fn fig2_verdict(rows: &[Row]) -> Verdict {
    let hi = *ys(rows, "HIPMA moves/(n log^2 n)").last().unwrap();
    let classic = *ys(rows, "PMA moves/(n log^2 n)").last().unwrap();
    let ratio = hi / classic;
    let says = format!("HI/classic moves / (n log² n) at the end: {hi:.3}/{classic:.3} = {ratio:.1}× (paper: a small constant, read as ≤ 5×)");
    (ratio <= 5.0, says)
}

/// Allocated slots per element over Figure 2's run.
fn space(size: usize) -> Vec<Row> {
    insert_run(size, SLOTS)
}

fn space_verdict(rows: &[Row]) -> Verdict {
    let (min, max) = min_max(&ys(rows, "HI PMA slots/N"));
    let says = format!("HI PMA slots/N ranges over [{min:.2}, {max:.2}] (paper: 1.8× to 5×)");
    (max <= 5.0, says)
}

/// Wall-clock of one rank trace (seed 7) into each PMA at three sizes, the
/// best of three runs a side.
fn overhead(size: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [size / 4, size / 2, size] {
        let ranks = rank_trace(&random_inserts(n, 7));
        let best_of_three = |insert_all: &dyn Fn() -> usize| {
            (0..3).map(|_| timed(insert_all).1).fold(f64::MAX, f64::min)
        };
        let hi = best_of_three(&|| {
            let mut hi = HiPma::new(1);
            for &(rank, key) in &ranks {
                hi.insert(rank, key).unwrap();
            }
            hi.len()
        });
        let classic = best_of_three(&|| {
            let mut classic = ClassicPma::new();
            for &(rank, key) in &ranks {
                classic.insert(rank, key).unwrap();
            }
            classic.len()
        });
        let mut push = |series: &str, y: f64| rows.push(Row::new(series, n as f64, y, "seconds"));
        push("HI PMA (s)", hi);
        push("classic PMA (s)", classic);
        push("overhead factor", hi / classic);
    }
    rows
}

fn overhead_verdict(rows: &[Row]) -> Verdict {
    let (low, high) = min_max(&ys(rows, "overhead factor"));
    let says = format!("HI/classic insert runtime is {low:.2}×–{high:.2}× (paper: ~7×; the predicate asks HI ≥ classic)");
    (low >= 1.0, says)
}

/// Seeds and trials per seed of the χ² experiment, and each seed's level.
const CHI2_SEEDS: u64 = 100;
const CHI2_TRIALS: u64 = 100;
const ALPHA: f64 = 0.01;

/// `size / 20` sequential inserts into a fresh HI PMA, 100 trials per seed,
/// every balance pooled into one χ² family per seed (`Pooled`, which
/// `tests/history_independence.rs` gates on): one row per seed of its
/// balances, overall p, and whether it rejects at α (Bonferroni).
fn chi2(size: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for seed in 0..CHI2_SEEDS {
        let mut pooled = Pooled::new(seed);
        for t in 0..CHI2_TRIALS {
            let mut pma = HiPma::new(0x5EED_0000 + seed * CHI2_TRIALS + t);
            for v in 0..size / 20 {
                pma.insert(v, v as u64).unwrap();
            }
            for r in pma.balance_records() {
                pooled.balance(r.depth, r.window, r.offset);
            }
            pooled.capacity(pma.len(), pma.n_hat());
        }
        let report = pooled.report();
        let mut push =
            |series: &str, y: f64| rows.push(Row::new(series, seed as f64, y, "per seed"));
        push("balances", report.balances as f64);
        push("overall p", report.tests[0].2);
        push("rejects", f64::from(u8::from(report.rejects(ALPHA))));
    }
    rows
}

/// Most seeds a calibrated family rejects with probability ≥ 1 − α: the
/// upper α-quantile of Binomial(seeds, α).
fn rejections_allowed(seeds: u64) -> u64 {
    let (n, mut pmf, mut cdf) = (seeds as f64, (1.0 - ALPHA).powi(seeds as i32), 0.0);
    (0..seeds)
        .find(|&r| {
            cdf += pmf;
            pmf *= (n - r as f64) / (r as f64 + 1.0) * ALPHA / (1.0 - ALPHA);
            cdf >= 1.0 - ALPHA
        })
        .unwrap_or(seeds)
}

/// No more seeds reject than Binomial(100, α) allows, and the seeds' overall
/// p-values are themselves uniform (the paper's second stage) at p ≥ α.
fn chi2_verdict(rows: &[Row]) -> Verdict {
    let rejected = ys(rows, "rejects").iter().sum::<f64>() as u64;
    let allowed = rejections_allowed(CHI2_SEEDS);
    let meta = uniformity_of_p_values(&ys(rows, "overall p"), 10).map_or(0.0, |m| m.p_value);
    let balances = ys(rows, "balances").iter().sum::<f64>();
    let says = format!("{balances} balances; {rejected} of {CHI2_SEEDS} seeds reject at α = {ALPHA} (≤ {allowed} allowed); the seeds' p-values are uniform at p = {meta:.4}");
    (rejected <= allowed && meta >= ALPHA, says)
}

/// HI PMA random inserts (seed 3) at four sizes: moves per op over all `n`
/// inserts, and simulated I/Os per op over the second half, which starts
/// from a cold cache of at most an eighth of the structure.
fn thm1(size: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [size / 10, size / 4, size / 2, size] {
        let tracer = eighth_cache(n / 2 * RECORD_BYTES);
        let (seed, counters) = (RngSource::from_seed(n as u64), SharedCounters::new());
        let mut pma =
            HiPma::with_parts(seed, counters.clone(), tracer.clone(), RECORD_BYTES as u64);
        for (i, (rank, key)) in rank_trace(&random_inserts(n, 3)).into_iter().enumerate() {
            if i == n / 2 {
                tracer.reset_cold();
            }
            pma.insert(rank, key).unwrap();
        }
        let (log2n, b) = ((n as f64).log2(), (BLOCK_BYTES / RECORD_BYTES) as f64);
        let moves = counters.snapshot().element_moves as f64 / n as f64;
        let ios = tracer.stats().transfers() as f64 / (n - n / 2) as f64;
        let mut push =
            |series: &str, y: f64| rows.push(Row::new(series, n as f64, y, "per-op cost"));
        push("moves/op", moves);
        push("moves/op ÷ log²N", moves / (log2n * log2n));
        push("sim I/Os per op", ios);
        push(
            "I/Os ÷ (log²N/B + log_B N)",
            ios / (log2n * log2n / b + log2n / b.log2()),
        );
    }
    rows
}

fn thm1_verdict(rows: &[Row]) -> Verdict {
    let slope = log_log_slope(rows, "moves/op ÷ log²N");
    let says = format!(
        "moves/op ÷ log²N has log-log slope {slope:+.3} in N (O(log²N) moves: within ±0.1)"
    );
    (slope.abs() <= 0.1, says)
}

/// The HI COB-tree (the served `RankedDict` over `HiPma`, whose value tree
/// is §5's augmentation) and the external B-tree over `0, 2, …, 2(n−1)` at
/// three sizes. Each COB search, insert and range(k = 4096) starts from a cold
/// cache of at most an eighth of the structure; the B-tree counts the nodes
/// one search visits. 400 insert probes rarely hold a rebuild of a large
/// range, which Theorem 2 amortizes over Θ(N) inserts; the max column shows
/// when one lands.
fn thm2(size: usize) -> Vec<Row> {
    let b = BLOCK_BYTES / RECORD_BYTES;
    let mut rows = Vec::new();
    for n in [size / 10, 3 * size / 10, 3 * size / 4] {
        let n = n as u64;
        let tracer = eighth_cache(n as usize * RECORD_BYTES);
        let (seed, counters) = (RngSource::from_seed(n), SharedCounters::new());
        let pma = HiPma::with_parts(seed, counters.clone(), tracer.clone(), RECORD_BYTES as u64);
        let mut cob = RankedDict::with_counters(pma, counters);
        let mut bt = BTree::new(b);
        for k in 0..n {
            cob.insert(k * 2, k);
            bt.insert(k * 2, k);
        }
        let probe = |i: u64| (i * 2_654_435_761 % (2 * n)) & !1;
        let search = cold_costs(&tracer, 400, |i| {
            cob.get(&probe(i));
        });
        let bt_search: u64 = (0..400)
            .map(|i| (bt.get(&probe(i)), bt.last_op_ios()).1)
            .sum();
        let insert = cold_costs(&tracer, 400, |i| {
            cob.insert(i * 2 + 1, i);
        });
        let k = 4096u64.min(n / 2);
        let range = cold_costs(&tracer, 50, |i| {
            let low = (i * 977) % (2 * n - 2 * k);
            cob.range_iter(low..=low + 2 * k).count();
        });
        let log_b_n = (n as f64).log2() / (b as f64).log2();
        let mut push =
            |series: &str, y: f64| rows.push(Row::new(series, n as f64, y, "I/Os per op"));
        push("COB search I/Os", search.mean);
        push("B-tree search I/Os", bt_search as f64 / 400.0);
        push("log_B N", log_b_n);
        push("COB insert I/Os", insert.mean);
        push("COB insert max", insert.max);
        push("COB range(k=4096) I/Os", range.mean);
        push("k/B + log_B N", k as f64 / b as f64 + log_b_n);
    }
    rows
}

fn thm2_verdict(rows: &[Row]) -> Verdict {
    let slope = log_log_slope(rows, "COB search I/Os") - log_log_slope(rows, "log_B N");
    let (n, max) = points(rows, "COB insert max")
        .into_iter()
        .fold((0.0, 0.0), |a, b| if b.1 > a.1 { b } else { a });
    let blocks = n * (RECORD_BYTES as f64) / BLOCK_BYTES as f64;
    let says = format!("COB search I/Os ÷ log_B N has log-log slope {slope:+.3} in N (O(log_B N): within ±0.25); the costliest insert probe, {max:.0} I/Os = {:.1}·N/B at N = {n}, is one large rebuild in 400 probes", max / blocks);
    (slope.abs() <= 0.25, says)
}

/// Six cells of B ∈ {16, 64, 256} × ε ∈ {0.2, 0.5}: `3·size/10` inserts,
/// searches across the key space and 20 range queries of 4096 keys, each
/// charged its cold-cache transfers.
fn thm3(size: usize) -> Vec<Row> {
    let n = (3 * size / 10) as u64;
    let mut rows = Vec::new();
    for b in [16usize, 64, 256] {
        for eps in [0.2f64, 0.5] {
            let mut list = ExternalSkipList::history_independent(b, eps, b as u64);
            let mut insert = Vec::with_capacity(n as usize);
            for k in 0..n {
                list.insert(k * 7 % (2 * n), k);
                insert.push(list.last_op_ios());
            }
            let search: Vec<u64> = (0..2 * n)
                .step_by(197)
                .map(|k| (list.get(&k), list.last_op_ios()).1)
                .collect();
            let range: Vec<u64> = (0..n)
                .step_by((n / 20).max(1) as usize)
                .map(|s| (list.range(&s, &(s + 4096)), list.last_op_ios()).1)
                .collect();
            let [ins, srch, rng] = [insert, search, range].map(|c| Summary::of_counts(&c).unwrap());
            let mut push = |what: &str, y: f64| {
                rows.push(Row::new(&format!("eps={eps} {what}"), b as f64, y, "I/Os"));
            };
            push("log_B N", (n as f64).log2() / (b as f64).log2());
            push("search mean", srch.mean);
            push("search p99", srch.p99);
            push("insert mean", ins.mean);
            push("insert max", ins.max);
            push("range(k=4096) mean", rng.mean);
        }
    }
    rows
}

/// O(log_B N) in B: each mean ÷ log_B N varies by less than 1.5× across
/// B = 16 … 256, where a cost blind to B (like log N) varies by 2×.
fn thm3_verdict(rows: &[Row]) -> Verdict {
    let mut spread = 1.0f64;
    for eps in ["0.2", "0.5"] {
        let log_b_n = ys(rows, &format!("eps={eps} log_B N"));
        for what in ["search mean", "insert mean"] {
            let ys = ys(rows, &format!("eps={eps} {what}"));
            let ratios: Vec<f64> = ys.iter().zip(&log_b_n).map(|(y, l)| y / l).collect();
            let (lo, hi) = min_max(&ratios);
            spread = spread.max(hi / lo);
        }
    }
    let says = format!("search and insert means ÷ log_B N vary by at most {spread:.2}× across B = 16 … 256 (O(log_B N): < 1.5×; log N would give 2×)");
    (spread < 1.5, says)
}

/// The alternating adversary (insert, delete, …) against the WHI capacity
/// rule and the canonical (SHI) one at N = 2¹⁰, 2¹⁴, 2¹⁸, for at least 8N
/// rounds: the WHI rule resizes about 3/N times per operation.
fn obs1(size: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [1usize << 10, 1 << 14, 1 << 18] {
        let rounds = (size / 2).max(8 * n);
        let mut rng = RngSource::from_seed(n as u64);
        let r = rng.rng();
        let mut whi = HiCapacity::with_len(n, r);
        let mut shi = ShiCanonicalCapacity::with_len(n);
        let (mut whi_cost, mut shi_cost) = (0, 0);
        for i in 0..rounds {
            let (w, s) = if i % 2 == 0 {
                (whi.on_insert(r), shi.on_insert())
            } else {
                (whi.on_delete(r), shi.on_delete())
            };
            whi_cost += usize::from(w.is_rebuild()) * whi.len();
            shi_cost += usize::from(s.is_rebuild()) * shi.len();
        }
        let mut push = |series: &str, cost: usize| {
            rows.push(Row::new(
                series,
                n as f64,
                cost as f64 / rounds as f64,
                "slots/op",
            ));
        };
        push("WHI amortized resize cost", whi_cost);
        push("canonical (SHI) amortized resize cost", shi_cost);
    }
    rows
}

fn obs1_verdict(rows: &[Row]) -> Verdict {
    let whi = ys(rows, "WHI amortized resize cost");
    let shi = ys(rows, "canonical (SHI) amortized resize cost");
    let ratios: Vec<f64> = shi.iter().zip(&whi).map(|(s, w)| s / w).collect();
    let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.0}")).collect();
    let says = format!(
        "SHI/WHI resize cost ratio {} as N grows (Θ(N) against O(1): it must grow)",
        shown.join(" → ")
    );
    (ratios.windows(2).all(|w| w[1] > w[0]), says)
}

/// Block size of the Lemma 15 sweep.
const LEMMA15_B: usize = 64;

/// Every seventh key searched in three lists over `0..N`, for N ∈ {size/64,
/// size/8, size} so that log(N/B) doubles across the sweep: the HI skip
/// list, the folklore B-skip list and an in-memory skip list on disk. Each
/// reports its mean, its max and the share of searches above 3·log_B N.
fn lemma15(size: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [size / 64, size / 8, size] {
        let tail = 3.0 * (n as f64).log2() / (LEMMA15_B as f64).log2();
        for (name, mut list) in [
            (
                "HI",
                ExternalSkipList::history_independent(LEMMA15_B, 0.5, 1),
            ),
            ("folklore", ExternalSkipList::folklore_b(LEMMA15_B, 2)),
            ("in-memory", ExternalSkipList::in_memory(3)),
        ] {
            for k in 0..n as u64 {
                list.insert(k, k);
            }
            let costs: Vec<u64> = (0..n as u64)
                .step_by(7)
                .map(|k| (list.get(&k), list.last_op_ios()).1)
                .collect();
            let s = Summary::of_counts(&costs).unwrap();
            let above = costs.iter().filter(|&&c| c as f64 > tail).count() as f64;
            let mut push = |what: &str, y: f64| {
                rows.push(Row::new(
                    &format!("{name} {what}"),
                    n as f64,
                    y,
                    "I/Os per search",
                ));
            };
            push("mean", s.mean);
            push("max", s.max);
            push("> 3·log_B N", above / costs.len() as f64);
        }
    }
    rows
}

/// The folklore tail exceeds the HI tail at every N: a higher max, and no
/// smaller a share of searches above 3·log_B N.
fn lemma15_verdict(rows: &[Row]) -> Verdict {
    let [hi, folk, hi_max, folk_max] = [
        "HI > 3·log_B N",
        "folklore > 3·log_B N",
        "HI max",
        "folklore max",
    ]
    .map(|s| ys(rows, s));
    let log_n_b: Vec<String> = points(rows, "HI max")
        .iter()
        .map(|(n, _)| format!("{:.1}", (n / LEMMA15_B as f64).log2()))
        .collect();
    let holds = folk.iter().zip(&hi).all(|(f, h)| f >= h)
        && folk_max.iter().zip(&hi_max).all(|(f, h)| f > h);
    let says = format!("share above 3·log_B N: folklore {folk:.3?} against HI {hi:.3?}; max {folk_max:?} against {hi_max:?} while log₂(N/B) = {}", log_n_b.join(" → "));
    (holds, says)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_match_the_sorted_vec_reference() {
        for n in [0, 1, 2, 1_000, 20_000] {
            for seed in [42, 7] {
                let trace = random_inserts(n, seed);
                let mut sorted: Vec<u64> = Vec::new();
                let reference: Vec<(usize, u64)> = trace
                    .ops
                    .iter()
                    .map(|op| {
                        let Op::Insert(key, _) = *op else {
                            unreachable!()
                        };
                        let rank = sorted.partition_point(|k| *k < key);
                        sorted.insert(rank, key);
                        (rank, key)
                    })
                    .collect();
                assert_eq!(rank_trace(&trace), reference, "n = {n}, seed {seed}");
            }
        }
    }

    #[test]
    fn every_anchor_meets_its_recorded_verdict_at_smoke_size() {
        const SMOKE: usize = 10_000;
        for anchor in ANCHORS {
            let verdict = (anchor.verdict)(&(anchor.run)(SMOKE));
            assert_eq!(anchor.check(&verdict), Ok(()), "{}", verdict.1);
        }
    }

    #[test]
    fn the_check_fails_in_both_directions() {
        let (space, thm1) = (anchor("space").unwrap(), anchor("thm1").unwrap());
        let (holds, breaks) = ((true, String::new()), (false, String::new()));
        assert!(space.check(&breaks).is_ok() && thm1.check(&holds).is_ok());
        assert!(space.check(&holds).is_err() && thm1.check(&breaks).is_err());
    }

    #[test]
    fn rejections_allowed_is_the_binomial_quantile() {
        // P(X ≤ 3) = 0.982 and P(X ≤ 4) = 0.997 for X ~ Binomial(100, 0.01).
        assert_eq!(rejections_allowed(100), 4);
    }
}
