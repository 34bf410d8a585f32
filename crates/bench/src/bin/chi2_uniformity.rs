//! **E4 / χ² uniformity experiment** (paper §4.3) — inserts `1..=K`
//! sequentially into a fresh HI PMA, `T` times per seed, and pools every
//! balance element of every trial into one χ² test with
//! `hi_common::stats::Pooled`, the function `tests/history_independence.rs`
//! gates on: all balances, each depth, and `N̂ − n` against U{0, …, n−1}.
//! It does so for 100 fixed seeds and counts the seeds whose sub-tests
//! reject uniformity at α = 0.01, Bonferroni corrected: the pooled test's
//! false-positive rate, about 1 in 100 if the engine and the test are right.
//! The seeds' pooled p-values should themselves be uniform; it χ²-tests them
//! over ten bins (the paper's second stage, applied across seeds).
//!
//! The paper runs K = 100 000 and T = 10 000 and tests each candidate set on
//! its own (p = 0.47 over n = 148 sets); a per-set histogram needs a set that
//! recurs with the same geometry in many trials, which at these sizes none
//! does. Raise K and T with `AP_BENCH_SCALE` / `AP_BENCH_TRIALS`.
//!
//! Run: `cargo run -p ap-bench --release --bin chi2_uniformity`

use ap_bench::{env_usize, scaled};
use hi_common::stats::{uniformity_of_p_values, Pooled};
use pma::HiPma;

const SEEDS: u64 = 100;
const ALPHA: f64 = 0.01;

fn main() {
    let k = scaled(10_000);
    let trials = env_usize("AP_BENCH_TRIALS", 100) as u64;
    println!("pooled chi^2 uniformity: K = {k} sequential inserts, T = {trials} trials per seed, {SEEDS} seeds");
    let (mut balances, mut rejected, mut p_values) = (0, 0, Vec::new());
    for seed in 0..SEEDS {
        let mut pooled = Pooled::new(seed);
        for t in 0..trials {
            let mut pma: HiPma<u64> = HiPma::new(0x5EED_0000 + seed * trials + t);
            for v in 0..k {
                pma.insert(v, v as u64).unwrap();
            }
            for r in pma.balance_records() {
                pooled.balance(r.depth, r.window, r.offset);
            }
            pooled.capacity(pma.len(), pma.n_hat());
        }
        let report = pooled.report();
        balances += report.balances;
        if seed == 0 || report.rejects(ALPHA) {
            println!("\nseed {seed}: {report}");
        }
        rejected += usize::from(report.rejects(ALPHA));
        p_values.extend(report.tests.first().map(|&(_, _, p)| p));
    }
    println!("\n{balances} balances over {SEEDS} seeds");
    println!("seeds rejected at alpha = {ALPHA} (Bonferroni over each seed's sub-tests): {rejected} of {SEEDS}");
    match uniformity_of_p_values(&p_values, 10) {
        Some(meta) => println!(
            "pooled p-values over seeds, chi^2 in 10 bins: p = {:.4}",
            meta.p_value
        ),
        None => println!("too few pooled p-values for the calibration test"),
    }
}
