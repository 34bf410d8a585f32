//! **E9 / Definition 4** — end-to-end statistical verification of weak
//! history independence: the layout distribution of the HI structures must be
//! identical across operation histories that reach the same state, while the
//! classic PMA visibly leaks.
//!
//! Run: `cargo run -p ap-bench --release --bin hi_verification`

use ap_bench::env_usize;
use cob_btree::CobBTree;
use hi_common::stats::chi2::chi2_gof;
use hi_common::traits::Occupancy;
use pma::ClassicPma;

fn layout_bucket(occupancy: &[bool], buckets: usize) -> usize {
    let pos = occupancy.iter().position(|&b| b).unwrap_or(0);
    (pos * buckets / occupancy.len()).min(buckets - 1)
}

fn main() {
    let n = env_usize("AP_BENCH_N", 400) as u64;
    let trials = env_usize("AP_BENCH_TRIALS", 400) as u64;
    let buckets = 8usize;
    println!("history-independence verification: {n} keys, {trials} trials per history\n");

    // --- HI cache-oblivious B-tree -----------------------------------------
    let mut hist_asc = vec![0u64; buckets];
    let mut hist_adv = vec![0u64; buckets];
    for t in 0..trials {
        let mut a: CobBTree<u64, u64> = CobBTree::new(10_000 + t);
        for k in 0..n {
            a.insert(k, k);
        }
        let mut b: CobBTree<u64, u64> = CobBTree::new(60_000 + t);
        for k in (0..n).rev() {
            b.insert(k, k);
        }
        for k in n..n + n / 2 {
            b.insert(k, k);
        }
        for k in n..n + n / 2 {
            b.remove(&k);
        }
        hist_asc[layout_bucket(&a.occupancy(), buckets)] += 1;
        hist_adv[layout_bucket(&b.occupancy(), buckets)] += 1;
    }
    println!("HI cache-oblivious B-tree layout-statistic histograms:");
    println!("  ascending inserts      : {hist_asc:?}");
    println!("  reverse + delete burst : {hist_adv:?}");
    let pairs: (Vec<u64>, Vec<f64>) = hist_asc
        .iter()
        .zip(&hist_adv)
        .filter(|(&a, _)| a >= 10)
        .map(|(&a, &b)| (b, a as f64))
        .unzip();
    if pairs.0.len() >= 2 {
        let outcome = chi2_gof(&pairs.0, &pairs.1);
        println!(
            "  chi^2 p-value = {:.3}  ->  {}",
            outcome.p_value,
            if outcome.p_value > 0.01 {
                "consistent with identical distributions (history independent)"
            } else {
                "distributions differ (LEAK)"
            }
        );
    } else {
        println!("  (degenerate histograms — identical by inspection)");
    }

    // --- classic PMA (expected to leak) ------------------------------------
    let front_density = |front_loaded: bool| -> f64 {
        let mut pma: ClassicPma<u64> = ClassicPma::new();
        if front_loaded {
            for k in (0..n).rev() {
                pma.insert(0, k).unwrap();
            }
        } else {
            for k in 0..n {
                let rank = pma.len();
                pma.insert(rank, k).unwrap();
            }
        }
        let occ = pma.occupancy();
        let half = occ.len() / 2;
        occ[..half].iter().filter(|&&b| b).count() as f64 / n as f64
    };
    let back_loaded = front_density(false);
    let front_loaded = front_density(true);
    println!("\nclassic PMA front-half density (same final contents):");
    println!("  appended ascending  : {back_loaded:.3}");
    println!("  hammered at front   : {front_loaded:.3}");
    println!(
        "  -> the classic PMA layout {} the insertion history",
        if (back_loaded - front_loaded).abs() > 0.02 || back_loaded != front_loaded {
            "REVEALS"
        } else {
            "does not obviously reveal"
        }
    );
}
