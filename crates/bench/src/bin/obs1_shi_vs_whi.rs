//! **E10 / Observation 1** — the alternating adversary forces any canonical
//! (strong-HI-style) capacity rule into an `Ω(N)`-cost resize on every
//! operation, while the weak-HI rule resizes with probability `O(1/N)`. This
//! is the paper's justification for targeting *weak* history independence.
//!
//! Run: `cargo run -p ap-bench --release --bin obs1_shi_vs_whi`

use ap_bench::{emit, scaled, Row};
use hi_common::capacity::{HiCapacity, ShiCanonicalCapacity};
use hi_common::RngSource;

fn main() {
    let mut rows = Vec::new();
    for &n in &[1usize << 10, 1 << 14, 1 << 18] {
        // The WHI rule resizes about 3/N times per operation, so fewer than
        // N rounds can draw no resize at all and read a cost of zero: run at
        // least 8N rounds per N.
        let rounds = scaled(100_000).max(8 * n);
        let mut rng = RngSource::from_seed(n as u64);
        let r = rng.rng();
        let mut whi = HiCapacity::with_len(n, r);
        let mut shi = ShiCanonicalCapacity::with_len(n);
        let mut whi_rebuild_cost = 0u64;
        let mut shi_rebuild_cost = 0u64;
        for i in 0..rounds {
            if i % 2 == 0 {
                if whi.on_insert(r).is_rebuild() {
                    whi_rebuild_cost += whi.len() as u64;
                }
                if shi.on_insert().is_rebuild() {
                    shi_rebuild_cost += shi.len() as u64;
                }
            } else {
                if whi.on_delete(r).is_rebuild() {
                    whi_rebuild_cost += whi.len() as u64;
                }
                if shi.on_delete().is_rebuild() {
                    shi_rebuild_cost += shi.len() as u64;
                }
            }
        }
        let whi_amortized = whi_rebuild_cost as f64 / rounds as f64;
        let shi_amortized = shi_rebuild_cost as f64 / rounds as f64;
        rows.push(Row::new(
            "WHI amortized resize cost",
            n as f64,
            whi_amortized,
            "slots/op",
        ));
        rows.push(Row::new(
            "canonical (SHI) amortized resize cost",
            n as f64,
            shi_amortized,
            "slots/op",
        ));
        println!(
            "N = {n:>7}: WHI {whi_amortized:>10.2} slots/op, canonical {shi_amortized:>12.2} slots/op"
        );
    }
    emit(
        "Observation 1: alternating adversary — amortized resize cost per operation",
        &rows,
    );
    println!("\nThe canonical rule pays Θ(N) per operation (it straddles a boundary every step);");
    println!("the WHI rule pays O(1) amortized, which is what makes Theorem 1 possible.");
}
