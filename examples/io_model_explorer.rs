//! Explore the DAM-model cost of the cache-oblivious structures under
//! different (simulated) block sizes — without the structures knowing `B`.
//!
//! The defining property of a cache-oblivious data structure is that one
//! layout is simultaneously efficient for *every* block size. This example
//! builds one HI PMA / cache-oblivious B-tree, replays the identical
//! operation sequence through I/O models with different `B`, and prints the
//! per-operation transfer counts next to the `log²N/B + log_B N` prediction.
//!
//! Run with: `cargo run --release --example io_model_explorer`

// Examples are seeded end to end: the determinism gate applies here too.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use anti_persistence::prelude::*;

fn measure(block_size: usize, memory_blocks: usize, n: u64, probes: u64) -> (f64, f64) {
    // The builder wires the I/O model into the structure uniformly; swap the
    // backend to explore any other engine under the same meter.
    let mut tree: DynDict<u64, u64> = Dict::builder()
        .backend(Backend::HiPma)
        .seed(99)
        .io(IoConfig::new(block_size, memory_blocks))
        .build();
    for k in 0..n {
        tree.insert(k * 2, k);
    }
    // Cold-cache insert cost.
    tree.tracer().reset_cold();
    for k in 0..probes {
        tree.insert(k * 2 + 1, k);
    }
    let insert_ios = tree.io_stats().transfers() as f64 / probes as f64;
    // Cold-cache search cost.
    tree.tracer().reset_cold();
    for k in 0..probes {
        tree.get(&(k * 97 % (2 * n)));
    }
    let search_ios = tree.io_stats().transfers() as f64 / probes as f64;
    (insert_ios, search_ios)
}

fn main() {
    let n = 60_000u64;
    let probes = 500u64;
    println!("one cache-oblivious layout, many block sizes (N = {n})\n");
    println!(
        "{:>10} {:>16} {:>16} {:>22}",
        "B (bytes)", "insert I/Os", "search I/Os", "log²N/B + log_B N"
    );
    for block in [512usize, 1024, 4096, 16_384, 65_536] {
        // Keep the cache at 4 MiB regardless of block size.
        let memory_blocks = (4 << 20) / block;
        let (ins, srch) = measure(block, memory_blocks, n, probes);
        let records_per_block = block as f64 / 16.0;
        let log2n = (n as f64).log2();
        let prediction = log2n * log2n / records_per_block + log2n / records_per_block.log2();
        println!(
            "{:>10} {:>16.2} {:>16.2} {:>22.2}",
            block, ins, srch, prediction
        );
    }
    println!("\nThe measured columns should fall as B grows, tracking the prediction's");
    println!("shape — the structure never saw B, the I/O model applied it after the fact.");
}
