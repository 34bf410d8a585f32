//! **E6 / Theorem 2** — simulated I/O cost of the history-independent
//! cache-oblivious B-tree: searches should track `log_B N`, inserts
//! `log²N/B + log_B N`, and range queries `log_B N + k/B`, all without the
//! structure knowing `B`. The external B-tree provides the comparison column.
//!
//! Run: `cargo run -p ap-bench --release --bin thm2_cob_btree_io`

use ap_bench::{emit, scaled, Row};
use btree::BTree;
use cob_btree::CobBTree;
use hi_common::{RngSource, SharedCounters};
use io_sim::{IoConfig, Tracer};

fn main() {
    let block_bytes = 4096usize;
    let records_per_block = block_bytes / 16;
    let probes = 400u64;
    let mut rows = Vec::new();

    for &n in &[
        scaled(20_000) as u64,
        scaled(60_000) as u64,
        scaled(150_000) as u64,
    ] {
        let tracer = Tracer::enabled(IoConfig::new(block_bytes, 1 << 12));
        let mut cob: CobBTree<u64, u64> = CobBTree::with_parts(
            RngSource::from_seed(n),
            SharedCounters::new(),
            tracer.clone(),
            16,
        );
        let mut bt: BTree<u64, u64> = BTree::new(records_per_block);
        for k in 0..n {
            cob.insert(k * 2, k);
            bt.insert(k * 2, k);
        }

        // Search cost, each search from a cold cache in both columns: the
        // B-tree counts the nodes one search visits, so the COB column
        // empties the cache before every probe and sums the transfers.
        let (mut cob_total, mut bt_total) = (0u64, 0u64);
        for i in 0..probes {
            let key = (i * 2_654_435_761 % (2 * n)) & !1;
            tracer.reset_cold();
            cob.get(&key);
            cob_total += tracer.stats().transfers();
            bt.get(&key);
            bt_total += bt.last_op_ios();
        }
        let cob_search = cob_total as f64 / probes as f64;
        let bt_search = bt_total as f64 / probes as f64;
        rows.push(Row::new(
            "COB search I/Os",
            n as f64,
            cob_search,
            "I/Os per op",
        ));
        rows.push(Row::new(
            "B-tree search I/Os",
            n as f64,
            bt_search,
            "I/Os per op",
        ));
        rows.push(Row::new(
            "log_B N",
            n as f64,
            (n as f64).log2() / (records_per_block as f64).log2(),
            "I/Os per op",
        ));

        // Insert cost (marginal, warm structure, cold cache).
        tracer.reset_cold();
        for i in 0..probes {
            cob.insert(i * 2 + 1, i);
        }
        let cob_insert = tracer.stats().transfers() as f64 / probes as f64;
        rows.push(Row::new(
            "COB insert I/Os",
            n as f64,
            cob_insert,
            "I/Os per op",
        ));

        // Range queries of k = 4096 elements.
        let k = 4096u64.min(n / 2);
        tracer.reset_cold();
        let queries = 50u64;
        for i in 0..queries {
            let low = (i * 977) % (2 * n - 2 * k);
            cob.range_iter(low..=low + 2 * k).count();
        }
        let cob_range = tracer.stats().transfers() as f64 / queries as f64;
        rows.push(Row::new(
            "COB range(k=4096) I/Os",
            n as f64,
            cob_range,
            "I/Os per op",
        ));
        rows.push(Row::new(
            "k/B + log_B N",
            n as f64,
            k as f64 / records_per_block as f64
                + (n as f64).log2() / (records_per_block as f64).log2(),
            "I/Os per op",
        ));
    }
    emit(
        "Theorem 2: cache-oblivious B-tree I/O costs vs. the B-tree yardstick",
        &rows,
    );
}
