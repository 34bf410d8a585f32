//! The price of integrity: checksummed flushes, scrubs, and verified loads.
//!
//! The v2 on-disk format adds a checksum region — one FNV word per payload
//! block, rooted in the header — so every read is verified and `scrub()`
//! can sweep the whole image for silent corruption. This harness quantifies
//! what that costs, per database size:
//!
//! * **flush-checksummed/wall-clock** — full-flush throughput with the
//!   region maintained. Comparable against the PR 6 `block_store_io`
//!   `flush-full/wall-clock` baselines: the checksum words are the dirty
//!   gate's FNV hashes, already computed per block, so the only new work
//!   is writing the region blocks themselves.
//! * **checksum-region/extra-writes** — region blocks written by a full
//!   flush, i.e. the write amplification of integrity (one block per
//!   `block_size/8` payload blocks, so ≈0.2% at 4 KiB blocks).
//! * **scrub/wall-clock** — a full integrity sweep (every payload block
//!   read and hashed against its word) in MB/s.
//! * **verified-reopen/wall-clock** — a reopen + load with per-block
//!   verification on the read path, in MB/s.
//!
//! Scale with `AP_BENCH_SCALE`, dump rows with `AP_BENCH_JSON=out.json`,
//! or pass `--smoke` for a seconds-long CI run.

use anti_persistence::block_store::temp_path;
use anti_persistence::dict::{Backend, Dict};
use anti_persistence::prelude::*;
use ap_bench::{emit, scaled, scramble, timed, Row};

const BLOCK: usize = 4096;

fn run(rows: &mut Vec<Row>, n: usize) {
    let x = n as f64;
    let path = temp_path(&format!("bench-fault-{n}"));
    let mut dict = Dict::builder()
        .backend(Backend::HiPma)
        .seed(0xFA17)
        .build_persistent(&path)
        .expect("open block store");
    for i in 0..n as u64 {
        dict.insert(scramble(i), i);
    }

    let (_, flush_secs) = timed(|| dict.flush().expect("checksummed flush"));
    let file_len = std::fs::metadata(dict.store().path()).expect("stat").len();
    let mb = file_len as f64 / (1024.0 * 1024.0);
    rows.push(Row::new(
        "flush-checksummed/wall-clock",
        x,
        mb / flush_secs.max(1e-9),
        "MB/s",
    ));

    // The integrity tax in blocks: one region block per block_size/8
    // payload blocks, all rewritten on a full flush.
    let words_per_block = (BLOCK / 8) as u64;
    let payload_blocks = file_len / BLOCK as u64;
    let region_blocks = payload_blocks.div_ceil(words_per_block);
    rows.push(Row::new(
        "checksum-region/extra-writes",
        x,
        region_blocks as f64,
        "blocks",
    ));

    // A full scrub: every payload block read back and hashed against its
    // persisted word. The report must come back clean.
    let (report, scrub_secs) = timed(|| dict.scrub().expect("scrub"));
    assert!(report.is_clean(), "a fresh image must scrub clean");
    rows.push(Row::new(
        "scrub/wall-clock",
        x,
        mb / scrub_secs.max(1e-9),
        "MB/s",
    ));

    let len = dict.len();
    let data_path = dict.store().path().to_path_buf();
    let journal_path = dict.store().journal_path().to_path_buf();
    drop(dict);

    // Reopen with the verifying read path: every block checked against the
    // region as it streams in.
    let (reopened, reopen_secs) = timed(|| {
        Dict::builder()
            .backend(Backend::HiPma)
            .build_persistent(&path)
            .expect("verified reopen")
    });
    assert_eq!(reopened.len(), len, "reopen must recover every record");
    rows.push(Row::new(
        "verified-reopen/wall-clock",
        x,
        mb / reopen_secs.max(1e-9),
        "MB/s",
    ));

    println!(
        "n={n:>8}: image {payload_blocks:>6} blocks (+{region_blocks} checksum) | \
         flush {:>7.1} MB/s | scrub {:>7.1} MB/s | verified reopen {:>7.1} MB/s",
        mb / flush_secs.max(1e-9),
        mb / scrub_secs.max(1e-9),
        mb / reopen_secs.max(1e-9),
    );

    let _ = std::fs::remove_file(&data_path);
    let _ = std::fs::remove_file(&journal_path);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: Vec<usize> = if smoke {
        vec![5_000, 20_000]
    } else {
        vec![scaled(50_000), scaled(200_000), scaled(500_000)]
    };
    let mut rows: Vec<Row> = Vec::new();
    for n in sizes {
        run(&mut rows, n);
    }
    emit("fault tolerance: the cost of checksummed storage", &rows);
}
