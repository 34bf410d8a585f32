//! DAM-model-vs-real-device validation for the file-backed block store.
//!
//! Until this PR every I/O number in the repo came from the simulated DAM
//! ledger. The block store finally gives the model a ground truth to be
//! checked against: the flush and reopen paths move whole blocks through a
//! real file, and their physical transfer counts are known in closed form
//! (a full flush writes every block of the image exactly once; a reopen
//! reads them back). This harness measures, per database size:
//!
//! * **dam-predicted** — the closed-form DAM cost, `file_len / B` blocks;
//! * **device-writes / device-reads** — actual physical block transfers
//!   from the store's `FileStats` ledger (data file only);
//! * **with-journal** — total writes including the journal, i.e. the
//!   write-amplification price of crash atomicity (≈ 2× + one block);
//! * **dam-ledger** — every physical transfer (data + journal) as charged
//!   into an attached `io_sim::Tracer`, which must equal `with-journal`:
//!   the simulated ledger and the device agree transfer for transfer;
//! * **wall-clock MB/s** for the flush and the reopen, tying the transfer
//!   counts to real time on a real device.
//!
//! Two follow-up flushes probe the hash gate: a no-op flush (contents
//! unchanged) must write zero blocks, while a 1% churn honestly rewrites
//! most of the image — the canonical layout is redrawn from the contents,
//! so almost every block's bytes change. Anti-persistence is the point;
//! cheap incremental flushes are not promised and not delivered.
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
    let path = temp_path(&format!("bench-bsio-{n}"));
    let mut dict = Dict::builder()
        .backend(Backend::HiPma)
        .seed(0xB10C)
        .build_persistent(&path)
        .expect("open block store");
    // Route the physical transfers into a simulated-DAM ledger too: the
    // bench cross-checks the two accountings against each other.
    let ledger = Tracer::enabled(IoConfig::new(BLOCK, 64));
    dict.store_mut().set_tracer(ledger.clone());

    for i in 0..n as u64 {
        dict.insert(scramble(i), i);
    }
    let (_, full_secs) = timed(|| dict.flush().expect("full flush"));
    let full = dict.store().stats();
    let file_len = std::fs::metadata(dict.store().path()).expect("stat").len();
    let image_blocks = (file_len / BLOCK as u64) as f64;
    let mb = file_len as f64 / (1024.0 * 1024.0);

    rows.push(Row::new(
        "flush-full/dam-predicted",
        x,
        image_blocks,
        "blocks",
    ));
    rows.push(Row::new(
        "flush-full/device-writes",
        x,
        full.data.blocks_written as f64,
        "blocks",
    ));
    rows.push(Row::new(
        "flush-full/dam-ledger",
        x,
        ledger.stats().writes as f64,
        "blocks",
    ));
    rows.push(Row::new(
        "flush-full/with-journal",
        x,
        full.blocks_written() as f64,
        "blocks",
    ));
    rows.push(Row::new(
        "flush-full/wall-clock",
        x,
        mb / full_secs.max(1e-9),
        "MB/s",
    ));

    // A flush with unchanged contents: the hash gate must find every block
    // clean and write nothing at all.
    let before = dict.store().stats();
    dict.flush().expect("no-op flush");
    let noop = dict.store().stats();
    rows.push(Row::new(
        "flush-noop/with-journal",
        x,
        (noop.blocks_written() - before.blocks_written()) as f64,
        "blocks",
    ));

    // Churn 1% of the keys and flush: the canonical layout is redrawn from
    // the new contents, so most blocks change — the gate only spares the
    // few whose bytes happen to coincide.
    let churn = (n / 100).max(1) as u64;
    for i in 0..churn {
        dict.remove(&scramble(i));
        dict.insert(scramble(i ^ 0xDEAD), i);
    }
    let before = dict.store().stats();
    let (_, _incr_secs) = timed(|| dict.flush().expect("incremental flush"));
    let incr = dict.store().stats();
    rows.push(Row::new(
        "flush-incremental/device-writes",
        x,
        (incr.data.blocks_written - before.data.blocks_written) as f64,
        "blocks",
    ));
    rows.push(Row::new(
        "flush-incremental/with-journal",
        x,
        (incr.blocks_written() - before.blocks_written()) as f64,
        "blocks",
    ));

    let data_path = dict.store().path().to_path_buf();
    let journal_path = dict.store().journal_path().to_path_buf();
    let len = dict.len();
    drop(dict);

    // Reopen: one sequential pass over the image, then a bulk load in RAM.
    let (reopened, reopen_secs) = timed(|| {
        Dict::builder()
            .backend(Backend::HiPma)
            .build_persistent(&path)
            .expect("reopen")
    });
    assert_eq!(reopened.len(), len, "reopen must recover every record");
    let file_len = std::fs::metadata(&data_path).expect("stat").len();
    let image_blocks = (file_len / BLOCK as u64) as f64;
    rows.push(Row::new("reopen/dam-predicted", x, image_blocks, "blocks"));
    rows.push(Row::new(
        "reopen/device-reads",
        x,
        reopened.store().stats().blocks_read() as f64,
        "blocks",
    ));
    rows.push(Row::new(
        "reopen/wall-clock",
        x,
        (file_len as f64 / (1024.0 * 1024.0)) / reopen_secs.max(1e-9),
        "MB/s",
    ));

    println!(
        "n={n:>8}: image {image_blocks:>6.0} blocks | full flush {:>6} writes \
         ({:>6} w/ journal, {:>7.1} MB/s) | incremental {:>5} | reopen {:>6} reads \
         ({:>7.1} MB/s)",
        full.data.blocks_written,
        full.blocks_written(),
        mb / full_secs.max(1e-9),
        incr.data.blocks_written - before.data.blocks_written,
        reopened.store().stats().blocks_read(),
        (file_len as f64 / (1024.0 * 1024.0)) / reopen_secs.max(1e-9),
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
    emit(
        "block store I/O: DAM-model prediction vs real device",
        &rows,
    );
}
