//! The paper's motivating scenario: a shared database whose *history* is more
//! sensitive than its contents.
//!
//! A police department keeps an index of known organised-crime members and
//! wants to hand a copy to partner agencies without revealing when each entry
//! was added (which would expose informants) or which entries were redacted
//! before sharing. This example builds the same final database through two
//! very different histories and shows that:
//!
//! * a **classic PMA** ends up with measurably different physical layouts, so
//!   an observer of the raw bytes learns something about the history, while
//! * the **history-independent PMA** produces layouts drawn from the same
//!   distribution regardless of history — the deleted informant records and
//!   the insertion order are statistically invisible.
//!
//! Part two makes the claim literal: the index is flushed to a *real file*
//! through the block store, informant records are redacted, and the audit
//! greps the raw file bytes for their key patterns — zero traces must
//! remain. A conventional append-only log of the same operations is audited
//! alongside to show what anti-persistence buys: the log still holds every
//! redacted key.
//!
//! Run with: `cargo run --release --example secure_delete_audit`

// Examples are seeded end to end: the determinism gate applies here too.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::io::Write as _;

use anti_persistence::dict::{Backend, Dict};
use anti_persistence::prelude::*;
use block_store::temp_path;

/// Summarises a layout by the density of the first half of the array — the
/// statistic the paper's introduction calls out ("the front of the array will
/// be denser than the back").
fn front_density(occupancy: &[bool]) -> f64 {
    let half = occupancy.len() / 2;
    let front = occupancy[..half].iter().filter(|&&b| b).count();
    let total = occupancy.iter().filter(|&&b| b).count().max(1);
    front as f64 / total as f64
}

/// Counts non-overlapping occurrences of `needle` in `haystack`.
fn occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    if haystack.len() < needle.len() {
        return 0;
    }
    haystack
        .windows(needle.len())
        .filter(|w| w == &needle)
        .count()
}

/// Part two: flush the index to a real file, redact the informants, and grep
/// the raw bytes of persistent storage for any trace of them.
fn audit_real_storage() {
    let n_base: u64 = 5_000;
    let n_informants: u64 = 64;
    // Informant keys carry a distinctive high-entropy prefix so the byte
    // scan cannot confuse them with base records or file metadata.
    let informant_key = |i: u64| 0xFEED_FACE_0000_0000u64 | i;

    println!("-- real-storage audit ------------------------------------------------");

    // The HI index on a real file, via the journaled block store.
    let path = temp_path("secure-delete-audit");
    let mut dict = Dict::builder()
        .backend(Backend::HiPma)
        .seed(0x5EC2E7)
        .build_persistent(&path)
        .expect("open block store");

    // A conventional append-only log of the same operations, the way a
    // naive durable index (or a WAL kept forever) would record them.
    let log_path = temp_path("secure-delete-audit-log");
    let mut log = std::fs::File::create(&log_path).expect("create log");
    let mut log_op = |tag: &[u8], key: u64| {
        log.write_all(tag).expect("log write");
        log.write_all(&key.to_le_bytes()).expect("log write");
    };

    for k in 0..n_base {
        dict.insert(k, k * 2);
        log_op(b"PUT", k);
    }
    for i in 0..n_informants {
        dict.insert(informant_key(i), i);
        log_op(b"PUT", informant_key(i));
    }
    dict.flush().expect("flush with informants");

    // While the informants are live, their bytes must be findable — this
    // proves the audit's scan actually sees the record encoding.
    let (data, _) = dict.store().raw_bytes().expect("read raw bytes");
    let live: usize = (0..n_informants)
        .map(|i| occurrences(&data, &informant_key(i).to_le_bytes()))
        .sum();
    assert!(
        live >= n_informants as usize,
        "audit scan failed to find live informant records on disk"
    );
    println!(
        "  flushed {} records; raw scan finds all {} live informant keys",
        n_base + n_informants,
        n_informants
    );

    // Redact and flush: the canonical image is f(contents, seed), so the
    // rewritten file must hold no byte of any redacted record.
    for i in 0..n_informants {
        dict.remove(&informant_key(i));
        log_op(b"DEL", informant_key(i));
    }
    dict.flush().expect("flush after redaction");

    let (data, journal) = dict.store().raw_bytes().expect("read raw bytes");
    let mut leaked = 0usize;
    for i in 0..n_informants {
        let pat = informant_key(i).to_le_bytes();
        leaked += occurrences(&data, &pat) + occurrences(&journal, &pat);
    }
    assert_eq!(
        leaked, 0,
        "{leaked} traces of redacted informants remain in the raw file bytes"
    );
    assert_eq!(dict.len() as u64, n_base, "redaction lost base records");

    drop(log);
    let log_bytes = std::fs::read(&log_path).expect("read log");
    let log_traces: usize = (0..n_informants)
        .map(|i| occurrences(&log_bytes, &informant_key(i).to_le_bytes()))
        .sum();

    println!(
        "  after redaction: block store leaks {leaked} informant traces \
         ({} bytes scanned, journal included)",
        data.len() + journal.len()
    );
    println!(
        "  the append-only log still holds {log_traces} informant traces \
         ({} bytes) — every PUT and even the DEL betrays the key",
        log_bytes.len()
    );
    assert!(
        log_traces >= 2 * n_informants as usize,
        "the contrast log should retain the redacted keys"
    );

    let _ = std::fs::remove_file(dict.store().path());
    let _ = std::fs::remove_file(dict.store().journal_path());
    let _ = std::fs::remove_file(&log_path);
    println!();
}

fn main() {
    let n: u64 = 20_000;

    println!("building the same {n}-record database via two histories...\n");

    // History A: records arrive in ascending id order (bulk import).
    // History B: records arrive newest-first (field reports trickling in),
    //            and 2 000 informant records are added and later redacted.
    let run = |label: &str, seed_a: u64, seed_b: u64| {
        // --- classic PMA ----------------------------------------------------
        let mut classic_a: ClassicPma<u64> = ClassicPma::new();
        for k in 0..n {
            let rank = classic_a.len();
            classic_a.insert(rank, k).unwrap();
        }
        let mut classic_b: ClassicPma<u64> = ClassicPma::new();
        for k in (0..n).rev() {
            classic_b.insert(0, k).unwrap();
        }
        // --- HI cache-oblivious B-tree --------------------------------------
        // History A is a bulk import: one O(n) load drawing fresh coins from
        // seed_a — the layout distribution is identical to an incremental
        // build, which is exactly what makes the comparison below fair.
        let mut hi_a: CobBTree<u64, u64> = CobBTree::new(seed_a);
        hi_a.bulk_load((0..n).map(|k| (k, k)), seed_a);
        let mut hi_b: CobBTree<u64, u64> = CobBTree::new(seed_b);
        for k in (0..n).rev() {
            hi_b.insert(k, k);
        }
        // Informant records: inserted, used, then redacted.
        for k in n..n + 2_000 {
            hi_b.insert(k, k);
        }
        for k in n..n + 2_000 {
            hi_b.remove(&k);
        }

        assert_eq!(hi_a.to_sorted_vec(), hi_b.to_sorted_vec());

        println!("{label}");
        println!(
            "  classic PMA   front-density: bulk-import {:.3} vs newest-first {:.3}  (slots {} vs {})",
            front_density(&classic_a.occupancy()),
            front_density(&classic_b.occupancy()),
            classic_a.total_slots(),
            classic_b.total_slots(),
        );
        println!(
            "  HI structure  front-density: bulk-import {:.3} vs redacted     {:.3}  (slots {} vs {})",
            front_density(&hi_a.occupancy()),
            front_density(&hi_b.occupancy()),
            hi_a.total_slots(),
            hi_b.total_slots(),
        );
    };

    run("trial 1", 11, 12);
    run("trial 2", 21, 22);
    run("trial 3", 31, 32);

    println!();
    audit_real_storage();
    println!("The classic PMA's layout statistic tracks the history (and its array size");
    println!("can differ), while the HI structure's layout statistic is governed only by");
    println!("the final contents and fresh randomness — exactly the weak history");
    println!("independence guarantee of Definition 4 / Lemma 9.");
}
