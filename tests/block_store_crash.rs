//! Crash-recovery battery for the file-backed block store.
//!
//! For every possible kill point of a flush — a torn-write fault fires after
//! exactly `k` physical block writes, for every `k` up to the flush's full
//! write count — the battery verifies the two properties the journaled
//! commit protocol promises:
//!
//! * **atomicity**: reopening the file recovers *exactly* the contents of
//!   either the previous flush (crash before the journal header — the
//!   commit point — landed) or the interrupted one (crash after), never a
//!   torn mixture;
//! * **canonical layout**: whichever image survives, its layout fingerprint
//!   equals that of a fresh `bulk_load(contents, seed)` — the recovered
//!   file is the pure function `f(contents, seed)`, so the crash leaked no
//!   operation history onto the platter.
//!
//! Each kill point is a full trial: build, flush, mutate, arm the plan,
//! crash mid-flush, reopen, audit. Several deterministic op scripts, long
//! enough that a flush of their packed records is some forty writes, keep
//! the total above 100 kill points and make both outcomes (rollback and
//! replay) occur.

use std::collections::BTreeMap;

use anti_persistence::dict::{Backend, Dict};
use anti_persistence::prelude::*;
use block_store::temp_path;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Phase 1: a deterministic base load. Mirrored into `oracle`.
fn phase1(dict: &mut PersistentDict, oracle: &mut BTreeMap<u64, u64>, script: u64) {
    let mut state = script.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for i in 0..500u64 {
        let k = lcg(&mut state) % 10_000;
        dict.insert(k, i);
        oracle.insert(k, i);
    }
}

/// Phase 2: a mixed insert/remove workload that changes the key set (so the
/// two flushed images genuinely differ). Mirrored into `oracle`.
fn phase2(dict: &mut PersistentDict, oracle: &mut BTreeMap<u64, u64>, script: u64) {
    let mut state = script.wrapping_mul(0xD1B54A32D192ED03) | 1;
    for i in 0..300u64 {
        let k = lcg(&mut state) % 10_000;
        if i % 3 == 0 {
            dict.remove(&k);
            oracle.remove(&k);
        } else {
            dict.insert(k, i + 1_000_000);
            oracle.insert(k, i + 1_000_000);
        }
    }
}

fn contents_of(dict: &PersistentDict) -> Vec<(u64, u64)> {
    dict.iter().map(|(k, v)| (*k, *v)).collect()
}

fn oracle_vec(oracle: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    oracle.iter().map(|(&k, &v)| (k, v)).collect()
}

fn builder(seed: u64) -> DictBuilder {
    Dict::builder().backend(Backend::HiPma).seed(seed)
}

fn open(path: &std::path::Path, seed: u64) -> PersistentDict {
    // 512-byte blocks keep per-flush write counts in the dozens, so
    // sweeping every kill point stays fast; no_sync because the process
    // survives the injected crash — only write *ordering* is under test.
    builder(seed)
        .build_persistent_with(path, StoreOptions::new(512).no_sync())
        .unwrap()
}

fn cleanup(dict: &PersistentDict) {
    let data = dict.store().path().to_path_buf();
    let journal = dict.store().journal_path().to_path_buf();
    drop_paths(&data, &journal);
}

fn drop_paths(data: &std::path::Path, journal: &std::path::Path) {
    let _ = std::fs::remove_file(data);
    let _ = std::fs::remove_file(journal);
}

/// The recovered structure must be `f(contents, seed)`: a fresh bulk load
/// of the same contents with the stored seed reproduces slot count and
/// occupancy bitmap bit for bit.
fn assert_canonical(reopened: &PersistentDict) {
    let contents = contents_of(reopened);
    let mut reference: DynDict<u64, u64> = builder(0).build();
    reference.bulk_load(contents, reopened.seed());
    assert_eq!(reference.slot_count(), reopened.slot_count());
    assert_eq!(
        reference.occupancy_words().unwrap(),
        reopened.occupancy_words().unwrap(),
        "recovered layout is not f(contents, seed)"
    );
}

#[test]
fn every_kill_point_recovers_a_whole_canonical_image() {
    const SCRIPTS: u64 = 3;
    const SEED: u64 = 0xC4A54;

    let mut kill_points = 0u64;
    let mut rollbacks = 0u64;
    let mut replays = 0u64;

    for script in 0..SCRIPTS {
        // Dry run: learn how many physical block writes the second flush
        // performs, so the kill-point sweep covers every boundary exactly once.
        let path = temp_path(&format!("crash-dry-{script}"));
        let mut oracle = BTreeMap::new();
        let mut dict = open(&path, SEED);
        phase1(&mut dict, &mut oracle, script);
        dict.flush().unwrap();
        let oracle1 = oracle_vec(&oracle);
        let before = dict.store().stats().blocks_written();
        phase2(&mut dict, &mut oracle, script);
        dict.flush().unwrap();
        let writes = dict.store().stats().blocks_written() - before;
        let oracle2 = oracle_vec(&oracle);
        assert_ne!(oracle1, oracle2, "script {script}: phases must differ");
        cleanup(&dict);
        drop(dict);

        for k in 1..=writes {
            let path = temp_path(&format!("crash-{script}-{k}"));
            let mut oracle = BTreeMap::new();
            let mut dict = open(&path, SEED);
            phase1(&mut dict, &mut oracle, script);
            dict.flush().unwrap();
            phase2(&mut dict, &mut oracle, script);
            dict.store_mut()
                .set_fault_plan(FaultPlan::new([Fault::TornWrite { at: k }]));
            let crashed = dict.flush().is_err();
            if crashed {
                assert!(
                    dict.store().is_poisoned(),
                    "k={k}: failed store must poison"
                );
            }
            let data = dict.store().path().to_path_buf();
            let journal = dict.store().journal_path().to_path_buf();
            drop(dict); // the simulated process death

            // A different builder seed on reopen: the stored one must win.
            let reopened = open(&path, SEED ^ 0xFFFF);
            assert_eq!(reopened.seed(), SEED, "k={k}");
            let recovered = contents_of(&reopened);
            if crashed {
                kill_points += 1;
                if recovered == oracle1 {
                    rollbacks += 1;
                } else if recovered == oracle2 {
                    replays += 1;
                } else {
                    panic!(
                        "script {script}, kill point {k}: recovered a torn image \
                         ({} records; expected {} or {})",
                        recovered.len(),
                        oracle1.len(),
                        oracle2.len()
                    );
                }
            } else {
                // The write budget outlasted the flush: it must have completed.
                assert_eq!(recovered, oracle2, "k={k}: complete flush lost data");
            }
            assert_canonical(&reopened);
            drop_paths(&data, &journal);
        }
    }

    assert!(
        kill_points >= 100,
        "only {kill_points} kill points swept; the battery must cover ≥ 100"
    );
    assert!(rollbacks > 0, "no kill point exercised rollback");
    assert!(replays > 0, "no kill point exercised journal replay");
}

#[test]
fn a_poisoned_store_refuses_further_commits() {
    let path = temp_path("crash-poison");
    let mut oracle = BTreeMap::new();
    let mut dict = open(&path, 7);
    phase1(&mut dict, &mut oracle, 0);
    dict.store_mut()
        .set_fault_plan(FaultPlan::new([Fault::TornWrite { at: 3 }]));
    dict.flush().unwrap_err();
    // No amount of retrying on the dead handle may touch the file again.
    let err = dict.flush().unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");
    cleanup(&dict);
}

#[test]
fn crash_on_the_very_first_flush_leaves_an_uninitialized_file() {
    let path = temp_path("crash-first");
    let mut oracle = BTreeMap::new();
    let mut dict = open(&path, 7);
    phase1(&mut dict, &mut oracle, 1);
    dict.store_mut()
        .set_fault_plan(FaultPlan::new([Fault::TornWrite { at: 2 }]));
    dict.flush().unwrap_err();
    let data = dict.store().path().to_path_buf();
    let journal = dict.store().journal_path().to_path_buf();
    drop(dict);

    // There was no previous image to roll back to: reopen must come up
    // empty (and usable), not error out on a half-written file.
    let reopened = open(&path, 7);
    assert_eq!(reopened.len(), 0);
    drop_paths(&data, &journal);
}
