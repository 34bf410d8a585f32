//! Chaos soak battery: the full storage-fault universe against the
//! journaled block store, end to end through the facade.
//!
//! Where `tests/block_store_crash.rs` sweeps one fault kind (the torn
//! write) over every kill point, this battery crosses **every fault kind**
//! of [`FaultPlan`] with a spread of injection sites and several
//! deterministic op scripts, and checks the *tri-state invariant* at every
//! cell — exactly one of:
//!
//! 1. **correct success**: the operation completes, and the at-rest data
//!    bytes are byte-identical to a fault-free run of the same script
//!    (history independence makes that comparison exact, not just
//!    semantic);
//! 2. **typed error**: the operation fails with a typed
//!    `PersistError`/`FileError` variant — never a panic, never silently
//!    wrong data;
//! 3. **whole-old-or-whole-new recovery**: after a mid-commit failure,
//!    reopening recovers exactly the previous image or exactly the
//!    interrupted one (and its bytes match the corresponding fault-free
//!    image), never a torn mixture.
//!
//! Additionally, read-side faults must never mutate the at-rest bytes, and
//! the exhaustive bit-flip fuzz flips every byte of a committed image (and
//! of a mid-commit data+journal pair) one at a time: `open`+`load` must
//! either reject the flip with a typed error or recover a whole image.
//!
//! Setting `CHAOS_SMOKE=1` shrinks the sweep (fewer scripts and sites, a
//! stride over the fuzz) for CI smoke runs; seeds are fixed either way, so
//! every cell is replayable.

use std::collections::BTreeMap;

use anti_persistence::dict::{Backend, Dict};
use anti_persistence::prelude::*;
use block_store::temp_path;

const BLOCK: usize = 512;

fn smoke() -> bool {
    std::env::var("CHAOS_SMOKE").is_ok()
}

fn scripts() -> u64 {
    if smoke() {
        1
    } else {
        3
    }
}

/// Spreads at most `n` injection sites over `1..=total`, always including
/// both endpoints (the first possible failure and the "fault never fires"
/// boundary).
fn sites(total: u64) -> Vec<u64> {
    let n = if smoke() { 4 } else { 10 };
    if total <= n {
        (1..=total).collect()
    } else {
        (0..n).map(|i| 1 + i * (total - 1) / (n - 1)).collect()
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Phase 1: a deterministic base load. Mirrored into `oracle`.
fn phase1(dict: &mut PersistentDict, oracle: &mut BTreeMap<u64, u64>, script: u64) {
    let mut state = script.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for i in 0..200u64 {
        let k = lcg(&mut state) % 10_000;
        dict.insert(k, i);
        oracle.insert(k, i);
    }
}

/// Phase 2: a mixed insert/remove workload that changes the key set (so
/// the two committed images genuinely differ). Mirrored into `oracle`.
fn phase2(dict: &mut PersistentDict, oracle: &mut BTreeMap<u64, u64>, script: u64) {
    let mut state = script.wrapping_mul(0xD1B54A32D192ED03) | 1;
    for i in 0..150u64 {
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

fn open(path: &std::path::Path, seed: u64) -> PersistentDict {
    Dict::builder()
        .backend(Backend::HiPma)
        .seed(seed)
        .build_persistent_with(path, StoreOptions::new(BLOCK).no_sync())
        .unwrap()
}

fn drop_paths(data: &std::path::Path, journal: &std::path::Path) {
    let _ = std::fs::remove_file(data);
    let _ = std::fs::remove_file(journal);
}

/// The write-side soak: every write-fault kind × a spread of write indices
/// × every script, with the tri-state invariant checked at each cell.
#[test]
fn every_write_fault_cell_lands_in_the_tri_state() {
    const SEED: u64 = 0x50AC;
    const KINDS: usize = 5;

    let mut successes = 0u64;
    let mut typed_failures = 0u64;
    let mut rollbacks = 0u64;
    let mut replays = 0u64;

    for script in 0..scripts() {
        // Fault-free reference run: the oracle contents and the exact
        // at-rest bytes after each of the two flushes. History independence
        // makes these bytes reproducible in every trial below.
        let path = temp_path(&format!("chaos-ref-{script}"));
        let mut oracle = BTreeMap::new();
        let mut dict = open(&path, SEED);
        phase1(&mut dict, &mut oracle, script);
        dict.flush().unwrap();
        let oracle1 = oracle_vec(&oracle);
        let (ref1, _) = dict.store().raw_bytes().unwrap();
        let before = dict.store().stats().blocks_written();
        phase2(&mut dict, &mut oracle, script);
        dict.flush().unwrap();
        let writes = dict.store().stats().blocks_written() - before;
        let oracle2 = oracle_vec(&oracle);
        let (ref2, _) = dict.store().raw_bytes().unwrap();
        assert_ne!(oracle1, oracle2, "script {script}: phases must differ");
        let (d, j) = (
            dict.store().path().to_path_buf(),
            dict.store().journal_path().to_path_buf(),
        );
        drop(dict);
        drop_paths(&d, &j);

        for kind in 0..KINDS {
            for &at in &sites(writes) {
                let fault = match kind {
                    0 => Fault::TornWrite { at },
                    1 => Fault::ShortWrite { at },
                    2 => Fault::WriteTransient {
                        at,
                        times: IO_RETRY_ATTEMPTS - 1,
                    },
                    3 => Fault::WriteTransient {
                        at,
                        times: IO_RETRY_ATTEMPTS,
                    },
                    _ => Fault::NoSpace { at },
                };
                let tag = format!("script {script}, kind {kind}, site {at}");
                let path = temp_path(&format!("chaos-w-{script}-{kind}-{at}"));
                let mut oracle = BTreeMap::new();
                let mut dict = open(&path, SEED);
                phase1(&mut dict, &mut oracle, script);
                dict.flush().unwrap();
                phase2(&mut dict, &mut oracle, script);
                dict.store_mut().set_fault_plan(FaultPlan::new([fault]));
                let (d, j) = (
                    dict.store().path().to_path_buf(),
                    dict.store().journal_path().to_path_buf(),
                );
                match dict.flush() {
                    Ok(_) => {
                        // Arm 1: correct success — bytes identical to the
                        // fault-free run, nothing poisoned.
                        successes += 1;
                        assert!(
                            !dict.store().is_poisoned(),
                            "{tag}: success must not poison"
                        );
                        assert_eq!(contents_of(&dict), oracle2, "{tag}");
                        let (data, _) = dict.store().raw_bytes().unwrap();
                        assert_eq!(
                            data, ref2,
                            "{tag}: a faulted-but-successful flush must be \
                             byte-identical to the fault-free image"
                        );
                        // A within-budget transient is *required* to succeed.
                        if kind == 2 {
                            assert!(at <= writes, "{tag}");
                        }
                    }
                    Err(err) => {
                        // Arm 2: typed error. The retry budget and the
                        // disk-full condition carry their own variants.
                        typed_failures += 1;
                        match (kind, &err) {
                            (3, PersistError::Transient { attempts }) => {
                                assert_eq!(*attempts, IO_RETRY_ATTEMPTS, "{tag}")
                            }
                            (3, other) => panic!("{tag}: expected Transient, got {other:?}"),
                            (4, PersistError::NoSpace) => {}
                            (4, other) => panic!("{tag}: expected NoSpace, got {other:?}"),
                            _ => {}
                        }
                        assert!(
                            dict.store().is_poisoned(),
                            "{tag}: a failed commit must poison the handle"
                        );
                        assert!(
                            dict.flush().is_err(),
                            "{tag}: a poisoned store must refuse further commits"
                        );
                        drop(dict);

                        // Arm 3: whole-old-or-whole-new recovery, with the
                        // recovered bytes matching the corresponding
                        // fault-free image exactly.
                        let reopened = open(&path, SEED);
                        let recovered = contents_of(&reopened);
                        let (data, _) = reopened.store().raw_bytes().unwrap();
                        if recovered == oracle1 {
                            rollbacks += 1;
                            assert_eq!(data, ref1, "{tag}: rollback bytes");
                        } else if recovered == oracle2 {
                            replays += 1;
                            assert_eq!(data, ref2, "{tag}: replay bytes");
                        } else {
                            panic!(
                                "{tag}: recovered a torn image ({} records; \
                                 expected {} or {})",
                                recovered.len(),
                                oracle1.len(),
                                oracle2.len()
                            );
                        }
                        drop_paths(&d, &j);
                        continue;
                    }
                }
                drop(dict);
                drop_paths(&d, &j);
            }
        }
    }

    assert!(successes > 0, "no cell exercised the success arm");
    assert!(typed_failures > 0, "no cell exercised the typed-error arm");
    assert!(rollbacks > 0, "no cell exercised rollback recovery");
    if !smoke() {
        assert!(replays > 0, "no cell exercised journal-replay recovery");
    }
}

/// The read-side soak: every read-fault kind × a spread of read indices
/// (or block ids) × every script. Reads either succeed with exactly the
/// committed contents or fail typed — and never mutate the at-rest bytes.
#[test]
fn every_read_fault_cell_is_typed_and_leaves_the_image_intact() {
    const SEED: u64 = 0x5EED;
    const KINDS: usize = 5;

    let mut successes = 0u64;
    let mut typed_failures = 0u64;

    for script in 0..scripts() {
        let path = temp_path(&format!("chaos-r-{script}"));
        let mut oracle = BTreeMap::new();
        let mut dict = open(&path, SEED);
        phase1(&mut dict, &mut oracle, script);
        phase2(&mut dict, &mut oracle, script);
        dict.flush().unwrap();
        let committed = oracle_vec(&oracle);
        let (d, j) = (
            dict.store().path().to_path_buf(),
            dict.store().journal_path().to_path_buf(),
        );
        drop(dict);

        // Count the load's logical reads with an armed-but-empty plan, so
        // the site spread covers the whole read stream.
        let mut store = BlockStore::open(&path, StoreOptions::new(BLOCK).no_sync()).unwrap();
        let probe = FaultPlan::new([]);
        store.set_fault_plan(probe.clone());
        let (_, _, records) = store.load::<(u64, u64)>().unwrap();
        assert_eq!(records, committed, "script {script}: probe load");
        let reads = probe.reads_begun();
        assert!(reads > 0, "script {script}: load must read");
        drop(store);
        let ref_bytes = std::fs::read(&path).unwrap();
        let data_blocks = ref_bytes.len() as u64 / BLOCK as u64;

        for kind in 0..KINDS {
            // Kind 3 targets absolute block ids; the others logical read
            // indices (0-based, hence `site - 1`).
            let span = if kind == 3 { data_blocks } else { reads };
            for &site in &sites(span) {
                let at = site - 1;
                let fault = match kind {
                    0 => Fault::ReadTransient {
                        at,
                        times: IO_RETRY_ATTEMPTS - 1,
                    },
                    1 => Fault::ReadTransient {
                        at,
                        times: IO_RETRY_ATTEMPTS,
                    },
                    2 => Fault::ShortRead { at },
                    3 => Fault::ReadError { block: at },
                    _ => Fault::BitRot {
                        seed: script * 1_000 + at,
                        one_in: 1,
                    },
                };
                let tag = format!("script {script}, kind {kind}, site {at}");
                let mut store =
                    BlockStore::open(&path, StoreOptions::new(BLOCK).no_sync()).unwrap();
                store.set_fault_plan(FaultPlan::new([fault]));
                match store.load::<(u64, u64)>() {
                    Ok((_, _, recs)) => {
                        successes += 1;
                        assert_eq!(recs, committed, "{tag}: a successful load must be exact");
                        // A within-budget transient is required to succeed.
                        if kind == 1 || kind == 2 || kind == 3 {
                            panic!("{tag}: this fault kind cannot succeed");
                        }
                    }
                    Err(err) => {
                        typed_failures += 1;
                        match (kind, &err) {
                            (0, other) => panic!(
                                "{tag}: a within-budget transient must be retried \
                                 to success, got {other:?}"
                            ),
                            (1, FileError::Transient { attempts }) => {
                                assert_eq!(*attempts, IO_RETRY_ATTEMPTS, "{tag}")
                            }
                            (1, other) => panic!("{tag}: expected Transient, got {other:?}"),
                            (2, FileError::ShortRead { .. }) => {}
                            (2, other) => panic!("{tag}: expected ShortRead, got {other:?}"),
                            (4, FileError::Corrupt { .. }) => {}
                            (4, other) => panic!(
                                "{tag}: bit rot must surface as a checksum failure, \
                                 got {other:?}"
                            ),
                            _ => {}
                        }
                    }
                }
                drop(store);
                // Read-side faults must never mutate the at-rest bytes.
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    ref_bytes,
                    "{tag}: a read fault mutated the file"
                );
            }
        }

        // Bit rot on the scrub path: the sweep sees the rotted blocks;
        // disarming shows the rot was read-side only.
        let mut store = BlockStore::open(&path, StoreOptions::new(BLOCK).no_sync()).unwrap();
        store.set_fault_plan(FaultPlan::new([Fault::BitRot {
            seed: script,
            one_in: 1,
        }]));
        let report = store.scrub().unwrap();
        assert!(
            !report.is_clean(),
            "script {script}: scrub under universal bit rot must report corruption"
        );
        store.set_fault_plan(FaultPlan::none());
        store.verify_all().expect("the platter itself is clean");
        drop(store);
        drop_paths(&d, &j);
    }

    assert!(successes > 0, "no cell exercised the success arm");
    assert!(typed_failures > 0, "no cell exercised the typed-error arm");
}

/// Exhaustive single-byte fuzz over a committed image: every flipped byte
/// must be rejected typed. The integrity chain (header self-checksum →
/// checksum-region root → per-block words, plus the structural padding
/// checks) covers every byte of the file, so no flip may load.
#[test]
fn flipping_any_byte_of_a_committed_image_is_rejected_typed() {
    const SEED: u64 = 0xB17;
    let path = temp_path("chaos-flip");
    let mut dict = open(&path, SEED);
    for k in 0..40u64 {
        dict.insert(k * 7, k);
    }
    dict.flush().unwrap();
    let committed = contents_of(&dict);
    let (d, j) = (
        dict.store().path().to_path_buf(),
        dict.store().journal_path().to_path_buf(),
    );
    drop(dict);
    let ref_bytes = std::fs::read(&path).unwrap();

    let step = if smoke() { 13 } else { 1 };
    let mut rejected = 0u64;
    for i in (0..ref_bytes.len()).step_by(step) {
        let mut mutated = ref_bytes.clone();
        mutated[i] ^= 0xFF;
        std::fs::write(&path, &mutated).unwrap();
        let _ = std::fs::remove_file(&j);
        let outcome = BlockStore::open(&path, StoreOptions::new(BLOCK).no_sync())
            .and_then(|mut s| s.load::<(u64, u64)>());
        match outcome {
            Ok((_, _, recs)) => {
                panic!(
                    "byte {i}/{}: a flipped image loaded ({} records, committed {}) — \
                     this byte is not covered by the integrity chain",
                    ref_bytes.len(),
                    recs.len(),
                    committed.len()
                );
            }
            Err(_) => rejected += 1, // typed; a panic would abort the test
        }
    }
    assert!(rejected > 0);
    drop_paths(&d, &j);
}

/// Exhaustive single-byte fuzz over a *mid-commit* state (data + journal
/// from a crashed flush, at an early and a late kill point): every flip
/// must either recover a whole image — exactly the old or exactly the new
/// contents — or fail typed. Never a panic, never a torn mixture.
#[test]
fn flipping_any_byte_of_a_mid_commit_state_recovers_whole_or_rejects_typed() {
    const SEED: u64 = 0xF1A;
    // Learn the crashed flush's data write count once.
    let path = temp_path("chaos-mid-dry");
    let mut oracle = BTreeMap::new();
    let mut dict = open(&path, SEED);
    phase1(&mut dict, &mut oracle, 0);
    dict.flush().unwrap();
    let oracle1 = oracle_vec(&oracle);
    let before = dict.store().stats().data.blocks_written;
    phase2(&mut dict, &mut oracle, 0);
    dict.flush().unwrap();
    let data_writes = dict.store().stats().data.blocks_written - before;
    let oracle2 = oracle_vec(&oracle);
    let (d, j) = (
        dict.store().path().to_path_buf(),
        dict.store().journal_path().to_path_buf(),
    );
    drop(dict);
    drop_paths(&d, &j);

    // An early kill (mid-journal, pre-commit-point) and a late one
    // (mid-data, post-commit-point). The flush writes the journal's ids,
    // payload and header, then the data blocks, then the zeros that retire
    // the journal.
    let journal_writes = 1 + (data_writes * 8).div_ceil(BLOCK as u64) + data_writes;
    let kill_points = [2, journal_writes + data_writes - 1];
    let step = if smoke() { 13 } else { 1 };
    let mut recovered_old = 0u64;
    let mut recovered_new = 0u64;
    let mut rejected = 0u64;

    for (which, &kill) in kill_points.iter().enumerate() {
        let path = temp_path(&format!("chaos-mid-{which}"));
        let mut oracle = BTreeMap::new();
        let mut dict = open(&path, SEED);
        phase1(&mut dict, &mut oracle, 0);
        dict.flush().unwrap();
        phase2(&mut dict, &mut oracle, 0);
        dict.store_mut()
            .set_fault_plan(FaultPlan::new([Fault::TornWrite { at: kill }]));
        dict.flush().unwrap_err();
        let (d, j) = (
            dict.store().path().to_path_buf(),
            dict.store().journal_path().to_path_buf(),
        );
        drop(dict);
        let data_ref = std::fs::read(&d).unwrap();
        let journal_ref = std::fs::read(&j).unwrap_or_default();

        // Flip sites: every byte of the data file, then every byte of the
        // journal (offset past the data length in the combined index).
        let total = data_ref.len() + journal_ref.len();
        for i in (0..total).step_by(step) {
            let mut data = data_ref.clone();
            let mut journal = journal_ref.clone();
            if i < data.len() {
                data[i] ^= 0xFF;
            } else {
                journal[i - data.len()] ^= 0xFF;
            }
            std::fs::write(&d, &data).unwrap();
            std::fs::write(&j, &journal).unwrap();
            let outcome = BlockStore::open(&path, StoreOptions::new(BLOCK).no_sync())
                .and_then(|mut s| s.load::<(u64, u64)>());
            match outcome {
                Ok((_, _, recs)) => {
                    if recs == oracle1 {
                        recovered_old += 1;
                    } else if recs == oracle2 {
                        recovered_new += 1;
                    } else {
                        panic!(
                            "kill {kill}, flip {i}: recovered a torn image \
                             ({} records; expected {} or {})",
                            recs.len(),
                            oracle1.len(),
                            oracle2.len()
                        );
                    }
                }
                Err(_) => rejected += 1, // typed; never a panic
            }
        }
        drop_paths(&d, &j);
    }

    assert!(
        recovered_old > 0,
        "no flip recovered the previous image (rollback)"
    );
    assert!(rejected > 0, "no flip was rejected typed");
    // The late kill point leaves a complete journal; most of its data-file
    // flips are repaired by replay.
    assert!(
        recovered_new > 0,
        "no flip recovered the interrupted image (replay)"
    );
}
