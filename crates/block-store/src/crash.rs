//! A crash-state model of the device under a [`BlockStore`], after ALICE
//! ("All File Systems Are Not Created Equal", OSDI 2014) and
//! CrashMonkey/ACE (OSDI 2018): between two barriers a device keeps any
//! subset of the writes issued to a file since its last sync, not only a
//! prefix of them.
//!
//! [`BlockFile`](crate::BlockFile) reports every block write, length change,
//! sync, creation and directory sync to this thread's log while a test
//! records. A crash state then keeps, for each file, everything before its
//! last sync, plus a subset of its later writes and length changes applied
//! in issue order, each write whole or — the last one kept — torn in half.
//! A file whose directory entry was never synced may be missing altogether.
//! The battery enumerates those states at every barrier of a run of commits
//! and holds each to `open`'s contract: the data file whole-old or whole-new,
//! byte-equal to the fault-free image, and the journal all zeros.
//!
//! The same log drives a remnant scan: a strict device on which a cut hands
//! the freed range, with its durable bytes and every write still pending to
//! it, to a pool that is never reused. Freed blocks that are never reused is
//! the strictest placement there is — reuse can only overwrite a remnant —
//! so the scan needs no model of where a filesystem puts blocks. A script of
//! tagged records, committed at several cadences and once crashed after its
//! commit point, must leave no deleted record's tag in either file or in
//! the pool.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One operation on a file, as the device sees it.
#[derive(Debug)]
pub(crate) enum Op {
    /// The file was created; its directory entry is volatile until a
    /// [`Op::DirSync`].
    Create,
    /// The directory entry naming the file was synced.
    DirSync,
    /// One block written.
    Write {
        /// The block id.
        block: u64,
        /// The block's bytes.
        bytes: Vec<u8>,
    },
    /// The file's length set.
    SetLen(u64),
    /// The file synced: its earlier writes and lengths are durable.
    Sync,
}

pub(crate) type Log = Vec<(PathBuf, Op)>;

thread_local! {
    static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
}

/// Appends the op `op` builds on `path` to this thread's log, if a test is
/// recording; builds nothing otherwise.
pub(crate) fn log(path: &Path, op: impl FnOnce() -> Op) {
    LOG.with(|log| {
        if let Some(ops) = log.borrow_mut().as_mut() {
            ops.push((path.to_path_buf(), op()));
        }
    });
}

/// Records this thread's file operations until dropped.
pub(crate) struct Recording;

impl Recording {
    pub(crate) fn start() -> Self {
        LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
        Recording
    }

    /// The operations logged so far.
    fn len(&self) -> usize {
        LOG.with(|log| log.borrow().as_ref().map_or(0, Vec::len))
    }

    pub(crate) fn finish(self) -> Log {
        LOG.with(|log| log.borrow_mut().take().unwrap_or_default())
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        LOG.with(|log| *log.borrow_mut() = None);
    }
}

mod tests {
    use super::*;
    use crate::fault::mix;
    use crate::store::{fnv1a, journal_path_for, FNV_OFFSET};
    use crate::{temp_path, BlockStore, StoreOptions};

    const B: usize = 128;
    /// Epochs of at most this many writes are enumerated exhaustively.
    const EXHAUSTIVE: usize = 12;
    /// Seeded subsets drawn from a larger epoch, beside its prefixes and
    /// suffixes.
    const SAMPLES: u64 = 4096;

    /// One image: total slots, occupied slots, and the record of each.
    type Image = (u64, Vec<u64>, Vec<u64>);

    /// The run's five commits, each after the last: a first image; one
    /// record changed; records appended, so the data file and the journal
    /// grow while the first record block stays clean and the journal grows
    /// past the blocks the commit wrote; a new slot count; and a shrink.
    fn images() -> Vec<Image> {
        let image = |total: u64, slots: Vec<u64>, five: u64| {
            let records = slots
                .iter()
                .map(|&s| if s == 5 { five } else { s * 3 + 1 })
                .collect();
            (total, slots, records)
        };
        vec![
            image(64, (0..22).collect(), 16),
            image(64, (0..22).collect(), 999),
            image(64, (0..40).collect(), 999),
            image(128, (0..128).step_by(3).collect(), 999),
            image(64, (0..10).collect(), 999),
        ]
    }

    fn words_for(total: u64, slots: &[u64]) -> Vec<u64> {
        let mut words = vec![0u64; total.div_ceil(64) as usize];
        for &s in slots {
            words[(s / 64) as usize] |= 1 << (s % 64);
        }
        words
    }

    /// The journal length, in bytes, that a data file of `data_len` bytes
    /// calls for: J = 1 + ⌈8D/B⌉ + D blocks, none for an empty store.
    fn journal_len(data_len: usize) -> usize {
        let d = data_len.div_ceil(B);
        match d {
            0 => 0,
            d => (1 + (d * 8).div_ceil(B) + d) * B,
        }
    }

    fn assert_journal_at_rest(data: &[u8], journal: &[u8], what: &str) {
        assert_eq!(
            journal.len(),
            journal_len(data.len()),
            "{what}: journal length"
        );
        assert!(journal.iter().all(|&x| x == 0), "{what}: journal not zero");
    }

    /// A fault-free run, recorded: the log, where each commit starts and
    /// returns in it, and the data file after each (`images[0]` is the
    /// empty store).
    struct Run {
        ops: Log,
        data: PathBuf,
        journal: PathBuf,
        commits: Vec<(usize, usize)>,
        images: Vec<Vec<u8>>,
    }

    fn record_run(tag: &str) -> Run {
        let data = temp_path(tag);
        let journal = journal_path_for(&data);
        let recording = Recording::start();
        let mut store = BlockStore::open(&data, StoreOptions::new(B)).unwrap();
        let (mut commits, mut committed) = (Vec::new(), vec![Vec::new()]);
        for (total, slots, records) in images() {
            let start = recording.len();
            let words = words_for(total, &slots);
            store
                .commit(&words, total, slots.len() as u64, records, 0xC4A5)
                .unwrap();
            commits.push((start, recording.len()));
            let image = std::fs::read(&data).unwrap();
            let what = format!("after commit {}", committed.len());
            assert_journal_at_rest(&image, &std::fs::read(&journal).unwrap(), &what);
            committed.push(image);
        }
        drop(store);
        let before = recording.len();
        let store = BlockStore::open(&data, StoreOptions::new(B)).unwrap();
        assert_eq!(
            recording.len(),
            before,
            "open of a clean store wrote or synced"
        );
        drop(store);
        let ops = recording.finish();
        Run {
            ops,
            data,
            journal,
            commits,
            images: committed,
        }
    }

    /// A file's state at a crash point: what its last sync made durable and
    /// the writes and lengths issued since (indices into the log).
    #[derive(Default)]
    struct FileState {
        created: bool,
        entry_durable: bool,
        durable: Vec<u8>,
        pending: Vec<usize>,
    }

    fn apply(bytes: &mut Vec<u8>, op: &Op, torn: bool) {
        match op {
            Op::Write { block, bytes: new } => {
                let at = *block as usize * B;
                let n = if torn { new.len() / 2 } else { new.len() };
                if bytes.len() < at + n {
                    bytes.resize(at + n, 0);
                }
                bytes[at..at + n].copy_from_slice(&new[..n]);
            }
            Op::SetLen(len) => bytes.resize(*len as usize, 0),
            Op::Create | Op::DirSync | Op::Sync => {}
        }
    }

    /// The state of `path` after the first `cut` ops of the log.
    fn file_state(ops: &Log, path: &Path, cut: usize) -> FileState {
        let mut state = FileState::default();
        for (i, (p, op)) in ops[..cut].iter().enumerate() {
            if p != path {
                continue;
            }
            match op {
                Op::Create => state.created = true,
                Op::DirSync => state.entry_durable = true,
                Op::Write { .. } | Op::SetLen(_) => state.pending.push(i),
                Op::Sync => {
                    for &j in &state.pending {
                        apply(&mut state.durable, &ops[j].1, false);
                    }
                    state.pending.clear();
                }
            }
        }
        state
    }

    /// The subsets of an epoch of `n` writes a crash may keep, as bit masks
    /// in issue order: all of them up to [`EXHAUSTIVE`] writes, otherwise
    /// every prefix, every suffix and [`SAMPLES`] seeded subsets.
    fn subsets(n: usize, seed: u64) -> Vec<u64> {
        assert!(n < 64, "an epoch of {n} writes");
        let all = (1u64 << n) - 1;
        if n <= EXHAUSTIVE {
            return (0..=all).collect();
        }
        let prefixes = (0..=n).map(|k| (1u64 << k) - 1);
        let suffixes = (0..=n).map(|k| all & !((1u64 << (n - k)) - 1));
        let sampled = (0..SAMPLES).map(|i| mix(seed ^ mix(i)) & all);
        prefixes.chain(suffixes).chain(sampled).collect()
    }

    /// What the enumeration saw.
    #[derive(Debug, Default)]
    struct Tally {
        crash_points: usize,
        largest_epoch: usize,
        states: usize,
        distinct: usize,
        old: usize,
        new: usize,
    }

    /// A hash that tells crash states apart: presence, length and bytes of
    /// each file.
    fn hash_state(files: &[Option<Vec<u8>>]) -> u64 {
        files.iter().fold(FNV_OFFSET, |h, file| {
            let bytes = file.as_deref().unwrap_or(&[]);
            let h = fnv1a(h, &[file.is_some() as u8]);
            fnv1a(fnv1a(h, &bytes.len().to_le_bytes()), bytes)
        })
    }

    /// Every crash state at every barrier of the run — just before each
    /// sync, file or directory, and after the last op — materialised and
    /// opened. Panics on the first state that does not recover whole.
    fn enumerate(run: &Run) -> Tally {
        let paths = [run.data.clone(), run.journal.clone()];
        let cuts = (0..run.ops.len())
            .filter(|&i| matches!(run.ops[i].1, Op::Sync | Op::DirSync))
            .chain([run.ops.len()]);
        let mut tally = Tally::default();
        let mut seen = BTreeSet::new();
        for cut in cuts {
            tally.crash_points += 1;
            let files: Vec<FileState> =
                paths.iter().map(|p| file_state(&run.ops, p, cut)).collect();
            let mut epoch: Vec<usize> = files.iter().flat_map(|f| f.pending.clone()).collect();
            epoch.sort_unstable();
            tally.largest_epoch = tally.largest_epoch.max(epoch.len());
            // A created file whose entry was never synced may be missing.
            let presence: Vec<Vec<bool>> = files
                .iter()
                .map(|f| match (f.created, f.entry_durable) {
                    (true, false) => vec![true, false],
                    _ => vec![true],
                })
                .collect();
            let done = run.commits.iter().filter(|&&(_, end)| end <= cut).count();
            let in_flight = run
                .commits
                .iter()
                .any(|&(start, end)| start < cut && cut < end);
            let allowed = &run.images[done..=done + in_flight as usize];

            for mask in subsets(epoch.len(), cut as u64) {
                let kept: Vec<usize> = (0..epoch.len())
                    .filter(|&k| mask >> k & 1 == 1)
                    .map(|k| epoch[k])
                    .collect();
                let tears = match kept.last() {
                    Some(&last) if matches!(run.ops[last].1, Op::Write { .. }) => 2,
                    _ => 1,
                };
                for torn in 0..tears {
                    for &data_there in &presence[0] {
                        for &journal_there in &presence[1] {
                            let there = [data_there, journal_there];
                            let state: Vec<Option<Vec<u8>>> = (0..2)
                                .map(|f| {
                                    there[f].then(|| {
                                        let mut bytes = files[f].durable.clone();
                                        for (k, &i) in kept.iter().enumerate() {
                                            if run.ops[i].0 == paths[f] {
                                                let tear = torn == 1 && k + 1 == kept.len();
                                                apply(&mut bytes, &run.ops[i].1, tear);
                                            }
                                        }
                                        bytes
                                    })
                                })
                                .collect();
                            tally.states += 1;
                            if !seen.insert(hash_state(&state)) {
                                continue;
                            }
                            tally.distinct += 1;
                            let what = format!(
                                "crash before op {cut}, kept {kept:?}, last torn {}, \
                                 files present {there:?}",
                                torn == 1
                            );
                            match check_state(run, &state, allowed, &what) {
                                0 => tally.old += 1,
                                _ => tally.new += 1,
                            }
                        }
                    }
                }
            }
        }
        tally
    }

    /// Writes one crash state, opens it, and returns which allowed image it
    /// recovered (0 the old one, 1 the new).
    fn check_state(run: &Run, state: &[Option<Vec<u8>>], allowed: &[Vec<u8>], what: &str) -> usize {
        for (path, bytes) in [&run.data, &run.journal].into_iter().zip(state) {
            match bytes {
                // Overwritten in place and cut to length: a file truncated to
                // zero and rewritten is flushed on close by ext4.
                Some(bytes) => {
                    let mut file = std::fs::OpenOptions::new()
                        .write(true)
                        .create(true)
                        .truncate(false)
                        .open(path)
                        .unwrap();
                    file.write_all(bytes).unwrap();
                    file.set_len(bytes.len() as u64).unwrap();
                }
                None => {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        let store = BlockStore::open(&run.data, StoreOptions::new(B).no_sync());
        if let Err(err) = store {
            panic!("{what}: open failed: {err}");
        }
        drop(store);
        let data = std::fs::read(&run.data).unwrap();
        let Some(which) = allowed.iter().position(|image| *image == data) else {
            panic!(
                "{what}: recovered {} data bytes, neither whole-old nor whole-new",
                data.len()
            );
        };
        assert_journal_at_rest(&data, &std::fs::read(&run.journal).unwrap(), what);
        which
    }

    #[test]
    fn every_crash_state_of_a_commit_run_recovers_whole_old_or_whole_new() {
        let run = record_run("crash-states");
        let tally = enumerate(&run);
        let _ = std::fs::remove_file(&run.data);
        let _ = std::fs::remove_file(&run.journal);
        println!("{tally:?}");
        assert_eq!(run.commits.len(), 5);
        assert!(
            tally.largest_epoch > EXHAUSTIVE,
            "{tally:?}: nothing sampled"
        );
        assert!(tally.old > 0 && tally.new > 0, "{tally:?}");
    }

    /// One file on the strict device: its durable bytes, the writes issued
    /// since its last sync (byte offset, bytes), and its length.
    #[derive(Default)]
    struct DeviceFile {
        durable: Vec<u8>,
        pending: Vec<(usize, Vec<u8>)>,
        len: usize,
    }

    /// Where the scan looks: each file's freed pool and its own bytes, data
    /// file first.
    const ORIGINS: [&str; 4] = ["data tail", "data file", "journal cut", "journal"];

    /// Replays the ops of `ops` on `paths` (data file, journal) on the strict
    /// device and counts, by [`ORIGINS`], the aligned words of every byte a
    /// deleted record could survive in that are tags in `deleted`. A cut
    /// hands its freed range — the durable bytes and every pending write
    /// there — to a pool that is never reused; at the end the durable and
    /// pending bytes of both files are scanned with the pool. Records sit at
    /// 8-byte offsets of every block, and every cut is block-aligned, so
    /// aligned words see every tag. Also returns the shrinking cuts of each
    /// file.
    fn remnants(
        ops: &Log,
        paths: &[PathBuf; 2],
        deleted: &BTreeSet<u64>,
    ) -> ([usize; 4], [usize; 2]) {
        let mut files: [DeviceFile; 2] = Default::default();
        let mut pools: [Vec<Vec<u8>>; 2] = Default::default();
        let mut cuts = [0; 2];
        for (path, op) in ops {
            let Some(f) = paths.iter().position(|p| p == path) else {
                continue;
            };
            let file = &mut files[f];
            match op {
                Op::Write { block, bytes } => {
                    let at = *block as usize * B;
                    file.len = file.len.max(at + bytes.len());
                    file.pending.push((at, bytes.clone()));
                }
                Op::SetLen(len) => {
                    let len = *len as usize;
                    if len < file.len {
                        cuts[f] += 1;
                        if file.durable.len() > len {
                            pools[f].push(file.durable.split_off(len));
                        }
                        for (at, bytes) in &mut file.pending {
                            if *at + bytes.len() > len {
                                let keep = len.saturating_sub(*at);
                                pools[f].push(bytes.split_off(keep));
                            }
                        }
                        file.pending.retain(|(_, bytes)| !bytes.is_empty());
                    }
                    file.len = len;
                }
                Op::Sync => {
                    file.durable.resize(file.len, 0);
                    for (at, bytes) in file.pending.drain(..) {
                        file.durable[at..at + bytes.len()].copy_from_slice(&bytes);
                    }
                }
                Op::Create | Op::DirSync => {}
            }
        }
        let mut survivors = [0; 4];
        let mut scan = |origin: usize, bytes: &[u8]| {
            let words = bytes.chunks_exact(8);
            let tags =
                words.filter(|w| deleted.contains(&u64::from_le_bytes((*w).try_into().unwrap())));
            survivors[origin] += tags.count();
        };
        for (f, (file, pool)) in files.iter().zip(&pools).enumerate() {
            pool.iter().for_each(|bytes| scan(2 * f, bytes));
            scan(2 * f + 1, &file.durable);
            file.pending
                .iter()
                .for_each(|(_, bytes)| scan(2 * f + 1, bytes));
        }
        (survivors, cuts)
    }

    /// Operations in the tagged-record script: 256 inserts, 256 deletes and
    /// updates that leave 32 records, then 256 of each kind in turn.
    const SCRIPT_OPS: u64 = 768;

    /// A recorded run of the tagged-record script, and the tags of the
    /// records its final image does not hold.
    struct TaggedRun {
        ops: Log,
        paths: [PathBuf; 2],
        commits: Vec<(usize, usize)>,
        deleted: BTreeSet<u64>,
    }

    /// Runs the tagged-record script against a store: a `BTreeMap` of key →
    /// tag stands in for the engine, every insert and update draws a fresh
    /// tag, and the map is committed — records in key order in the first
    /// `len` slots — after every `cadence` operations and at the end.
    /// `crash` = (commit index, write index) tears that commit at that write
    /// with a [`FaultPlan`], drops the store, and reopens it, which must
    /// recover the commit's image.
    fn tagged_run(name: &str, cadence: u64, crash: Option<(usize, u64)>) -> TaggedRun {
        use crate::{Fault, FaultPlan};
        use std::collections::BTreeMap;
        let data = temp_path(name);
        let paths = [data.clone(), journal_path_for(&data)];
        let recording = Recording::start();
        let mut store = BlockStore::open(&data, StoreOptions::new(B)).unwrap();
        let (mut map, mut issued, mut commits) = (BTreeMap::new(), Vec::new(), Vec::new());
        let fresh_tag = |issued: &mut Vec<u64>| {
            let tag = mix(0x7A65 ^ issued.len() as u64) | 1 << 63;
            issued.push(tag);
            tag
        };
        let mut next_key = 0u64;
        for i in 0..SCRIPT_OPS {
            let pick =
                |map: &BTreeMap<u64, u64>| *map.keys().nth(mix(i) as usize % map.len()).unwrap();
            let kind = match i {
                0..256 => 0,
                256..512 => [1, 2, 2, 2, 2, 2, 2, 2][i as usize % 8],
                _ => i % 3,
            };
            match kind {
                0 => {
                    map.insert(next_key, fresh_tag(&mut issued));
                    next_key += 1;
                }
                1 if !map.is_empty() => {
                    let key = pick(&map);
                    map.insert(key, fresh_tag(&mut issued));
                }
                2 if !map.is_empty() => {
                    map.remove(&pick(&map));
                }
                _ => {}
            }
            if (i + 1) % cadence != 0 && i + 1 != SCRIPT_OPS {
                continue;
            }
            let len = map.len() as u64;
            let total = (2 * len).next_power_of_two().max(64);
            let words = words_for(total, &(0..len).collect::<Vec<_>>());
            let records = map.iter().map(|(&k, &t)| (k, t));
            let start = recording.len();
            match crash {
                Some((at, write)) if at == commits.len() => {
                    store.set_fault_plan(FaultPlan::new([Fault::TornWrite { at: write }]));
                    store.commit(&words, total, len, records, 9).unwrap_err();
                    drop(store);
                    store = BlockStore::open(&data, StoreOptions::new(B)).unwrap();
                    let (_, _, back) = store.load::<(u64, u64)>().unwrap();
                    assert_eq!(back, map.iter().map(|(&k, &t)| (k, t)).collect::<Vec<_>>());
                }
                _ => {
                    store.commit(&words, total, len, records, 9).unwrap();
                }
            }
            commits.push((start, recording.len()));
        }
        drop(store);
        let live: BTreeSet<u64> = map.into_values().collect();
        let deleted = issued.into_iter().filter(|t| !live.contains(t)).collect();
        let ops = recording.finish();
        let _ = std::fs::remove_file(&paths[0]);
        let _ = std::fs::remove_file(&paths[1]);
        TaggedRun {
            ops,
            paths,
            commits,
            deleted,
        }
    }

    /// The remnant oracle: no deleted record's tag survives anywhere on the
    /// strict device — in either file or in what a cut handed back — at a
    /// commit after every 1, 16 and 256 operations, nor in a run whose
    /// shrinking commit is torn after its commit point and replayed by
    /// `open`.
    #[test]
    fn no_deleted_record_survives_on_the_strict_device() {
        let check = |what: &str, run: &TaggedRun| {
            let (survivors, cuts) = remnants(&run.ops, &run.paths, &run.deleted);
            println!(
                "{what}: {} deleted tags, shrinking cuts {cuts:?}, survivors {survivors:?}",
                run.deleted.len()
            );
            assert!(cuts[0] > 0, "{what}: the data file never shrank");
            assert_eq!(survivors, [0; 4], "{what}: deleted tags in {ORIGINS:?}");
        };
        for cadence in [1, 16, 256] {
            check(
                &format!("a commit every {cadence}"),
                &tagged_run("remnants", cadence, None),
            );
        }
        // Commit 1 of the 256 cadence cuts 256 records to 32. It is torn one
        // data write after its commit point, learnt from the fault-free run.
        let dry = tagged_run("remnants-dry", 256, None);
        let (start, end) = dry.commits[1];
        let mut writes = dry.ops[start..end]
            .iter()
            .filter(|(_, op)| matches!(op, Op::Write { .. }));
        let first_data = writes.position(|(path, _)| *path == dry.paths[0]).unwrap();
        check(
            "a torn shrinking commit, replayed",
            &tagged_run("remnants-crash", 256, Some((1, first_data as u64 + 1))),
        );
    }
}
