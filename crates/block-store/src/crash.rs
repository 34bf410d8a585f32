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

type Log = Vec<(PathBuf, Op)>;

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
struct Recording;

impl Recording {
    fn start() -> Self {
        LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
        Recording
    }

    /// The operations logged so far.
    fn len(&self) -> usize {
        LOG.with(|log| log.borrow().as_ref().map_or(0, Vec::len))
    }

    fn finish(self) -> Log {
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
}
