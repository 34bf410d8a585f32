//! Persisting PMAs: mapping a slot array onto a [`block_store::BlockStore`]
//! image and rebuilding it on open.
//!
//! The image is an occupancy bitmap plus a record region of the elements
//! packed in rank order, with no extra framing: the k-th set bit owns the
//! k-th element. The paper's at-rest guarantee asks for the image to be the
//! pure function `f(contents, seed)` — the layout `bulk_load(contents, seed)`
//! draws — and that layout's coins go *by rank*: the capacity is drawn from
//! the length, each balance from a window whose bounds are counts. So the
//! bitmap is a function of *(len, seed)* alone ([`CanonicalOccupancy`]), and
//! writing the canonical image never needs the canonical structure:
//! [`flush_canonical`] computes the bitmap from the coins and streams the
//! sequence's elements, in the order they already stand in, behind it.
//! Nothing about the operation history survives on disk, and the in-RAM
//! layout is not touched.
//!
//! Opening is the other half of the contract and does redraw: load the
//! records, `bulk_load(records, stored_seed)`, and require the result to
//! reproduce the committed fingerprint ([`verify_layout`]). A reopened
//! structure is `f(contents, seed)` regardless of how the previous process
//! built it, and an image that is not is refused by name.

use block_store::{layout_fingerprint, BlockStore, FileError, Record, StoreMeta};
use hi_common::traits::{Occupancy, RankedSequence};
use std::fmt;
use std::io;

use crate::{ClassicPma, HiPma};

/// A typed error from persisting or reopening a PMA.
///
/// Callers that stay on the facade's `io::Result` surface keep working: the
/// `From` impl folds a `PersistError` back into an [`io::Error`] with the
/// same message text, and keeps the typed value inside it
/// (`err.get_ref()` downcasts to `PersistError`). Callers that care can
/// match the typed variants — [`PersistError::Corrupt`] for a failed
/// checksum, [`PersistError::Transient`] for an error that outlived the
/// retry budget, [`PersistError::NoSpace`] for a full disk,
/// [`PersistError::UnsupportedVersion`] for an intact file of another
/// format version, [`PersistError::FingerprintMismatch`] for an image that
/// does not reproduce under `(contents, seed)`,
/// [`PersistError::SourceOutOfOrder`] for a flush source that broke its
/// ordering contract — instead of grepping message text.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying block store failed (I/O, injected crash, poisoned
    /// handle — everything without a more specific variant below).
    Store(io::Error),
    /// A block of the image failed its checksum, or a decoded structure is
    /// internally inconsistent.
    Corrupt {
        /// The offending block id (0 = header).
        block: u64,
    },
    /// A transient storage error survived the whole bounded retry budget.
    Transient {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The device is out of space.
    NoSpace,
    /// The data file is intact but was committed under another format
    /// version; there is no in-place upgrade (DESIGN.md has the migration
    /// note).
    UnsupportedVersion {
        /// The version the header records.
        found: u64,
        /// The only version this build reads and writes.
        supported: u64,
    },
    /// The layout rebuilt from the stored records and seed does not
    /// reproduce the committed image's fingerprint — the image was flushed
    /// non-canonically or the store's contents were tampered with.
    FingerprintMismatch {
        /// Fingerprint recorded in the committed header.
        committed: u64,
        /// Fingerprint of the layout rebuilt by `bulk_load`.
        rebuilt: u64,
    },
    /// The dictionary handed to a flush did not yield its keys strictly
    /// ascending. Nothing was written: records out of order would reopen
    /// cleanly once the loader sorts them, and the bytes would no longer be
    /// `f(contents, seed)`.
    SourceOutOfOrder {
        /// Rank of the first record whose key does not exceed the one
        /// before it.
        rank: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Store(e) => e.fmt(f),
            PersistError::Corrupt { block } => {
                write!(f, "persisted image corrupt at block {block}")
            }
            PersistError::Transient { attempts } => write!(
                f,
                "transient storage error persisted through {attempts} attempts"
            ),
            PersistError::NoSpace => write!(f, "no space left on device"),
            PersistError::UnsupportedVersion { found, supported } => {
                FileError::UnsupportedVersion {
                    found: *found,
                    supported: *supported,
                }
                .fmt(f)
            }
            PersistError::FingerprintMismatch { committed, rebuilt } => write!(
                f,
                "rebuilt layout does not reproduce the committed fingerprint \
                 (committed {committed:#018x}, rebuilt {rebuilt:#018x}; \
                 was the image flushed non-canonically?)"
            ),
            PersistError::SourceOutOfOrder { rank } => write!(
                f,
                "flush source is not strictly ascending by key at rank {rank}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Store(e)
    }
}

impl From<FileError> for PersistError {
    fn from(e: FileError) -> Self {
        match e {
            FileError::Corrupt { block, .. } => PersistError::Corrupt { block },
            FileError::Transient { attempts } => PersistError::Transient { attempts },
            FileError::NoSpace => PersistError::NoSpace,
            FileError::UnsupportedVersion { found, supported } => {
                PersistError::UnsupportedVersion { found, supported }
            }
            other => PersistError::Store(other.into()),
        }
    }
}

impl From<PersistError> for io::Error {
    fn from(e: PersistError) -> Self {
        let kind = match e {
            PersistError::Store(io) => return io,
            PersistError::Corrupt { .. } | PersistError::FingerprintMismatch { .. } => {
                io::ErrorKind::InvalidData
            }
            PersistError::UnsupportedVersion { .. } => io::ErrorKind::Unsupported,
            PersistError::SourceOutOfOrder { .. } => io::ErrorKind::InvalidInput,
            PersistError::Transient { .. } | PersistError::NoSpace => io::ErrorKind::Other,
        };
        io::Error::new(kind, e)
    }
}

/// Slot-array structures whose `bulk_load` layout has an occupancy that is
/// a function of *(len, seed)* alone.
pub trait CanonicalOccupancy {
    /// `(slot_count, occupancy_words)` of `bulk_load(items, seed)` for any
    /// `len` items, computed without them.
    fn canonical_occupancy(len: usize, seed: u64) -> (u64, Vec<u64>);
}

/// Runs the structure's own planner over `len` unit elements: it only ever
/// asks how many elements a range holds, so it draws the coin sequence it
/// draws for real ones, and moving a `()` costs nothing.
fn unit_occupancy<S>(mut unit: S, len: usize, seed: u64) -> (u64, Vec<u64>)
where
    S: Occupancy + RankedSequence<Item = ()>,
{
    unit.bulk_load(std::iter::repeat_n((), len), seed);
    (unit.slot_count() as u64, unit.occupancy_words())
}

impl<T: Clone> CanonicalOccupancy for HiPma<T> {
    fn canonical_occupancy(len: usize, seed: u64) -> (u64, Vec<u64>) {
        unit_occupancy(HiPma::<()>::new(seed), len, seed)
    }
}

impl<T: Clone> CanonicalOccupancy for ClassicPma<T> {
    fn canonical_occupancy(len: usize, seed: u64) -> (u64, Vec<u64>) {
        unit_occupancy(ClassicPma::<()>::new(), len, seed)
    }
}

/// Commits the canonical image of the sequence's contents — the bytes
/// `bulk_load(contents, seed)` would flush — leaving the sequence as it is:
/// the occupancy comes from *(len, seed)*, the records from one pass over
/// `seq`. Returns the committed generation.
pub fn flush_canonical<S, T>(
    seq: &S,
    seed: u64,
    store: &mut BlockStore,
) -> Result<u64, PersistError>
where
    S: CanonicalOccupancy + RankedSequence<Item = T>,
    T: Record + Clone,
{
    let len = seq.len();
    let (slots, words) = S::canonical_occupancy(len, seed);
    Ok(store.commit(&words, slots, len as u64, seq.iter().cloned(), seed)?)
}

/// Checks that a rebuilt layout — its occupancy words and slot count —
/// reproduces the committed image's fingerprint: the recovery half of the
/// `f(contents, seed)` contract.
pub fn verify_layout(
    words: &[u64],
    total_slots: u64,
    meta: &StoreMeta,
) -> Result<(), PersistError> {
    let fp = layout_fingerprint(words, total_slots);
    if fp == meta.fingerprint {
        Ok(())
    } else {
        Err(PersistError::FingerprintMismatch {
            committed: meta.fingerprint,
            rebuilt: fp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use block_store::{temp_path, StoreOptions};

    fn cleanup(store: &BlockStore) {
        let data = store.path().to_path_buf();
        let journal = store.journal_path().to_path_buf();
        let _ = std::fs::remove_file(data);
        let _ = std::fs::remove_file(journal);
    }

    /// Reopens `path` the way every reader does: load, redraw with the
    /// stored seed, require the committed fingerprint. Returns the redrawn
    /// structure beside the committed words.
    fn reopen<S, T>(path: &std::path::Path, mut fresh: S) -> (S, StoreMeta, Vec<u64>)
    where
        S: Occupancy + RankedSequence<Item = T>,
        T: Record + Clone,
    {
        let mut store = BlockStore::open(path, StoreOptions::new(512).no_sync()).unwrap();
        let (meta, words, records) = store.load::<T>().unwrap();
        fresh.bulk_load(records, meta.seed);
        verify_layout(&fresh.occupancy_words(), fresh.slot_count() as u64, &meta).unwrap();
        (fresh, meta, words)
    }

    #[test]
    fn hi_pma_canonical_roundtrip_reproduces_layout_exactly() {
        let path = temp_path("persist-hi");
        let mut store = BlockStore::open(&path, StoreOptions::new(512).no_sync()).unwrap();

        // Build through an arbitrary (history-dependent) insertion order.
        let mut pma: HiPma<u64> = HiPma::new(1);
        for k in (0..2_000u64).rev() {
            let rank = pma.lower_bound_by(|x| x.cmp(&k));
            pma.insert_at(rank, k).unwrap();
        }
        let words_in_ram = pma.occupancy_words();
        flush_canonical(&pma, 0xA5EED, &mut store).unwrap();
        assert_eq!(pma.occupancy_words(), words_in_ram, "flush moved RAM");

        let (reopened, meta, committed) = reopen(&path, HiPma::<u64>::new(2));
        assert_eq!(meta.seed, 0xA5EED);
        assert_eq!(reopened.len(), 2_000);
        assert_eq!(
            reopened.occupancy_words(),
            committed,
            "reopen must reproduce the canonical layout bit for bit"
        );
        assert_eq!(
            reopened.iter().copied().collect::<Vec<_>>(),
            (0..2_000u64).collect::<Vec<_>>()
        );
        cleanup(&store);
    }

    #[test]
    fn classic_pma_roundtrips_too() {
        let path = temp_path("persist-classic");
        let mut store = BlockStore::open(&path, StoreOptions::new(512).no_sync()).unwrap();
        let mut pma: ClassicPma<(u64, u64)> = ClassicPma::new();
        for k in 0..500u64 {
            let rank = pma.len();
            pma.insert_at(rank, (k, k * k)).unwrap();
        }
        flush_canonical(&pma, 7, &mut store).unwrap();

        let (reopened, _, committed) = reopen(&path, ClassicPma::<(u64, u64)>::new());
        assert_eq!(reopened.occupancy_words(), committed);
        assert_eq!(reopened.len(), 500);
        assert_eq!(reopened.get(499), Some((499, 499 * 499)));
        cleanup(&store);
    }

    /// `canonical_occupancy(len, seed)` against `bulk_load` of two unrelated
    /// key sets of that length, around every word boundary and both sides of
    /// the HI-PMA's range-tree height steps, then at lengths and seeds drawn
    /// at random. The HI-PMA's occupancy is computed from its leaf counts, so
    /// this pins the computation to the canonical image word for word.
    fn assert_occupancy_is_a_function_of_len_and_seed<S>(fresh: impl Fn(u64) -> S)
    where
        S: CanonicalOccupancy + Occupancy + RankedSequence<Item = u64>,
    {
        const LENS: [usize; 11] = [0, 1, 2, 63, 64, 65, 1_000, 65_536, 65_537, 140_046, 140_047];
        let fixed = [1u64, 0xA5EED, u64::MAX]
            .into_iter()
            .flat_map(|seed| LENS.map(|len| (len, seed)));
        let mut state = 0x0CC0_9A4Eu64;
        let drawn = std::iter::repeat_with(move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize % 20_000, state.rotate_left(17))
        });
        let mut words = Vec::new();
        for (len, seed) in fixed.chain(drawn.take(24)) {
            let (slots, canonical) = S::canonical_occupancy(len, seed);
            let mut pma = fresh(seed ^ 0x5A);
            for keys in [|i: u64| i, |i: u64| i * i + 7] {
                pma.bulk_load((0..len as u64).map(keys), seed);
                assert_eq!(pma.len(), len);
                assert_eq!(slots, pma.slot_count() as u64, "len {len} seed {seed}");
                pma.occupancy_into(&mut words);
                assert!(words == canonical, "len {len} seed {seed}");
            }
        }
    }

    #[test]
    fn hi_pma_occupancy_is_a_function_of_len_and_seed() {
        assert_occupancy_is_a_function_of_len_and_seed(HiPma::<u64>::new);
    }

    #[test]
    fn classic_pma_occupancy_is_a_function_of_len_and_seed() {
        assert_occupancy_is_a_function_of_len_and_seed(|_| ClassicPma::<u64>::new());
    }
}
