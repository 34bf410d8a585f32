//! Persisting the HI-PMA: mapping its slot array onto a
//! [`block_store::BlockStore`] image and checking that image on open.
//!
//! The image is an occupancy bitmap plus a record region of the elements
//! packed in rank order, with no extra framing: the k-th set bit owns the
//! k-th element. The paper's at-rest guarantee asks for the image to be the
//! pure function `f(contents, seed)` — the layout `bulk_load(contents, seed)`
//! draws — and that layout's coins go *by rank*: the capacity is drawn from
//! the length, each balance from a window whose bounds are counts. So the
//! bitmap is a function of *(len, seed)* alone
//! ([`HiPma::canonical_occupancy`]), and writing the canonical image never
//! needs the canonical structure: a flush computes the bitmap from the
//! coins and streams the contents in key order behind it. Nothing about the
//! operation history survives on disk, and the in-RAM layout is not
//! touched.
//!
//! Opening is the other half of the contract and computes too: the
//! committed bitmap must be the canonical one for the stored *(len, seed)*
//! ([`verify_layout`] on the computed words) before a record is loaded. An
//! image that is not `f(contents, seed)` is refused by name, whatever
//! process wrote it.

use block_store::{layout_fingerprint, FileError, StoreMeta};
use hi_common::traits::Occupancy;
use std::fmt;
use std::io;

use crate::HiPma;

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
    /// The committed bitmap is not the canonical one for the image's
    /// *(len, seed)* — the image was flushed non-canonically or the store's
    /// contents were tampered with.
    FingerprintMismatch {
        /// Fingerprint recorded in the committed header.
        committed: u64,
        /// Fingerprint of [`HiPma::canonical_occupancy`] for the image's
        /// `(len, seed)`.
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

impl<T: Clone + Default> HiPma<T> {
    /// `(slot_count, occupancy_words)` of `bulk_load(items, seed)` for any
    /// `len` items, computed without them: the planner runs over `len` unit
    /// elements. It only ever asks how many elements a range holds, so it
    /// draws the coin sequence it draws for real ones, and moving a `()`
    /// costs nothing.
    pub fn canonical_occupancy(len: usize, seed: u64) -> (u64, Vec<u64>) {
        let mut unit = HiPma::<()>::new(seed);
        unit.bulk_load(std::iter::repeat_n((), len), seed);
        (unit.slot_count() as u64, unit.occupancy_words())
    }
}

/// Checks that a layout — its occupancy words and slot count — reproduces
/// the committed image's fingerprint: the recovery half of the
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
    use block_store::{temp_path, BlockStore, StoreOptions};
    use hi_common::traits::RankedSequence;

    #[test]
    fn hi_pma_canonical_roundtrip_reproduces_layout_exactly() {
        let path = temp_path("persist-hi");
        let opts = StoreOptions::new(512).no_sync();
        let mut store = BlockStore::open(&path, opts).unwrap();

        // Build through an arbitrary (history-dependent) insertion order.
        let mut pma: HiPma<u64> = HiPma::new(1);
        for k in (0..2_000u64).rev() {
            let rank = pma.lower_bound_by(|x| x.cmp(&k));
            pma.insert_at(rank, k).unwrap();
        }
        let words_in_ram = pma.occupancy_words();
        let (slots, words) = HiPma::<u64>::canonical_occupancy(pma.len(), 0xA5EED);
        let len = pma.len() as u64;
        store
            .commit(&words, slots, len, pma.iter().cloned(), 0xA5EED)
            .unwrap();
        assert_eq!(pma.occupancy_words(), words_in_ram, "flush moved RAM");

        // A reader that loads the records under the stored seed draws the
        // committed layout bit for bit.
        let mut store = BlockStore::open(&path, opts).unwrap();
        let (meta, committed, records) = store.load::<u64>().unwrap();
        assert_eq!(meta.seed, 0xA5EED);
        assert_eq!(committed, words);
        let mut reopened = HiPma::<u64>::new(2);
        reopened.bulk_load(records, meta.seed);
        verify_layout(&reopened.occupancy_words(), slots, &meta).unwrap();
        assert_eq!(reopened.occupancy_words(), committed);
        assert_eq!(
            reopened.iter().copied().collect::<Vec<_>>(),
            (0..2_000u64).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(store.journal_path());
    }

    /// `canonical_occupancy(len, seed)` against `bulk_load` of two unrelated
    /// key sets of that length, around every word boundary and both sides of
    /// the HI-PMA's range-tree height steps, then at lengths and seeds drawn
    /// at random. The HI-PMA's occupancy is computed from its leaf counts, so
    /// this pins the computation to the canonical image word for word.
    #[test]
    fn hi_pma_occupancy_is_a_function_of_len_and_seed() {
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
            let (slots, canonical) = HiPma::<u64>::canonical_occupancy(len, seed);
            let mut pma = HiPma::<u64>::new(seed ^ 0x5A);
            for keys in [|i: u64| i, |i: u64| i * i + 7] {
                pma.bulk_load((0..len as u64).map(keys), seed);
                assert_eq!(pma.len(), len);
                assert_eq!(slots, pma.slot_count() as u64, "len {len} seed {seed}");
                pma.occupancy_into(&mut words);
                assert!(words == canonical, "len {len} seed {seed}");
            }
        }
    }
}
