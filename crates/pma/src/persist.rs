//! Persisting PMAs: mapping a slot array onto a [`block_store::BlockStore`]
//! image and rebuilding it on open.
//!
//! Any sequence that exposes its occupancy bitmap ([`Occupancy`]) and its
//! elements in rank order ([`RankedSequence`]) serializes with no extra
//! framing: the image is the bitmap plus a record region of the elements
//! packed in rank order, and its k-th set bit owns the k-th element. Two
//! flush flavors exist because the paper's at-rest guarantee and the repo's
//! steady-state allocation guarantee pull in different directions:
//!
//! * [`flush_canonical`] first re-draws the layout from *(contents, seed)*
//!   via [`RankedSequence::bulk_load`], so the committed image is the pure
//!   function `f(contents, seed)` — nothing about the operation history
//!   survives on disk. This is what the facade's `PersistentDict::flush`
//!   does, and what makes [`open_hi_pma`]'s fingerprint verification sound.
//! * [`flush_layout`] writes the current in-RAM layout as-is: allocation-free
//!   in the steady state (the store reuses its page-aligned staging
//!   buffers), weakly history independent at rest — the image is *a* sample
//!   of the layout distribution, not the canonical one.
//!
//! Opening always rebuilds with `bulk_load(records, stored_seed)`, so a
//! reopened structure is `f(contents, seed)` regardless of how the previous
//! process built it.

use block_store::{layout_fingerprint, BlockStore, FileError, Record, StoreMeta};
use hi_common::counters::SharedCounters;
use hi_common::rng::RngSource;
use hi_common::traits::{Occupancy, RankedSequence};
use io_sim::Tracer;
use std::fmt;
use std::io;

use crate::{ClassicPma, DensityBands, HiPma};

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
/// does not reproduce under `(contents, seed)` — instead of grepping
/// message text.
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
            PersistError::Transient { .. } | PersistError::NoSpace => io::ErrorKind::Other,
        };
        io::Error::new(kind, e)
    }
}

/// Commits the sequence's current in-RAM layout. Steady-state calls are
/// allocation-free; the image is weakly history independent (see module
/// docs). Returns the committed generation.
pub fn flush_layout<S, T>(seq: &S, seed: u64, store: &mut BlockStore) -> Result<u64, PersistError>
where
    S: Occupancy + RankedSequence<Item = T>,
    T: Record + Clone,
{
    Ok(store.commit(
        seq.occupancy_words(),
        seq.slot_count() as u64,
        seq.len() as u64,
        seq.iter().cloned(),
        seed,
    )?)
}

/// Re-draws the layout from *(contents, seed)* and commits it: the on-disk
/// image becomes the pure function `f(contents, seed)`.
pub fn flush_canonical<S, T>(
    seq: &mut S,
    seed: u64,
    store: &mut BlockStore,
) -> Result<u64, PersistError>
where
    S: Occupancy + RankedSequence<Item = T>,
    T: Record + Clone,
{
    let items: Vec<T> = seq.iter().cloned().collect();
    seq.bulk_load(items, seed);
    flush_layout(seq, seed, store)
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

/// Rebuilds a [`HiPma`] from a canonical committed image: loads the
/// records, bulk-loads them with the stored seed, and verifies the rebuilt
/// layout reproduces the committed fingerprint.
pub fn open_hi_pma<T>(
    store: &mut BlockStore,
    counters: SharedCounters,
    tracer: Tracer,
    elem_size: u64,
) -> Result<(HiPma<T>, StoreMeta), PersistError>
where
    T: Record + Clone,
{
    let (meta, _words, records) = store.load::<T>()?;
    let mut pma = HiPma::with_parts(RngSource::from_seed(meta.seed), counters, tracer, elem_size);
    pma.bulk_load(records, meta.seed);
    verify_layout(pma.occupancy_words(), pma.slot_count() as u64, &meta)?;
    Ok((pma, meta))
}

/// Rebuilds a [`ClassicPma`] from a canonical committed image (the
/// baseline's bulk load is deterministic in *(contents, seed)* too).
pub fn open_classic_pma<T>(
    store: &mut BlockStore,
    counters: SharedCounters,
    tracer: Tracer,
    elem_size: u64,
) -> Result<(ClassicPma<T>, StoreMeta), PersistError>
where
    T: Record + Clone,
{
    let (meta, _words, records) = store.load::<T>()?;
    let mut pma = ClassicPma::with_parts(DensityBands::standard(), counters, tracer, elem_size);
    pma.bulk_load(records, meta.seed);
    verify_layout(pma.occupancy_words(), pma.slot_count() as u64, &meta)?;
    Ok((pma, meta))
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

    fn hi_pma(seed: u64) -> HiPma<u64> {
        HiPma::with_parts(
            RngSource::from_seed(seed),
            SharedCounters::new(),
            Tracer::disabled(),
            8,
        )
    }

    #[test]
    fn hi_pma_canonical_roundtrip_reproduces_layout_exactly() {
        let path = temp_path("persist-hi");
        let mut store = BlockStore::open(&path, StoreOptions::new(512).no_sync()).unwrap();

        // Build through an arbitrary (history-dependent) insertion order.
        let mut pma = hi_pma(1);
        for k in (0..2_000u64).rev() {
            let rank = pma.lower_bound_by(|x| x.cmp(&k));
            pma.insert_at(rank, k).unwrap();
        }
        flush_canonical(&mut pma, 0xA5EED, &mut store).unwrap();
        let words_at_flush = pma.occupancy_words().to_vec();

        let mut store = BlockStore::open(&path, StoreOptions::new(512).no_sync()).unwrap();
        let (reopened, meta) =
            open_hi_pma::<u64>(&mut store, SharedCounters::new(), Tracer::disabled(), 8).unwrap();
        assert_eq!(meta.seed, 0xA5EED);
        assert_eq!(reopened.len(), 2_000);
        assert_eq!(
            reopened.occupancy_words(),
            &words_at_flush[..],
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
        let mut pma: ClassicPma<(u64, u64)> = ClassicPma::with_parts(
            DensityBands::standard(),
            SharedCounters::new(),
            Tracer::disabled(),
            16,
        );
        for k in 0..500u64 {
            let rank = pma.len();
            pma.insert_at(rank, (k, k * k)).unwrap();
        }
        flush_canonical(&mut pma, 7, &mut store).unwrap();

        let mut store = BlockStore::open(&path, StoreOptions::new(512).no_sync()).unwrap();
        let (reopened, _) = open_classic_pma::<(u64, u64)>(
            &mut store,
            SharedCounters::new(),
            Tracer::disabled(),
            16,
        )
        .unwrap();
        assert_eq!(reopened.len(), 500);
        assert_eq!(reopened.get(499), Some((499, 499 * 499)));
        cleanup(&store);
    }

    #[test]
    fn flush_layout_persists_the_live_image() {
        // The non-canonical flavor: what is committed is the in-RAM layout
        // as it stands, verified by reading the raw image back.
        let path = temp_path("persist-raw");
        let mut store = BlockStore::open(&path, StoreOptions::new(512).no_sync()).unwrap();
        let mut pma = hi_pma(3);
        for k in 0..300u64 {
            let rank = pma.lower_bound_by(|x| x.cmp(&k));
            pma.insert_at(rank, k).unwrap();
        }
        flush_layout(&pma, 99, &mut store).unwrap();
        let (meta, words, records) = store.load::<u64>().unwrap();
        assert_eq!(words, pma.occupancy_words());
        assert_eq!(records, pma.iter().copied().collect::<Vec<_>>());
        assert_eq!(meta.len, 300);
        cleanup(&store);
    }
}
