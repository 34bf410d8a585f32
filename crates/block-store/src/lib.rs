//! # block-store
//!
//! The persistent layer of the anti-persistence reproduction: a real file on
//! a real filesystem, written at block granularity, whose quiescent contents
//! are a pure function of the logical state stored in it.
//!
//! The paper's headline claim (Bender et al., PODS 2016) is history
//! independence *on persistent storage* — it is not enough for the in-RAM
//! layout to be history independent if the bytes that actually hit the disk
//! leak the operation sequence. This crate supplies the storage substrate
//! that makes the claim testable end to end:
//!
//! * [`BlockFile`] — block-granular reads and writes over [`std::fs::File`],
//!   staged through a page-aligned scratch buffer, with a scripted
//!   [`FaultPlan`] that injects the storage fault universe — torn and short
//!   writes, transient and permanent read errors, short reads, disk-full,
//!   seeded bit rot — deterministically at block granularity. With no plan
//!   armed a multi-block transfer is one contiguous read or write.
//!   Transient faults are retried a fixed [`IO_RETRY_ATTEMPTS`] times —
//!   count-based, never clock-based, so behavior stays a pure function of
//!   the fault script.
//! * [`BlockStore`] — a checkpointed image of a slot-array structure (header
//!   block, occupancy-bitmap region, and a record region holding the
//!   fixed-size records packed in rank order — a vacant slot costs one bit)
//!   with a journaled, atomic commit protocol: a torn flush either rolls
//!   back to the previous image or completes on recovery, never anything in
//!   between.
//! * [`Record`] — fixed-size serialization for slot payloads.
//!
//! ## Why the on-disk image is history independent
//!
//! A committed image is generated from exactly three inputs: the occupancy
//! bitmap, the records in slot order, and the header metadata (which
//! includes the layout seed). Every region is zero padded to a block, the
//! journal is zeroed and truncated after every successful commit, and
//! shrinking images truncate the file — so at rest the file contains the
//! serialized layout and nothing else. When the in-RAM layout is itself
//! canonicalized to `f(contents, seed)` before flushing (see the facade's
//! `PersistentDict::flush`), the entire file becomes that same pure
//! function: an observer of the raw bytes learns the contents and nothing
//! about the history, and deleted records leave no trace
//! (`examples/secure_delete_audit.rs` greps the raw bytes to prove it).
//! The guarantee is over the bytes of the two files: truncation hands
//! blocks back to the filesystem without overwriting them.
//!
//! The mid-flush window is the one moment the disk holds more than the
//! image: the journal then contains the dirty blocks of the *new* image —
//! still only post-operation state, never the bytes being replaced.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fault;
mod file;
mod record;
mod store;

pub use fault::{Fault, FaultPlan};
pub use file::{AlignedBuf, BlockFile, FileError, FileStats, IO_RETRY_ATTEMPTS, PAGE_ALIGN};
pub use record::Record;
pub use store::{layout_fingerprint, BlockStore, ScrubReport, StoreMeta, StoreOptions, StoreStats};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique path under the system temp directory, for tests,
/// examples and benches that need a throwaway store file. The caller owns
/// cleanup (`std::fs::remove_file`); the file is not created.
pub fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ap-block-store-{tag}-{}-{seq}.bin",
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_paths_are_unique() {
        let a = temp_path("t");
        let b = temp_path("t");
        assert_ne!(a, b);
    }
}
