//! # anti-persistence
//!
//! A from-scratch Rust reproduction of *“Anti-Persistence on Persistent
//! Storage: History-Independent Sparse Tables and Dictionaries”* (Bender,
//! Berry, Johnson, Kroeger, McCauley, Phillips, Simon, Singh, Zage —
//! PODS 2016).
//!
//! A data structure is **history independent** when its bit representation
//! reveals nothing about the sequence of operations that produced its current
//! state — only the state itself. This crate provides weakly
//! history-independent, I/O-efficient alternatives to the B-tree:
//!
//! | Structure | Crate | Paper result |
//! |---|---|---|
//! | History-independent packed-memory array | [`pma::HiPma`] | Theorem 1: `O(log²N)` amortized moves whp, `O(log²N/B + log_B N)` I/Os |
//! | History-independent cache-oblivious B-tree | [`cob_btree::CobBTree`] | Theorem 2: B-tree-like bounds with no knowledge of `B` |
//! | History-independent external-memory skip list | [`skiplist::ExternalSkipList`] | Theorem 3: `O(log_B N)` searches/updates whp |
//! | Classic PMA, folklore B-skip list, external B-tree | [`pma::ClassicPma`], [`skiplist`], [`btree::BTree`] | the baselines the paper compares against |
//!
//! Everything runs on a simulated disk-access-machine ([`io_sim`]) so the
//! paper's I/O bounds can be measured, not just proved.
//!
//! ## Quick start: one builder, any engine
//!
//! The whole point of a history-independent dictionary is that it drops in
//! for a conventional index. The [`dict`] module makes that literal: a
//! single builder constructs any of the seven backends, and the call sites
//! never change.
//!
//! ```
//! use anti_persistence::prelude::*;
//!
//! // A keyed, history-independent index (the cache-oblivious B-tree).
//! let mut index: DynDict<u64, String> = Dict::builder()
//!     .backend(Backend::CobBTree)
//!     .seed(0xDEADBEEF) // the structure's secret coins
//!     .build();
//! index.insert(3, "three".into());
//! index.insert(1, "one".into());
//! index.insert(2, "two".into());
//! index.remove(&2);
//!
//! // Zero-copy reads: borrow values, iterate lazily — no Vec per query.
//! assert_eq!(index.get_ref(&1), Some(&"one".to_string()));
//! assert_eq!(index.range_iter(0..=9).count(), 2);
//! assert_eq!(index.keys().copied().collect::<Vec<_>>(), vec![1, 3]);
//!
//! // The owned convenience API is still there (thin wrappers).
//! assert_eq!(index.get(&1), Some("one".into()));
//! assert_eq!(index.range(&0, &9).len(), 2);
//! // The on-disk layout is a function of the *contents* plus secret coins —
//! // nothing about the insertion order or the deleted key can be recovered
//! // from it (weak history independence).
//! ```
//!
//! Swapping the engine is a one-word change — or a runtime value:
//!
//! ```
//! use anti_persistence::prelude::*;
//!
//! for backend in Backend::ALL {
//!     let mut index: DynDict<u64, u64> = Dict::builder().backend(backend).seed(42).build();
//!     index.extend((0..100u64).map(|k| (k, k * k)));
//!     assert_eq!(index.get(&7), Some(49));
//!     assert_eq!(index.successor(&55).unwrap(), (55, 55 * 55));
//!     assert_eq!(index.predecessor(&200).unwrap().0, 99);
//!     assert_eq!(index.range_iter(10..20).count(), 10);
//! }
//! ```
//!
//! ### Per-backend doctests (identical call sites)
//!
//! The conventional B-tree baseline:
//!
//! ```
//! use anti_persistence::prelude::*;
//! let mut d: DynDict<u64, u64> = Dict::builder().backend(Backend::BTree).fanout(64).build();
//! d.extend([(2, 20), (1, 10)]);
//! assert_eq!((d.get(&1), d.successor(&2)), (Some(10), Some((2, 20))));
//! ```
//!
//! The HI cache-oblivious B-tree (Theorem 2):
//!
//! ```
//! use anti_persistence::prelude::*;
//! let mut d: DynDict<u64, u64> = Dict::builder().backend(Backend::CobBTree).seed(1).build();
//! d.extend([(2, 20), (1, 10)]);
//! assert_eq!((d.get(&1), d.successor(&2)), (Some(10), Some((2, 20))));
//! ```
//!
//! The HI external skip list (Theorem 3):
//!
//! ```
//! use anti_persistence::prelude::*;
//! let mut d: DynDict<u64, u64> = Dict::builder()
//!     .backend(Backend::HiSkipList)
//!     .block_elems(64)
//!     .epsilon(0.5)
//!     .seed(1)
//!     .build();
//! d.extend([(2, 20), (1, 10)]);
//! assert_eq!((d.get(&1), d.successor(&2)), (Some(10), Some((2, 20))));
//! ```
//!
//! The folklore B-skip list (Lemma 15 baseline):
//!
//! ```
//! use anti_persistence::prelude::*;
//! let mut d: DynDict<u64, u64> =
//!     Dict::builder().backend(Backend::FolkloreSkipList).seed(1).build();
//! d.extend([(2, 20), (1, 10)]);
//! assert_eq!((d.get(&1), d.successor(&2)), (Some(10), Some((2, 20))));
//! ```
//!
//! The in-memory skip list run on disk:
//!
//! ```
//! use anti_persistence::prelude::*;
//! let mut d: DynDict<u64, u64> =
//!     Dict::builder().backend(Backend::InMemorySkipList).seed(1).build();
//! d.extend([(2, 20), (1, 10)]);
//! assert_eq!((d.get(&1), d.successor(&2)), (Some(10), Some((2, 20))));
//! ```
//!
//! The HI PMA (Theorem 1) behind the keyed adapter:
//!
//! ```
//! use anti_persistence::prelude::*;
//! let mut d: DynDict<u64, u64> = Dict::builder().backend(Backend::HiPma).seed(1).build();
//! d.extend([(2, 20), (1, 10)]);
//! assert_eq!((d.get(&1), d.successor(&2)), (Some(10), Some((2, 20))));
//! ```
//!
//! The classic density-band PMA behind the keyed adapter:
//!
//! ```
//! use anti_persistence::prelude::*;
//! let mut d: DynDict<u64, u64> = Dict::builder().backend(Backend::ClassicPma).build();
//! d.extend([(2, 20), (1, 10)]);
//! assert_eq!((d.get(&1), d.successor(&2)), (Some(10), Some((2, 20))));
//! ```
//!
//! ## Batch loading with fresh coins
//!
//! [`Dictionary::bulk_load`](hi_common::Dictionary::bulk_load) replaces a
//! dictionary's contents in `O(n log n)` while re-drawing every layout coin
//! from an explicit seed, so the result is a pure function of
//! *(contents, seed)* — same guarantee as building incrementally, at a
//! fraction of the cost:
//!
//! ```
//! use anti_persistence::prelude::*;
//!
//! let mut a: DynDict<u64, u64> = Dict::builder().backend(Backend::CobBTree).seed(1).build();
//! let mut b: DynDict<u64, u64> = Dict::builder().backend(Backend::CobBTree).seed(2).build();
//! a.bulk_load((0..1000u64).map(|k| (k, k)), 77);
//! b.bulk_load((0..1000u64).rev().map(|k| (k, k)), 77); // reversed arrival order
//! assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
//! ```
//!
//! ## Uniform instrumentation
//!
//! Hand the builder an [`io_sim::IoConfig`] and every engine — cache-aware
//! or cache-oblivious — reports block transfers into one
//! [`io_sim::IoStats`] ledger, plus operation counts into one
//! [`hi_common::counters::SharedCounters`]:
//!
//! ```
//! use anti_persistence::prelude::*;
//!
//! let mut d: DynDict<u64, u64> = Dict::builder()
//!     .backend(Backend::BTree)
//!     .io(IoConfig::new(4096, 1024))
//!     .build();
//! for k in 0..1000 {
//!     d.insert(k, k);
//! }
//! assert!(d.io_stats().transfers() > 0);
//! assert_eq!(d.counters().snapshot().inserts, 1000);
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` / `EXPERIMENTS.md`
//! for the experiment-by-experiment reproduction of the paper's evaluation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
// The determinism gate at `[workspace.lints]`'s levels, stated here because
// this package's tests and examples share its manifest.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod dict;

pub use block_store;
pub use btree;
pub use cob_btree;
pub use hi_common;
pub use io_sim;
pub use pma;
pub use shard;
pub use skiplist;
pub use veb_tree;
pub use workloads;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::dict::{
        Backend, Dict, DictBuilder, DictConfig, DictConfigError, DynDict, PersistentDict,
        ServerConfig,
    };
    pub use block_store::{
        layout_fingerprint, BlockStore, Fault, FaultPlan, FileError, ScrubReport, StoreMeta,
        StoreOptions, IO_RETRY_ATTEMPTS,
    };
    pub use btree::BTree;
    pub use cob_btree::CobBTree;
    pub use hi_common::capacity::HiCapacity;
    pub use hi_common::counters::{OpCounters, SharedCounters};
    pub use hi_common::rng::RngSource;
    pub use hi_common::traits::{Dictionary, Occupancy, RankedDict, RankedSequence};
    pub use io_sim::{IoConfig, IoConfigError, IoModel, Tracer};
    pub use pma::persist::PersistError;
    pub use pma::{ClassicPma, HiPma};
    pub use shard::{Instrumented, KWayMerge, ShardError, ShardRouter, ShardedDict};
    pub use skiplist::{ExternalSkipList, SkipParams};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_are_usable_together() {
        let mut hi: CobBTree<u64, u64> = CobBTree::new(1);
        let mut bt: BTree<u64, u64> = BTree::new(16);
        let mut sl: ExternalSkipList<u64, u64> = ExternalSkipList::history_independent(16, 0.5, 2);
        let mut dy: DynDict<u64, u64> = Dict::builder().backend(Backend::HiPma).seed(3).build();
        for k in 0..200u64 {
            hi.insert(k, k);
            bt.insert(k, k);
            sl.insert(k, k);
            dy.insert(k, k);
        }
        assert_eq!(hi.to_sorted_vec(), bt.to_sorted_vec());
        assert_eq!(hi.to_sorted_vec(), sl.to_sorted_vec());
        assert_eq!(hi.to_sorted_vec(), dy.to_sorted_vec());
    }

    /// The determinism gate reaches a crate only through its manifest, so a
    /// library crate that drops `[lints] workspace = true` would leave it
    /// silently. Only the bench, test-support and lint-gate crates stay out.
    #[test]
    fn every_library_crate_inherits_the_determinism_gate() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
        for dir in std::fs::read_dir(crates).unwrap() {
            let dir = dir.unwrap().path();
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            let inherits = manifest.contains("[lints]\nworkspace = true");
            let tool = ["bench", "test-support", "lint-gate"].contains(&name.as_str());
            assert_eq!(inherits, !tool, "crates/{name}");
        }
    }
}
