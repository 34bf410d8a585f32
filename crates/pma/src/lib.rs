//! Packed-memory arrays (sparse tables).
//!
//! This crate contains the paper's primary contribution — the **weakly
//! history-independent packed-memory array** ([`HiPma`], paper §3–§4) — and
//! the conventional density-threshold PMA it is benchmarked against
//! ([`ClassicPma`]).
//!
//! A packed-memory array maintains a dynamic sequence of elements, in
//! caller-specified (rank) order, inside an array of `Θ(N)` slots with `O(1)`
//! gaps between consecutive elements. It supports:
//!
//! * `Insert(i, x)` / `Delete(i)` — amortized `O(log² N)` element moves, and
//!   amortized `O(log² N / B + log_B N)` I/Os (with high probability for the
//!   HI variant, Theorem 1);
//! * `Query(i, j)` — a range of `k` elements in `O(1 + k/B)` I/Os given the
//!   starting rank.
//!
//! The history-independent variant guarantees that the bit layout of the
//! array reveals nothing about the order of past inserts and deletes beyond
//! the current contents (weak history independence, Definition 4 / Lemma 9).
//!
//! # Quick example
//!
//! ```
//! use pma::HiPma;
//! use hi_common::RankedSequence;
//!
//! let mut pma = HiPma::new(0xC0FFEE);
//! for (rank, value) in ["a", "b", "d"].iter().enumerate() {
//!     pma.insert(rank, value.to_string()).unwrap();
//! }
//! pma.insert(2, "c".to_string()).unwrap(); // insert by rank
//! assert_eq!(pma.to_vec(), vec!["a", "b", "c", "d"]);
//! assert_eq!(pma.range_query(1, 2).unwrap(), vec!["b", "c"]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classic;
pub mod fenwick;
pub mod geometry;
pub mod hi_pma;
pub mod persist;
pub mod spread;
pub mod store;

pub use classic::{ClassicPma, DensityBands};
pub use geometry::Geometry;
pub use hi_pma::{BalanceRecord, HiPma};

// The sharded service layer moves whole engines onto worker threads; both
// PMAs must therefore stay `Send + Sync` (their counters/tracer handles are
// the only shared state, and those are thread-safe by construction). This is
// a compile-time audit: it fails to build if a non-`Send` field sneaks in.
#[cfg(test)]
mod send_sync_audit {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn pma_engines_are_send_and_sync() {
        assert_send_sync::<HiPma<u64>>();
        assert_send_sync::<HiPma<(u64, String)>>();
        assert_send_sync::<ClassicPma<u64>>();
    }

    // Theorem 2's cache-oblivious B-tree is the HI-PMA behind the keyed
    // adapter; it must move onto workers whenever its keys and values can.
    #[test]
    fn cob_btree_is_send_and_sync() {
        use hi_common::traits::RankedDict;
        assert_send_sync::<RankedDict<HiPma<(u64, u64)>, u64, u64>>();
        assert_send_sync::<RankedDict<HiPma<(String, Vec<u8>)>, String, Vec<u8>>>();
    }
}
