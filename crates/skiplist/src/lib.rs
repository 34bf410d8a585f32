//! Skip lists for external memory (paper §6).
//!
//! Three structures share one engine ([`ExternalSkipList`]), differing only
//! in their [`SkipParams`]:
//!
//! | Constructor | Promotion | Leaf packing | Role in the paper |
//! |---|---|---|---|
//! | [`ExternalSkipList::history_independent`] | `1/B^γ`, `γ = (1+ε)/2` | arrays padded per Invariant 16, packed into leaf nodes | Theorem 3: `O(log_B N)` searches & updates whp, `O(log_B N / ε + k/B)` range queries |
//! | [`ExternalSkipList::folklore_b`] | `1/B` | none | Lemma 15: whp search cost no better than in-memory |
//! | [`ExternalSkipList::in_memory`] | `1/2` | none (1 element per block) | the RAM baseline run on disk |
//!
//! All three are weakly history independent: levels are independent coin
//! flips per element, array contents are sorted, and array sizes are drawn
//! from history-independent distributions.
//!
//! # Quick example
//!
//! ```
//! use skiplist::ExternalSkipList;
//! use hi_common::Dictionary;
//!
//! let mut index: ExternalSkipList<u64, String> =
//!     ExternalSkipList::history_independent(64, 0.5, 42);
//! index.insert(10, "ten".into());
//! index.insert(3, "three".into());
//! assert_eq!(index.get(&10), Some("ten".into()));
//! assert_eq!(index.range(&0, &5), vec![(3, "three".into())]);
//! // Every operation reports its DAM-model cost:
//! assert!(index.last_op_ios() >= 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod external;
pub mod params;

pub use external::ExternalSkipList;
pub use params::{LeafPad, SkipParams};

// Compile-time audit for the sharded service layer: the external skip list
// (nodes + RNG + instrumentation handles) must be movable onto worker
// threads whenever its keys and values are.
#[cfg(test)]
mod send_sync_audit {
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn skip_list_is_send_and_sync() {
        assert_send_sync::<crate::ExternalSkipList<u64, u64>>();
        assert_send_sync::<crate::ExternalSkipList<String, Vec<u8>>>();
    }
}
