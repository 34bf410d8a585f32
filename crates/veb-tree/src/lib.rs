//! Static complete binary trees in the van Emde Boas (vEB) memory layout.
//!
//! The paper stores two auxiliary complete binary trees alongside the PMA
//! (§3.5 and §5): the **rank tree**, holding the number of elements `ℓ_R` in
//! every range `R`, and (for the cache-oblivious B-tree) the **value tree**,
//! holding the key of every balance element. Both are *static-topology*
//! complete binary trees laid out in the van Emde Boas order, which is
//! "deterministic, static, cache-oblivious — and hence history-independent"
//! and supports root-to-leaf traversals in `O(log N)` operations and
//! `O(log_B N)` I/Os without knowing `B`.
//!
//! * [`layout::VebLayout`] computes the BFS-index → vEB-position permutation.
//! * [`tree::VebTree`] stores one value per node in vEB order, optionally
//!   reporting its memory accesses to an [`io_sim::Tracer`] so benches can
//!   count the `O(log_B N)` descent cost.
//! * [`navigation`] contains the index arithmetic for complete binary trees
//!   addressed by BFS index (root 0, children `2i+1`, `2i+2`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod layout;
pub mod navigation;
pub mod tree;

pub use layout::VebLayout;
pub use navigation::{children, depth_of, first_of_level, is_leaf_level, parent};
pub use tree::VebTree;
