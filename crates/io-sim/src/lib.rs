//! A disk-access-machine (DAM) and cache-oblivious I/O cost simulator.
//!
//! The paper analyses every structure in the external-memory models of
//! §1.1: the DAM model (Aggarwal–Vitter) with block size `B` and memory size
//! `M`, and the cache-oblivious model (Frigo et al.) where the algorithm may
//! not use `B` or `M` but is charged for block transfers all the same. The
//! paper's own evaluation (§4.3) measures RAM runtime only; to *validate the
//! I/O theorems* (Theorems 1–3, Lemma 15) this workspace replays the
//! structures' memory accesses through a simulator that charges block
//! transfers exactly as the DAM model does:
//!
//! * [`model::IoModel`] — an LRU cache of `M/B` blocks over a byte-granular
//!   simulated address space; every access to an uncached block counts as one
//!   I/O (transfer), matching the "performance measure is transfers" rule.
//! * [`tracer::Tracer`] — a cheap, cloneable handle that data structures call
//!   (`read`/`write` of address ranges). A disabled tracer compiles down to a
//!   no-op so pure-RAM benchmarks (Figure 2) pay nothing.
//! * [`layout::Region`] — maps element indices of an array-based structure
//!   to byte addresses in the simulated address space.
//!
//! Cache-oblivious structures (the PMA, the vEB trees, the cache-oblivious
//! B-tree) never see `B` or `M`: they just report which addresses they touch,
//! and the simulator is configured with `B`/`M` only at measurement time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod detmap;
pub mod layout;
pub mod lru;
pub mod model;
pub mod tracer;

pub use layout::Region;
pub use lru::LruCache;
pub use model::{IoConfig, IoConfigError, IoModel, IoStats};
pub use tracer::Tracer;
