//! Shared building blocks for the history-independent dictionaries in this
//! workspace.
//!
//! This crate contains the substrates that the paper
//! *Anti-Persistence on Persistent Storage* (PODS 2016) relies on but does not
//! itself contribute:
//!
//! * [`capacity`] — the weakly history-independent dynamic-array capacity rule
//!   of Hartline et al. (paper §2.1): the backing size of an `n`-element array
//!   is kept uniformly distributed over `{n, …, 2n−1}` with only `O(1/n)`
//!   resize probability per update.
//! * [`rng`] — deterministic, splittable random-number plumbing so that every
//!   structure in the workspace can be driven reproducibly in tests and
//!   benchmarks while still modelling the "secret coins" of the WHI analyses.
//! * [`stats`] — a small statistics toolkit (χ² goodness-of-fit, regularized
//!   incomplete gamma, Kolmogorov–Smirnov, histograms) used to reproduce the
//!   paper's §4.3 uniformity experiment and to *test* history independence.
//! * [`traits`] — the `RankedSequence` / `Dictionary` abstractions shared by
//!   the PMA, the cache-oblivious B-tree, the skip lists and the B-tree.
//! * [`counters`] — cheap operation counters (element moves, rebuilds, probes)
//!   that the benchmark harnesses read to regenerate the paper's figures.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod bitmap;
pub mod capacity;
pub mod counters;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod traits;

pub use batch::{BatchOp, SeekFinger};
pub use bitmap::Bitmap;
pub use capacity::HiCapacity;
pub use counters::{OpCounters, SharedCounters};
pub use rng::{DetRng, RngSource};
pub use traits::{Dictionary, KeyValue, Occupancy, RankError, RankedDict, RankedSequence};
