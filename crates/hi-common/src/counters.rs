//! Cheap operation counters used by the benchmark harnesses.
//!
//! The paper's Figure 2 plots *element moves* per insert, normalized by
//! `N log²N`; Theorem 11 is stated in terms of RAM operations and rebuild
//! counts. Every structure in the workspace therefore carries an
//! [`OpCounters`] value that it bumps as it works. The counters are plain
//! integers; the [`SharedCounters`] wrapper offers interior mutability for
//! the cases where a structure and its auxiliary trees need to report into
//! one ledger. The wrapper is `Send + Sync` (an `Arc<Mutex<_>>` underneath)
//! so whole engines can move onto the sharded service layer's worker
//! threads; each engine still owns its ledger exclusively, so the lock is
//! never contended on the hot path.

use crate::sync::locked;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Running totals of the work a structure has performed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounters {
    /// Number of element relocations within the backing array(s). This is the
    /// quantity plotted in the paper's Figure 2.
    pub element_moves: u64,
    /// Number of range (or node) rebuilds triggered.
    pub rebuilds: u64,
    /// Total number of slots rewritten by rebuilds, a proxy for rebuild cost.
    pub rebuild_slots: u64,
    /// Number of whole-structure resizes (capacity parameter changes).
    pub resizes: u64,
    /// Number of key comparisons performed.
    pub comparisons: u64,
    /// Number of insert operations completed.
    pub inserts: u64,
    /// Number of delete operations completed.
    pub deletes: u64,
    /// Number of point or range queries completed.
    pub queries: u64,
    /// Always 0: nothing gathers a window per batch any more (DESIGN.md
    /// "Group commit"). The field stays because the `benchmark/` package
    /// reads it.
    pub batch_gathers: u64,
}

impl OpCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Total updates (inserts + deletes) recorded.
    pub fn updates(&self) -> u64 {
        self.inserts + self.deletes
    }

    /// Element moves per update, or 0 when no updates happened.
    pub fn moves_per_update(&self) -> f64 {
        if self.updates() == 0 {
            0.0
        } else {
            self.element_moves as f64 / self.updates() as f64
        }
    }

    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: &OpCounters) {
        self.element_moves += other.element_moves;
        self.rebuilds += other.rebuilds;
        self.rebuild_slots += other.rebuild_slots;
        self.resizes += other.resizes;
        self.comparisons += other.comparisons;
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.queries += other.queries;
        self.batch_gathers += other.batch_gathers;
    }

    /// Returns the difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &OpCounters) -> OpCounters {
        OpCounters {
            element_moves: self.element_moves.saturating_sub(earlier.element_moves),
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
            rebuild_slots: self.rebuild_slots.saturating_sub(earlier.rebuild_slots),
            resizes: self.resizes.saturating_sub(earlier.resizes),
            comparisons: self.comparisons.saturating_sub(earlier.comparisons),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            deletes: self.deletes.saturating_sub(earlier.deletes),
            queries: self.queries.saturating_sub(earlier.queries),
            batch_gathers: self.batch_gathers.saturating_sub(earlier.batch_gathers),
        }
    }
}

impl fmt::Display for OpCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "moves={} rebuilds={} rebuild_slots={} resizes={} cmps={} ins={} del={} qry={} gathers={}",
            self.element_moves,
            self.rebuilds,
            self.rebuild_slots,
            self.resizes,
            self.comparisons,
            self.inserts,
            self.deletes,
            self.queries,
            self.batch_gathers
        )
    }
}

/// A shareable, internally mutable counter ledger.
///
/// A composite structure hands clones of the same `SharedCounters` to its
/// components so that e.g. the PMA and its rank tree report into a single
/// ledger that the benchmark harness reads once.
#[derive(Debug, Clone, Default)]
pub struct SharedCounters {
    inner: Arc<Mutex<OpCounters>>,
}

impl SharedCounters {
    /// Creates a zeroed shared ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a snapshot of the current totals.
    pub fn snapshot(&self) -> OpCounters {
        *locked(&self.inner)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        locked(&self.inner).reset();
    }

    /// Applies `f` to the underlying counters.
    pub fn update<F: FnOnce(&mut OpCounters)>(&self, f: F) {
        f(&mut locked(&self.inner));
    }

    /// Adds `n` element moves.
    pub fn add_moves(&self, n: u64) {
        locked(&self.inner).element_moves += n;
    }

    /// Records a rebuild that rewrote `slots` slots.
    pub fn add_rebuild(&self, slots: u64) {
        let mut c = locked(&self.inner);
        c.rebuilds += 1;
        c.rebuild_slots += slots;
    }

    /// Records a whole-structure resize.
    pub fn add_resize(&self) {
        locked(&self.inner).resizes += 1;
    }

    /// Records a completed insert.
    pub fn add_insert(&self) {
        locked(&self.inner).inserts += 1;
    }

    /// Records a completed delete.
    pub fn add_delete(&self) {
        locked(&self.inner).deletes += 1;
    }

    /// Records a completed query.
    pub fn add_query(&self) {
        locked(&self.inner).queries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_counters_are_send_and_sync() {
        // Compile-time audit: every engine embeds a SharedCounters, so the
        // ledger being thread-safe is what lets whole engines migrate onto
        // the sharded service layer's worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedCounters>();
    }

    #[test]
    fn counters_start_zeroed() {
        let c = OpCounters::new();
        assert_eq!(c.element_moves, 0);
        assert_eq!(c.updates(), 0);
        assert_eq!(c.moves_per_update(), 0.0);
    }

    #[test]
    fn absorb_adds_fields() {
        let mut a = OpCounters::new();
        a.element_moves = 5;
        a.inserts = 1;
        let mut b = OpCounters::new();
        b.element_moves = 7;
        b.deletes = 2;
        a.absorb(&b);
        assert_eq!(a.element_moves, 12);
        assert_eq!(a.updates(), 3);
    }

    #[test]
    fn since_subtracts() {
        let mut before = OpCounters::new();
        before.element_moves = 10;
        let mut after = before;
        after.element_moves = 25;
        after.inserts = 3;
        let delta = after.since(&before);
        assert_eq!(delta.element_moves, 15);
        assert_eq!(delta.inserts, 3);
    }

    #[test]
    fn moves_per_update_divides() {
        let mut c = OpCounters::new();
        c.element_moves = 30;
        c.inserts = 10;
        c.deletes = 5;
        assert!((c.moves_per_update() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_counters_are_shared() {
        let shared = SharedCounters::new();
        let other = shared.clone();
        shared.add_moves(4);
        other.add_rebuild(16);
        other.add_insert();
        let snap = shared.snapshot();
        assert_eq!(snap.element_moves, 4);
        assert_eq!(snap.rebuilds, 1);
        assert_eq!(snap.rebuild_slots, 16);
        assert_eq!(snap.inserts, 1);
    }

    #[test]
    fn shared_reset_clears() {
        let shared = SharedCounters::new();
        shared.add_moves(4);
        shared.reset();
        assert_eq!(shared.snapshot(), OpCounters::new());
    }

    #[test]
    fn display_is_stable() {
        let mut c = OpCounters::new();
        c.element_moves = 1;
        let s = format!("{c}");
        assert!(s.contains("moves=1"));
    }
}
