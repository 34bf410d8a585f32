//! The weakly history-independent packed-memory array (paper §3–§4).
//!
//! # How the structure works
//!
//! The PMA stores `N` elements in user-specified (rank) order in an array of
//! `N_S = Θ(N)` slots. The array is viewed as a complete binary tree of
//! *ranges*: the root is the whole array, every node splits its slots in half
//! and the leaves are ranges of `Θ(log N̂)` slots.
//!
//! The paper leaves the leaf constant free; this tree ends
//! [`LEAF_SCALE_LOG2`](crate::geometry::LEAF_SCALE_LOG2)` = 3` levels above
//! `⌈log N̂ − log log N̂⌉`, over leaves of `8·⌈C_L log N̂⌉` slots and the same
//! slot array. Lemmas 7 and 8 are per-depth inductions and no depth that is
//! left changed, so no range overflows or starves; a leaf is the slot span
//! of a depth-`h` range of the paper's tree with the same elements, evenly
//! spread — a function of its count — so Lemma 9's representation function
//! keeps its form. The levels dropped had candidate sets of 1–3 elements:
//! next to no randomness, and a rebuild on most updates.
//!
//! History independence comes from three ingredients:
//!
//! 1. **Size**: the capacity parameter `N̂` is kept uniform over
//!    `{N, …, 2N−1}` by the WHI dynamic-array rule ([`hi_common::HiCapacity`]).
//!    Every change of `N̂` rebuilds the whole structure.
//! 2. **Splits**: every non-leaf range `R` has a *balance element* `b_R` —
//!    the first element of its right child — chosen uniformly at random from
//!    the range's *candidate set* `M_R` (the `|M_d|` middle elements of `R`).
//!    The balance elements are kept uniform by reservoir sampling with
//!    deletes (Invariant 6): a newcomer to `M_R` takes over with probability
//!    `1/|M_R|`; if the balance leaves `M_R`, a fresh balance is drawn
//!    uniformly. Whenever the balance of `R` changes, `R` and all its
//!    descendant ranges are rebuilt from scratch.
//! 3. **Leaves**: the elements of a leaf are spread evenly over its slots, a
//!    deterministic function of the leaf's element count.
//!
//! Consequently the entire memory representation is a function of `(N, N̂,
//! balance choices)` — none of which depend on the operation history — which
//! is the content of Lemma 9.
//!
//! Element counts per range are kept in the **rank tree**, a complete binary
//! tree in the van Emde Boas layout ([`veb_tree::VebTree`]), so finding the
//! leaf containing a given rank costs `O(log N)` operations and `O(log_B N)`
//! I/Os.
//!
//! # Storage engine
//!
//! The backing array is a [`SlotStore`]: one slot arena, each leaf range's
//! elements **dense, in rank order, at its front**, `T::default()` in every
//! other slot. The slot-occupancy layout — what weak history independence
//! quantifies over — is not stored: by ingredient 3 it is a function of the
//! leaf counts, so the [`Occupancy`] impl computes it from them when it is
//! observed, bit-identical to the historical `Vec<Option<T>>` engine.
//!
//! So the arena need not hold the logical array's `N_S` slots. It gives
//! each leaf [`Geometry::leaf_capacity`] slots — Lemma 7's leaf bound
//! `(N̂/2^h)(1 + c₁) + 3` plus the one element an insert adds before its
//! rebuild — and holds `leaf_count × capacity` in all; the layout, the
//! tracer's addresses and [`HiPma::total_slots`] keep the leaves' logical
//! width `L`. [`HiPma::check_invariants`] asserts the bound at every leaf.
//!
//! Every update first applies itself to the leaf its descent reaches — one
//! rotate inside the leaf's slice, **zero heap allocations and zero `Clone`
//! calls** — and most end there. One whose descent changed a range's balance
//! then rebuilds that range in place, in three steps:
//!
//! 1. a count-only planner draws the balance coins, in the same pre-order
//!    as ever, and writes the new counts into the rank tree;
//! 2. [`SlotStore::redistribute`] moves the elements across the leaf
//!    boundaries that moved, and no others, one slice move per run;
//! 3. the value tree is written last: each range's entry is the first
//!    element of its right child.
//!
//! No rebuilt element passes through a buffer, and neither does a resized
//! one. A resize replaces the slot array: [`SlotStore::regroup`] moves every
//! element, in rank order, to the front of the next arena, allocated at its
//! final size, where the resize's own insert or delete is applied; the old
//! arena, all defaults by then, is freed; the same planner runs, and
//! [`SlotStore::spread`] deals the front out to the new leaves right to
//! left, before the same value pass. No buffer outlives the resize. An update
//! moves elements and counts and nothing else, and reports to the counter
//! ledger once, on its way out. This is pure representation engineering:
//! the occupancy distribution, the coins drawn, and therefore the WHI
//! guarantee are unchanged (Lemma 9's function is computed, not sampled).

use hi_common::batch::SeekFinger;
use hi_common::capacity::{CapacityEvent, HiCapacity};
use hi_common::counters::SharedCounters;
use hi_common::rng::{DetRng, RngSource};
use hi_common::traits::{Occupancy, RankError, RankedSequence};
use io_sim::{Region, Tracer};
use rand::Rng;
use veb_tree::navigation::children;
use veb_tree::VebTree;

use crate::geometry::Geometry;
use crate::store::{partition_point_by_lines, take_out, Groups, ScanIter, SlotStore};

/// One range's balance element, as Lemma 9's representation reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalanceRecord {
    /// BFS index of the range in the range tree.
    pub range: usize,
    /// Depth of the range (root = 0).
    pub depth: usize,
    /// Number of elements currently in the range.
    pub len: usize,
    /// Effective candidate-set size (`min(|M_d|, len)`).
    pub window: usize,
    /// Position of the balance element within the candidate window
    /// (`0 ≤ offset < window`).
    pub offset: usize,
}

/// Elements of the half-open interval `a` that are not in the half-open
/// interval `b` — at most two contiguous pieces, yielded in increasing order.
/// Used by the reservoir decisions to enumerate the (at most a couple of)
/// elements that enter a candidate window when it slides.
fn interval_difference(a: (usize, usize), b: (usize, usize)) -> impl Iterator<Item = usize> {
    let left = a.0..a.1.min(b.0.max(a.0));
    let right = a.0.max(b.1.min(a.1))..a.1;
    left.chain(right)
}

/// Outcome of the per-range reservoir decision during a descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Keep descending; no rebuild at this range.
    Descend,
    /// Rebuild this range. `forced` carries the relative rank (in the range's
    /// *new* element ordering) that must become the balance element (lottery
    /// winner), or `None` to draw uniformly (out-of-bounds / deleted balance).
    Rebuild { forced: Option<usize> },
}

/// A range rebuild decided on the way down: the descent goes on to the leaf
/// of the old layout, applies the update there, and then rebuilds the range.
#[derive(Debug, Clone, Copy)]
struct PendingRebuild {
    /// BFS index of the range.
    range: usize,
    depth: usize,
    slot_start: usize,
    /// The range's element count after the update.
    len: usize,
    /// The reservoir's forced balance, as in [`Decision::Rebuild`].
    forced: Option<usize>,
}

/// The weakly history-independent packed-memory array.
///
/// Implements [`RankedSequence`]: elements are addressed by rank, exactly as
/// in the paper's `Insert(i, x)` / `Delete(i)` / `Query(i, j)` API. Ordering
/// by key is the responsibility of the caller, or of the keyed
/// [`RankedDict`](hi_common::traits::RankedDict) over it, which is the
/// cache-oblivious B-tree of Theorem 2 (the root crate's `HiDict`).
#[derive(Debug, Clone)]
pub struct HiPma<T: Clone + Default> {
    store: SlotStore<T>,
    rank_tree: VebTree<u64>,
    /// For every non-leaf range, a copy of its balance element (the paper's
    /// §5 "tree storing the values of each balance element"), maintained
    /// under exactly the same rebuild events as the rank tree. This is what
    /// turns the PMA into an augmented PMA / cache-oblivious B-tree: keyed
    /// searches descend this tree in `O(log_B N)` I/Os.
    value_tree: VebTree<Option<T>>,
    geometry: Geometry,
    capacity: HiCapacity,
    rng: DetRng,
    counters: SharedCounters,
    tracer: Tracer,
    array_region: Region,
    elem_size: u64,
    /// The leaf counts the last plan wrote, left to right (allocated once
    /// per geometry, at its leaf count).
    leaf_counts: Vec<usize>,
}

impl<T: Clone + Default> HiPma<T> {
    /// Creates an empty PMA seeded from `seed` (the structure's secret coins).
    pub fn new(seed: u64) -> Self {
        Self::with_parts(
            RngSource::from_seed(seed),
            SharedCounters::new(),
            Tracer::disabled(),
            16,
        )
    }

    /// Creates an empty PMA drawing its coins from OS entropy.
    #[expect(
        clippy::disallowed_methods,
        reason = "forwards to the audited RngSource intake; production PMAs need a seed the observer cannot know"
    )]
    pub fn from_entropy() -> Self {
        Self::with_parts(
            RngSource::from_entropy(),
            SharedCounters::new(),
            Tracer::disabled(),
            16,
        )
    }

    /// Creates an empty PMA with explicit randomness, counter ledger, I/O
    /// tracer and per-element on-disk size in bytes.
    pub fn with_parts(
        mut rng: RngSource,
        counters: SharedCounters,
        tracer: Tracer,
        elem_size: u64,
    ) -> Self {
        assert!(elem_size > 0, "element size must be positive");
        let geometry = Geometry::for_n_hat(1);
        let (rank_tree, value_tree) = Self::trees(&geometry, elem_size, &tracer);
        let array_region = Region::new(0, elem_size, geometry.total_slots as u64);
        Self {
            store: SlotStore::new(
                geometry.leaf_count(),
                geometry.leaf_slots,
                geometry.leaf_capacity(),
            ),
            rank_tree,
            value_tree,
            geometry,
            capacity: HiCapacity::new(),
            rng: rng.split("hi-pma"),
            counters,
            tracer,
            array_region,
            elem_size,
            leaf_counts: Vec::new(),
        }
    }

    /// The empty rank and value trees of `g`. In the tracer's address space
    /// the rank tree follows the slot array and the value tree the rank tree
    /// (8-byte counts), each at a 4 KiB boundary, so no two share a block
    /// at common block sizes.
    fn trees(g: &Geometry, elem_size: u64, tracer: &Tracer) -> (VebTree<u64>, VebTree<Option<T>>) {
        let rank_base = (g.total_slots as u64 * elem_size).next_multiple_of(4096);
        let value_base = (rank_base + g.range_count() as u64 * 8).next_multiple_of(4096);
        let rank_tree = VebTree::new(g.levels(), rank_base, 8, tracer.clone());
        let value_tree = VebTree::new(g.levels(), value_base, elem_size, tracer.clone());
        (rank_tree, value_tree)
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// Returns `true` when the PMA is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current capacity parameter `N̂`.
    pub fn n_hat(&self) -> usize {
        self.capacity.n_hat()
    }

    /// Total number of slots in the backing array (`N_S`).
    pub fn total_slots(&self) -> usize {
        self.geometry.total_slots
    }

    /// The geometry derived from the current `N̂`.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The shared operation counters.
    pub fn counters(&self) -> &SharedCounters {
        &self.counters
    }

    /// The I/O tracer handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The balance element of every non-empty non-leaf range: Lemma 9's
    /// representation is `(N, N̂, these records)`. Records are keyed by
    /// their BFS `range`; the order they come in is not pre-order and means
    /// nothing. Derived purely from the rank tree — no slot probing.
    ///
    /// # Panics
    ///
    /// If a balance lies outside its range's candidate window (Invariant 6
    /// broken), naming the range.
    pub fn balance_records(&self) -> Vec<BalanceRecord> {
        let mut records = Vec::new();
        let mut stack = vec![(0usize, 0usize)];
        while let Some((range, depth)) = stack.pop() {
            let len = *self.rank_tree.peek(range) as usize;
            if depth == self.geometry.height || len == 0 {
                continue;
            }
            let (left, right) = children(range);
            let l1 = *self.rank_tree.peek(left) as usize;
            let m = self.geometry.candidate_size(depth);
            let (w, window) = Geometry::candidate_window(len, m);
            assert!(
                (w..w + window).contains(&l1),
                "range {range} at depth {depth}: balance rank {l1} outside its window [{w}, {})",
                w + window
            );
            records.push(BalanceRecord {
                range,
                depth,
                len,
                window,
                offset: l1 - w,
            });
            stack.push((left, depth + 1));
            stack.push((right, depth + 1));
        }
        records
    }

    /// Verifies the structural invariants the analysis relies on. Panics with
    /// a description of the violated invariant. Intended for tests; cost is
    /// `Θ(N_S)`.
    pub fn check_invariants(&self)
    where
        T: PartialEq,
    {
        // Root count equals the logical length.
        assert_eq!(
            *self.rank_tree.peek(0) as usize,
            self.len(),
            "root count disagrees with len()"
        );
        assert_eq!(
            self.store.element_count(),
            self.len(),
            "stored elements disagree with len()"
        );
        assert!(self.store.vacant_slots_hold_defaults());
        if self.is_empty() {
            return;
        }
        // Capacity invariant.
        assert!(
            self.n_hat() >= self.len() && self.n_hat() < 2 * self.len(),
            "N̂ = {} outside {{N..2N-1}} for N = {}",
            self.n_hat(),
            self.len()
        );
        self.check_range(0, 0, 0);
    }

    fn check_range(&self, range: usize, depth: usize, slot_start: usize) {
        let slots = self.geometry.slots_at_depth(depth);
        let len = *self.rank_tree.peek(range) as usize;
        // Lemma 7: a range never holds more elements than it has slots.
        assert!(
            len <= slots,
            "range {range} at depth {depth} holds {len} elements in {slots} slots"
        );
        if depth == self.geometry.height {
            // The leaf's layout is its pattern row for `len`, pinned for
            // every leaf size by the store's tests; what must agree here is
            // the count.
            let held = self.store.group_len(self.geometry.leaf_of_slot(slot_start));
            assert_eq!(
                held, len,
                "range {range}: rank tree says {len}, leaf holds {held}"
            );
            // Lemma 7 at the leaves: the arena's capacity is this bound
            // plus the one element an insert adds before its rebuild.
            let bound = self.geometry.leaf_bound();
            assert!(
                len <= bound,
                "leaf range {range} holds {len} elements, above Lemma 7's bound {bound}"
            );
            return;
        }
        let (left, right) = children(range);
        let l1 = *self.rank_tree.peek(left) as usize;
        let l2 = *self.rank_tree.peek(right) as usize;
        assert_eq!(l1 + l2, len, "range {range}: children counts don't add up");
        // Invariant 6 precondition: the balance element lies in the window.
        if len > 0 {
            let m = self.geometry.candidate_size(depth);
            let (w, m_eff) = Geometry::candidate_window(len, m);
            assert!(
                m_eff == 0 || (l1 >= w && l1 < w + m_eff),
                "range {range}: balance rank {l1} outside window [{w}, {})",
                w + m_eff
            );
        }
        self.check_range(left, depth + 1, slot_start);
        self.check_range(right, depth + 1, slot_start + slots / 2);
    }

    // ------------------------------------------------------------------
    // Rebuild machinery
    // ------------------------------------------------------------------

    /// Rebuilds the entire structure for the current `N̂` — a resize —
    /// with `edit`, the update that triggered it (an insert if `update` is
    /// `Some(true)`, a delete if `Some(false)`, a load if `None`), applied
    /// on the way. An update's gather is charged as one sequential read of
    /// the whole array, and the update reports itself with no moves. The
    /// store regroups every element, in rank order, at the front of the
    /// next arena, where `edit` inserts or takes out its element; the trees
    /// and `leaf_counts` are made afresh for the new geometry (so no vector
    /// keeps an old geometry's capacity); the planner draws the coins and
    /// the store spreads the front into the new leaves; the value pass ends
    /// it. The old value tree may hold the record this update deletes, so
    /// it is scrubbed before it is freed.
    fn resize<R>(&mut self, update: Option<bool>, edit: impl FnOnce(&mut Vec<T>) -> R) -> R {
        if let Some(insert) = update {
            let array = self.array_region;
            self.tracer.read(array.base, array.byte_len());
            self.record_update(insert, 0, None);
        }
        self.geometry = Geometry::for_n_hat(self.capacity.n_hat().max(1));
        self.value_tree.scrub(Some(T::default()));
        let g = &self.geometry;
        let edited = self
            .store
            .regroup(g.leaf_count(), g.leaf_slots, g.leaf_capacity(), edit);
        self.leaf_counts = Vec::with_capacity(self.geometry.leaf_count());
        self.array_region = Region::new(0, self.elem_size, self.geometry.total_slots as u64);
        (self.rank_tree, self.value_tree) =
            Self::trees(&self.geometry, self.elem_size, &self.tracer);
        let (slots, len) = (self.geometry.total_slots as u64, self.len());
        if len == 0 {
            self.counters.update(|c| c.resizes += 1);
            return edited;
        }
        self.counters.update(|c| {
            c.resizes += 1;
            c.rebuilds += 1;
            c.rebuild_slots += slots;
            c.element_moves += len as u64;
        });
        self.plan_counts(0, 0, 0, len, None);
        self.store.spread(&self.leaf_counts);
        self.write_balances(0, 0, 0);
        edited
    }

    /// Rebuilds a range whose leaves already hold the update that triggered
    /// it: plans the new counts, moves elements across the leaf boundaries
    /// that moved, then writes the value tree. Charged to the tracer as the
    /// paper's rebuild: one read of the range, one write per leaf.
    fn rebuild_range(&mut self, r: PendingRebuild) {
        let slot_count = self.geometry.slots_at_depth(r.depth);
        self.tracer.read(
            self.array_region.addr(r.slot_start as u64),
            self.array_region.span(slot_count as u64),
        );
        self.leaf_counts.clear();
        self.plan_counts(r.range, r.depth, r.slot_start, r.len, r.forced);
        let first_leaf = self.geometry.leaf_of_slot(r.slot_start);
        self.store.redistribute(first_leaf, &self.leaf_counts);
        self.write_balances(r.range, r.depth, first_leaf);
    }

    /// The planner of a rebuild: descends the range tree below `range`,
    /// which is to hold `len` elements, drawing each range's balance
    /// (reservoir-forced or uniform) in pre-order — the coin order of every
    /// engine before this one, so layouts stay bit-identical — and writing
    /// every count into the rank tree, the leaf counts also onto
    /// `leaf_counts`. It touches no element. Leaf visits charge the
    /// sequential leaf write; the element moves (the leaf counts sum to
    /// `len`) are the caller's one ledger update.
    ///
    /// `forced_balance` pins the relative rank of the balance element of
    /// *this* range (a reservoir lottery winner); descendant ranges always
    /// draw their balances uniformly from their candidate windows.
    fn plan_counts(
        &mut self,
        range: usize,
        depth: usize,
        slot_start: usize,
        len: usize,
        forced_balance: Option<usize>,
    ) {
        let slot_count = self.geometry.slots_at_depth(depth);
        debug_assert!(
            len <= slot_count,
            "range overflow: {len} elements into {slot_count} slots"
        );
        self.rank_tree.set(range, len as u64);
        if depth == self.geometry.height {
            self.leaf_counts.push(len);
            self.tracer.write(
                self.array_region.addr(slot_start as u64),
                self.array_region.span(slot_count as u64),
            );
            return;
        }
        let m = self.geometry.candidate_size(depth);
        let (w, m_eff) = Geometry::candidate_window(len, m);
        let balance = if len == 0 {
            0
        } else {
            match forced_balance {
                Some(b) => {
                    debug_assert!(b >= w && b < w + m_eff, "forced balance outside window");
                    b
                }
                None => w + self.rng.gen_range(0..m_eff.max(1)),
            }
        };
        let (left, right) = children(range);
        self.plan_counts(left, depth + 1, slot_start, balance, None);
        let right_start = slot_start + slot_count / 2;
        self.plan_counts(right, depth + 1, right_start, len - balance, None);
    }

    /// The value pass of a rebuild, once the leaves hold their new counts:
    /// every non-leaf range under `range` (at `depth`, its leaves starting
    /// at `first_leaf`) stores its balance element, the first element of its
    /// right child — `None` when that child is empty, written over the
    /// default, as a `None` keeps the old payload.
    fn write_balances(&mut self, range: usize, depth: usize, first_leaf: usize) {
        if depth == self.geometry.height {
            return;
        }
        let half = 1usize << (self.geometry.height - depth - 1);
        match self.store.first_in(first_leaf + half, half) {
            Some(balance) => self.value_tree.set(range, Some(balance.clone())),
            None => self.value_tree.set_with(range, |entry| {
                *entry = Some(T::default());
                std::hint::black_box(&*entry);
                *entry = None;
            }),
        }
        let (left, right) = children(range);
        self.write_balances(left, depth + 1, first_leaf);
        self.write_balances(right, depth + 1, first_leaf + half);
    }

    // ------------------------------------------------------------------
    // Reservoir decisions
    // ------------------------------------------------------------------

    /// Reservoir decision at a non-leaf range for an insert at relative rank
    /// `r` (in the *new* ordering), where the balance currently sits at
    /// relative rank `l1` (old ordering) and the range held `len` elements.
    ///
    /// The candidate window holds `Θ(N̂ / (2^d log N̂))` elements, so the
    /// decision must not iterate over it. Because the window slides by at
    /// most one position per update, at most a couple of elements enter the
    /// window; they are identified with O(1) interval arithmetic and each is
    /// offered the leadership with probability `1/|window|` (reservoir step).
    fn decide_insert(&mut self, r: usize, l1: usize, len: usize, m: usize) -> Decision {
        let (w_old, m_old) = Geometry::candidate_window(len, m);
        let (w_new, m_new) = Geometry::candidate_window(len + 1, m);
        debug_assert!(m_new >= 1);
        // New rank of the old balance element.
        let balance_new_rank = if r <= l1 { l1 + 1 } else { l1 };
        if len == 0 || balance_new_rank < w_new || balance_new_rank >= w_new + m_new {
            // Out-of-bounds rebuild: the balance slid out of the candidate
            // set (or the range was empty); a fresh balance is drawn
            // uniformly from the new window.
            return Decision::Rebuild { forced: None };
        }
        // Old-ranks of the *old* elements that lie in the new window. The new
        // window is [w_new, w_new + m_new) in new-rank space; an old element
        // at old-rank q has new-rank q (if q < r) or q + 1 (if q ≥ r).
        let covered = if r < w_new {
            // All window positions are past the insertion point.
            (w_new - 1, w_new + m_new - 1)
        } else if r >= w_new + m_new {
            (w_new, w_new + m_new)
        } else {
            // The new element occupies one window position.
            (w_new, w_new + m_new - 1)
        };
        let mut winner: Option<usize> = None;
        // Old elements newly covered by the window: `covered` minus the old
        // window [w_old, w_old + m_old).
        for q in interval_difference(covered, (w_old, w_old + m_old)) {
            let new_rank = if q < r { q } else { q + 1 };
            if self.rng.gen_range(0..m_new) == 0 {
                winner = Some(new_rank);
            }
        }
        // The inserted element itself, if it landed inside the window.
        if r >= w_new && r < w_new + m_new && self.rng.gen_range(0..m_new) == 0 {
            winner = Some(r);
        }
        match winner {
            Some(p) => Decision::Rebuild { forced: Some(p) },
            None => Decision::Descend,
        }
    }

    /// Reservoir decision at a non-leaf range for a delete of the element at
    /// relative rank `r` (old ordering). See [`HiPma::decide_insert`] for the
    /// structure of the computation.
    fn decide_delete(&mut self, r: usize, l1: usize, len: usize, m: usize) -> Decision {
        debug_assert!(len >= 1 && r < len);
        if r == l1 {
            // The balance element itself is deleted: draw a fresh one
            // uniformly (lottery rebuild in the paper's terminology).
            return Decision::Rebuild { forced: None };
        }
        let (w_old, m_old) = Geometry::candidate_window(len, m);
        let (w_new, m_new) = Geometry::candidate_window(len - 1, m);
        if m_new == 0 {
            return Decision::Rebuild { forced: None };
        }
        let balance_new_rank = if r < l1 { l1 - 1 } else { l1 };
        if balance_new_rank < w_new || balance_new_rank >= w_new + m_new {
            return Decision::Rebuild { forced: None };
        }
        // Old-ranks covered by the new window: new-rank p maps to old-rank p
        // (p < r) or p + 1 (p ≥ r), so the covered old-ranks form up to two
        // contiguous pieces around the deleted rank.
        let first = (w_new, (w_new + m_new).min(r));
        let second = ((w_new + 1).max(r + 1), w_new + m_new + 1);
        let mut winner: Option<usize> = None;
        for piece in [first, second] {
            if piece.0 >= piece.1 {
                continue;
            }
            for q in interval_difference(piece, (w_old, w_old + m_old)) {
                debug_assert_ne!(q, r);
                let new_rank = if q < r { q } else { q - 1 };
                if self.rng.gen_range(0..m_new) == 0 {
                    winner = Some(new_rank);
                }
            }
        }
        match winner {
            Some(p) => Decision::Rebuild { forced: Some(p) },
            None => Decision::Descend,
        }
    }

    // ------------------------------------------------------------------
    // Leaf operations
    // ------------------------------------------------------------------

    /// Leaf insert, the first step of every insert that does not resize:
    /// one rotate in the leaf's slice. No allocation, no clone, no buffer.
    fn leaf_insert(&mut self, slot_start: usize, rel_rank: usize, item: T) {
        let slot_count = self.geometry.leaf_slots;
        self.tracer.read(
            self.array_region.addr(slot_start as u64),
            self.array_region.span(slot_count as u64),
        );
        let leaf = self.geometry.leaf_of_slot(slot_start);
        let n = self.store.group_len(leaf);
        debug_assert!(rel_rank <= n, "leaf rank out of bounds");
        // The leaf is one of the old layout's, even when a rebuild follows:
        // Lemma 7 bounds its count by (N̂/2^h)(1 + c₁) + 3, and the arena
        // gives each leaf that bound plus one slots (`leaf_capacity`), so
        // it has a free one. Hard assert: past it, release would write into
        // the next leaf.
        let capacity = self.store.group_capacity();
        assert!(
            n < capacity,
            "leaf {leaf} holds {n} elements, its capacity {capacity}: Lemma 7 violated"
        );
        self.store.insert_in_group(leaf, rel_rank.min(n), item);
        self.tracer.write(
            self.array_region.addr(slot_start as u64),
            self.array_region.span(slot_count as u64),
        );
    }

    /// Leaf delete: the mirror of [`Self::leaf_insert`].
    fn leaf_delete(&mut self, slot_start: usize, rel_rank: usize) -> T {
        let slot_count = self.geometry.leaf_slots;
        self.tracer.read(
            self.array_region.addr(slot_start as u64),
            self.array_region.span(slot_count as u64),
        );
        let leaf = self.geometry.leaf_of_slot(slot_start);
        let n = self.store.group_len(leaf);
        debug_assert!(rel_rank < n, "leaf rank out of bounds");
        let removed = self.store.remove_in_group(leaf, rel_rank);
        self.tracer.write(
            self.array_region.addr(slot_start as u64),
            self.array_region.span(slot_count as u64),
        );
        removed
    }

    // ------------------------------------------------------------------
    // The ledger
    // ------------------------------------------------------------------
    //
    // The ledger is an `Arc<Mutex>`, so an operation reports once, on its
    // way out, with totals it already holds: a rebuilt range's leaf counts
    // sum to the range's element count, known where the rebuild starts.

    /// The one ledger update of an insert or delete that ended in a leaf
    /// splice (`rebuilt_slots = None`) or in the rebuild of a range of
    /// `rebuilt_slots` slots, having moved `moves` elements. A resize is the
    /// exception: the operation reports itself here with no moves, and
    /// [`Self::resize`] reports the rest.
    fn record_update(&self, insert: bool, moves: usize, rebuilt_slots: Option<usize>) {
        self.counters.update(|c| {
            if insert {
                c.inserts += 1;
            } else {
                c.deletes += 1;
            }
            c.element_moves += moves as u64;
            if let Some(slots) = rebuilt_slots {
                c.rebuilds += 1;
                c.rebuild_slots += slots as u64;
            }
        });
    }

    /// The end of an update that did not resize, once its leaf has taken
    /// it: the leaf's new count `leaf_len` at BFS index `leaf_range`, or the
    /// rebuild its descent decided on. Then the one ledger update.
    fn finish_update(
        &mut self,
        insert: bool,
        leaf_range: usize,
        leaf_len: usize,
        pending: Option<PendingRebuild>,
    ) {
        match pending {
            None => {
                self.rank_tree.set(leaf_range, leaf_len as u64);
                self.record_update(insert, leaf_len, None);
            }
            Some(r) => {
                let slot_count = self.geometry.slots_at_depth(r.depth);
                self.record_update(insert, r.len, Some(slot_count));
                self.rebuild_range(r);
            }
        }
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Inserts `item` as the `rank`-th element. See [`RankedSequence::insert_at`].
    pub fn insert(&mut self, rank: usize, item: T) -> Result<(), RankError> {
        if rank > self.len() {
            return Err(RankError {
                rank,
                len: self.len(),
            });
        }
        let event = self.capacity.on_insert(&mut self.rng);
        if let CapacityEvent::Rebuild { .. } = event {
            self.resize(Some(true), |front| front.insert(rank, item));
            return Ok(());
        }
        // Descend the range tree. Only the root count and each level's left
        // child are read from the rank tree: a child's own count is derived
        // from its parent's (`l1` going left, `len − l1` going right),
        // halving the vEB accesses per level. Once a range's balance
        // changes, the rest of the descent only finds the leaf of the old
        // layout that takes the element; the counts below are the planner's.
        let mut range = 0usize;
        let mut depth = 0usize;
        let mut slot_start = 0usize;
        let mut rel_rank = rank;
        let mut len_before = *self.rank_tree.get(0) as usize;
        let mut pending = None;
        loop {
            if depth == self.geometry.height {
                self.leaf_insert(slot_start, rel_rank, item);
                self.finish_update(true, range, len_before + 1, pending);
                return Ok(());
            }
            let (left, right) = children(range);
            let l1 = *self.rank_tree.get(left) as usize;
            if pending.is_none() {
                let m = self.geometry.candidate_size(depth);
                let decision = self.decide_insert(rel_rank, l1, len_before, m);
                self.rank_tree.set(range, (len_before + 1) as u64);
                if let Decision::Rebuild { forced } = decision {
                    pending = Some(PendingRebuild {
                        range,
                        depth,
                        slot_start,
                        len: len_before + 1,
                        forced,
                    });
                }
            }
            if rel_rank <= l1 {
                range = left;
                len_before = l1;
            } else {
                range = right;
                slot_start += self.geometry.slots_at_depth(depth) / 2;
                rel_rank -= l1;
                len_before -= l1;
            }
            depth += 1;
        }
    }

    /// Deletes and returns the `rank`-th element. See [`RankedSequence::delete_at`].
    pub fn delete(&mut self, rank: usize) -> Result<T, RankError> {
        if rank >= self.len() {
            return Err(RankError {
                rank,
                len: self.len(),
            });
        }
        let event = self.capacity.on_delete(&mut self.rng);
        if let CapacityEvent::Rebuild { .. } = event {
            return Ok(self.resize(Some(false), |front| take_out(front, rank)));
        }
        let mut range = 0usize;
        let mut depth = 0usize;
        let mut slot_start = 0usize;
        let mut rel_rank = rank;
        let mut len_before = *self.rank_tree.get(0) as usize;
        let mut pending = None;
        loop {
            if depth == self.geometry.height {
                let removed = self.leaf_delete(slot_start, rel_rank);
                self.finish_update(false, range, len_before - 1, pending);
                return Ok(removed);
            }
            let (left, right) = children(range);
            let l1 = *self.rank_tree.get(left) as usize;
            if pending.is_none() {
                let m = self.geometry.candidate_size(depth);
                let decision = self.decide_delete(rel_rank, l1, len_before, m);
                self.rank_tree.set(range, (len_before - 1) as u64);
                if let Decision::Rebuild { forced } = decision {
                    pending = Some(PendingRebuild {
                        range,
                        depth,
                        slot_start,
                        len: len_before - 1,
                        forced,
                    });
                }
            }
            if rel_rank < l1 {
                range = left;
                len_before = l1;
            } else {
                range = right;
                slot_start += self.geometry.slots_at_depth(depth) / 2;
                rel_rank -= l1;
                len_before -= l1;
            }
            depth += 1;
        }
    }

    /// Returns the `rank`-th element, if any.
    pub fn get_rank(&self, rank: usize) -> Option<T> {
        self.get_rank_ref(rank).cloned()
    }

    /// Borrows the `rank`-th element, if any, without copying it.
    pub fn get_rank_ref(&self, rank: usize) -> Option<&T> {
        if rank >= self.len() {
            return None;
        }
        let (leaf, idx) = self.locate(rank);
        self.store.group(leaf).get(idx)
    }

    /// Lazily yields the elements with ranks `rank..len` in order, without
    /// allocating: one rank-tree descent to find the starting leaf, then a
    /// sequential scan of the dense leaves (`O(1 + k/B)` I/Os for `k`
    /// consumed elements, charged to the tracer one leaf at a time as the
    /// iterator enters it).
    pub fn iter_from(&self, rank: usize) -> ScanIter<'_, T> {
        let (leaf, idx) = if rank >= self.len() {
            (self.geometry.leaf_count(), 0)
        } else {
            self.locate(rank)
        };
        self.scan_from(leaf, idx)
    }

    /// The leaf scan from dense position `(leaf, idx)` onward.
    fn scan_from(&self, leaf: usize, idx: usize) -> ScanIter<'_, T> {
        self.store
            .iter_from(leaf, idx, self.tracer.clone(), self.array_region)
    }

    /// Borrows every element in rank order (a full sequential scan).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_from(0)
    }

    /// Borrows every leaf's elements as one dense `&[T]` run, leaves in rank
    /// order and empty ones included: the scan of [`Self::iter`] a run at a
    /// time, charged to the tracer the same way (one read per leaf).
    pub fn leaves(&self) -> Groups<'_, T> {
        self.store
            .groups_from(0, self.tracer.clone(), self.array_region)
    }

    /// The zero-copy form of the paper's `Query(i, j)`: lazily yields the
    /// `i`-th through `j`-th elements inclusive. Costs one descent plus a
    /// contiguous scan of `O(1 + k/B)` blocks for `k = j − i + 1` elements.
    ///
    /// Uniform error contract: `i > j` is an empty range (`Ok`); `j ≥ len`
    /// (with `i ≤ j`) is a [`RankError`].
    pub fn range_iter(&self, i: usize, j: usize) -> Result<impl Iterator<Item = &T>, RankError> {
        if i > j {
            return Ok(self.iter_from(usize::MAX).take(0));
        }
        if j >= self.len() {
            return Err(RankError {
                rank: j,
                len: self.len(),
            });
        }
        self.counters.add_query();
        Ok(self.iter_from(i).take(j - i + 1))
    }

    /// Replaces the entire contents with `items` (in rank order), drawing
    /// **fresh coins** from `seed`: the capacity parameter `N̂` is re-drawn
    /// uniformly from `{n, …, 2n−1}` and every balance element uniformly
    /// from its candidate window, exactly the distribution an incremental
    /// build converges to. The resulting layout is therefore a pure function
    /// of *(items, seed)* — independent of the previous contents, of the
    /// structure's RNG position, and of how the caller ordered earlier
    /// operations. Cost is `O(n)` element moves instead of the incremental
    /// `O(n log² n)`.
    pub fn bulk_load(&mut self, items: impl IntoIterator<Item = T>, seed: u64) {
        let mut items: Vec<T> = items.into_iter().collect();
        let mut source = RngSource::from_seed(seed);
        self.rng = source.split("hi-pma");
        self.capacity = HiCapacity::with_len(items.len(), &mut self.rng);
        self.store.clear();
        self.resize(None, |front| {
            front.extend(items.iter_mut().map(std::mem::take))
        });
    }

    /// Finds the dense position of the element with the given rank,
    /// returning `(leaf_index, index_within_leaf)`. Charges the rank-tree
    /// descent and one sequential read of the leaf to the tracer. With dense
    /// per-leaf storage the within-leaf position *is* the relative rank —
    /// no slot probing.
    fn locate(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.len());
        let mut range = 0usize;
        let mut depth = 0usize;
        let mut slot_start = 0usize;
        let mut rel_rank = rank;
        while depth < self.geometry.height {
            let (left, right) = children(range);
            let l1 = *self.rank_tree.get(left) as usize;
            let half = self.geometry.slots_at_depth(depth) / 2;
            if rel_rank < l1 {
                range = left;
            } else {
                range = right;
                slot_start += half;
                rel_rank -= l1;
            }
            depth += 1;
        }
        self.tracer.read(
            self.array_region.addr(slot_start as u64),
            self.array_region.span(self.geometry.leaf_slots as u64),
        );
        (self.geometry.leaf_of_slot(slot_start), rel_rank)
    }

    /// Rank of the first element `e` for which `f(e)` is not `Less`, assuming
    /// the caller keeps the sequence sorted with respect to `f` (as the
    /// cache-oblivious B-tree does with keys). Returns `len()` when every
    /// element compares `Less`.
    ///
    /// This is the paper's §5 keyed search over the *augmented PMA*, ranked:
    /// the value-tree descent of [`Self::iter_from_by`] plus the rank of the
    /// landing leaf, summed from the rank tree on the way down. Writes and
    /// the seek finger need the rank; a read that only wants the element
    /// takes [`Self::iter_from_by`] and reads no rank at all.
    pub fn lower_bound_by<F>(&self, f: F) -> usize
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        self.lower_bound_ref_by(f).0
    }

    /// [`HiPma::lower_bound_by`] fused with a borrow of the element at the
    /// returned rank, still in one descent. When every element of the
    /// landing leaf compares `Less`, the element is the first one of the
    /// next non-empty leaf. The leaves in between are empty, since after
    /// its last left turn at a non-empty right child the descent passed
    /// only empty ones, so the scan steps over them without a second
    /// descent.
    pub fn lower_bound_ref_by<F>(&self, f: F) -> (usize, Option<&T>)
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        let (leaf, base) = self.lower_bound_leaf_by(&f);
        let pos =
            partition_point_by_lines(self.store.group(leaf), |e| f(e) == std::cmp::Ordering::Less);
        (base + pos, self.scan_from(leaf, pos).next())
    }

    /// The elements from the first one that `f` does not call `Less`, in
    /// rank order: the paper's §5 keyed search with no rank in it. One
    /// descent of the value tree (no rank-tree node is read), one
    /// line-stride search of the landing leaf, then the leaf scan of
    /// [`Self::iter_from`], which walks on into the following leaves when
    /// the bound lies past the landing one. The landing leaf is charged to
    /// the tracer once, as the scan enters it.
    pub fn iter_from_by<F>(&self, f: F) -> ScanIter<'_, T>
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        let leaf = self.descend_by(&f, |_, _| {});
        let pos =
            partition_point_by_lines(self.store.group(leaf), |e| f(e) == std::cmp::Ordering::Less);
        self.scan_from(leaf, pos)
    }

    /// The keyed descent of the value tree: at each range, go right when its
    /// balance element (the first element of its right child) compares
    /// `Less`, and left otherwise or when the right child is empty (`None`).
    /// The index arithmetic is BFS (`2·range + 1 + go_right`), so the turn
    /// is data, not a branch on `f`. Reports each `(range, go_right)` to
    /// `turn` and returns the landing leaf.
    ///
    /// The bound is in the landing leaf or is the first element after it:
    /// below the last left turn at a non-empty right child, the descent only
    /// went right or passed empty right children, so every leaf between the
    /// landing leaf and that right child is empty.
    fn descend_by<F>(&self, f: &F, mut turn: impl FnMut(usize, bool)) -> usize
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        let mut range = 0usize;
        for _ in 0..self.geometry.height {
            let go_right = matches!(
                self.value_tree.get(range),
                Some(balance) if f(balance) == std::cmp::Ordering::Less
            );
            turn(range, go_right);
            range = 2 * range + 1 + usize::from(go_right);
        }
        range + 1 - self.geometry.leaf_count()
    }

    /// The leaf a keyed descent lands in and the rank of its first element:
    /// [`Self::descend_by`] plus a masked sum of the left children's counts
    /// at the right turns.
    fn lower_bound_leaf_by<F>(&self, f: &F) -> (usize, usize)
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        let mut base = 0usize;
        let leaf = self.descend_by(f, |range, go_right| {
            let l1 = *self.rank_tree.get(2 * range + 1) as usize;
            base += l1 & usize::from(go_right).wrapping_neg();
        });
        (leaf, base)
    }

    /// How many leaves a seek finger walks before giving up and paying one
    /// value-tree descent instead: close probes (a sorted `get_many`, dense
    /// probe sets) ride the walk, sparse probes cost `O(log N)` like a
    /// plain search — never `O(distance)`.
    pub const SEEK_WALK_LIMIT: usize = 32;

    /// [`HiPma::lower_bound_ref_by`] with a resumable [`SeekFinger`]:
    /// ascending probe runs resume from the previous probe's leaf and walk
    /// dense leaves left to right (a group-length read and one comparison
    /// per skipped leaf); probes farther than [`Self::SEEK_WALK_LIMIT`]
    /// leaves (and the first probe) pay one value-tree descent to re-seed
    /// the finger.
    pub fn lower_bound_seek_by<F>(&self, finger: &mut SeekFinger, f: F) -> (usize, Option<&T>)
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        if self.is_empty() {
            finger.valid = false;
            return (0, None);
        }
        let (mut leaf, mut base, mut descended) = if finger.valid {
            (finger.group, finger.base_rank, false)
        } else {
            let (l, b) = self.lower_bound_leaf_by(&f);
            (l, b, true)
        };
        let leaf_count = self.geometry.leaf_count();
        let mut walked = 0usize;
        loop {
            if leaf >= leaf_count {
                finger.valid = false;
                debug_assert_eq!(base, self.len());
                return (self.len(), None);
            }
            let group = self.store.group(leaf);
            match group.last() {
                Some(last) if f(last) != std::cmp::Ordering::Less => break,
                _ => {
                    base += group.len();
                    leaf += 1;
                    walked += 1;
                    if walked >= Self::SEEK_WALK_LIMIT && !descended {
                        // The target is far: one descent lands within a
                        // couple of leaves of it (the descent never
                        // overshoots, so only move forward).
                        let (l, b) = self.lower_bound_leaf_by(&f);
                        if l > leaf {
                            leaf = l;
                            base = b;
                        }
                        descended = true;
                    }
                }
            }
        }
        self.tracer.read(
            self.array_region
                .addr(self.geometry.leaf_start(leaf) as u64),
            self.array_region.span(self.geometry.leaf_slots as u64),
        );
        let group = self.store.group(leaf);
        let pos = partition_point_by_lines(group, |e| f(e) == std::cmp::Ordering::Less);
        finger.group = leaf;
        finger.base_rank = base;
        finger.valid = true;
        (base + pos, Some(&group[pos]))
    }
}

impl<T: Clone + Default> Occupancy for HiPma<T> {
    fn slot_count(&self) -> usize {
        self.geometry.total_slots
    }

    fn occupancy_into(&self, words: &mut Vec<u64>) {
        self.store.occupancy_into(words);
    }
}

impl<T: Clone + Default> RankedSequence for HiPma<T> {
    type Item = T;

    fn len(&self) -> usize {
        HiPma::len(self)
    }

    fn insert_at(&mut self, rank: usize, item: T) -> Result<(), RankError> {
        self.insert(rank, item)
    }

    fn delete_at(&mut self, rank: usize) -> Result<T, RankError> {
        self.delete(rank)
    }

    fn get_ref(&self, rank: usize) -> Option<&T> {
        self.get_rank_ref(rank)
    }

    fn get(&self, rank: usize) -> Option<T> {
        self.get_rank(rank)
    }

    fn lower_bound_by<F>(&self, f: F) -> usize
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        // Single value-tree descent (the §5 keyed search) instead of the
        // default binary search over O(log n) rank descents — this is what
        // keeps the keyed adapter's operations near native rank speed.
        HiPma::lower_bound_by(self, f)
    }

    fn lower_bound_ref_by<F>(&self, f: F) -> (usize, Option<&T>)
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        HiPma::lower_bound_ref_by(self, f)
    }

    fn lower_bound_seek_by<F>(&self, finger: &mut SeekFinger, f: F) -> (usize, Option<&T>)
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        HiPma::lower_bound_seek_by(self, finger, f)
    }

    fn iter_from_by<F>(&self, f: F) -> impl Iterator<Item = &T>
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        HiPma::iter_from_by(self, f)
    }

    fn range_iter(&self, i: usize, j: usize) -> Result<impl Iterator<Item = &T>, RankError> {
        HiPma::range_iter(self, i, j)
    }

    fn bulk_load(&mut self, items: impl IntoIterator<Item = T>, seed: u64) {
        HiPma::bulk_load(self, items, seed)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::spread_position;
    use hi_common::counters::OpCounters;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::VecDeque;

    /// Every non-leaf range's value-tree entry is its balance element: the
    /// first element of its right child, `None` when that child is empty.
    fn check_value_tree(pma: &HiPma<u64>) {
        let height = pma.geometry().height;
        for depth in 0..height {
            let half = 1usize << (height - depth - 1);
            for k in 0..1usize << depth {
                let range = (1 << depth) - 1 + k;
                let right_first = (2 * k + 1) * half;
                let want =
                    (right_first..right_first + half).find_map(|l| pma.store.group(l).first());
                assert_eq!(pma.value_tree.peek(range).as_ref(), want, "range {range}");
            }
        }
    }

    fn filled(n: usize, seed: u64) -> HiPma<u64> {
        let mut pma = HiPma::new(seed);
        for i in 0..n {
            pma.insert(i, i as u64).unwrap();
        }
        pma
    }

    #[test]
    fn empty_pma() {
        let pma: HiPma<u32> = HiPma::new(1);
        assert_eq!(pma.len(), 0);
        assert!(pma.is_empty());
        assert_eq!(pma.get_rank(0), None);
        assert!(pma.query(0, 0).is_err());
    }

    #[test]
    fn sequential_appends_preserve_order() {
        let pma = filled(2000, 7);
        assert_eq!(pma.len(), 2000);
        let all = pma.query(0, 1999).unwrap();
        assert_eq!(all, (0..2000u64).collect::<Vec<_>>());
        pma.check_invariants();
    }

    #[test]
    fn front_inserts_preserve_order() {
        let mut pma = HiPma::new(3);
        for i in 0..1500u64 {
            pma.insert(0, i).unwrap();
        }
        let all = pma.query(0, 1499).unwrap();
        let expected: Vec<u64> = (0..1500u64).rev().collect();
        assert_eq!(all, expected);
        pma.check_invariants();
    }

    #[test]
    fn random_inserts_match_reference_model() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut pma = HiPma::new(4);
        let mut model: Vec<u64> = Vec::new();
        for step in 0..4000u64 {
            let rank = rng.gen_range(0..=model.len());
            pma.insert(rank, step).unwrap();
            model.insert(rank, step);
        }
        assert_eq!(pma.len(), model.len());
        assert_eq!(pma.query(0, model.len() - 1).unwrap(), model);
        pma.check_invariants();
    }

    #[test]
    fn mixed_inserts_and_deletes_match_reference_model() {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut pma = HiPma::new(5);
        let mut model: Vec<u64> = Vec::new();
        for step in 0..6000u64 {
            let delete = !model.is_empty() && rng.gen_bool(0.4);
            if delete {
                let rank = rng.gen_range(0..model.len());
                let expected = model.remove(rank);
                let got = pma.delete(rank).unwrap();
                assert_eq!(got, expected, "step {step}");
            } else {
                let rank = rng.gen_range(0..=model.len());
                pma.insert(rank, step).unwrap();
                model.insert(rank, step);
            }
            if step % 500 == 0 {
                pma.check_invariants();
                check_value_tree(&pma);
            }
        }
        if !model.is_empty() {
            assert_eq!(pma.query(0, model.len() - 1).unwrap(), model);
        }
        pma.check_invariants();
    }

    #[test]
    fn one_sided_histories_hold_every_invariant_across_height_steps() {
        // Front-hammer and append-only growth, then a delete-heavy descent
        // at the same end: the adversarial histories for a sparse table,
        // each long enough to take N̂ up and back down through several
        // height steps of the shorter tree (N̂ ≈ 590, 1 350, 3 000, 6 600).
        for front in [true, false] {
            let mut pma: HiPma<u64> = HiPma::new(0x51DE + front as u64);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut heights = std::collections::BTreeSet::new();
            let push = |pma: &mut HiPma<u64>, model: &mut VecDeque<u64>, v| {
                if front {
                    pma.insert(0, v).unwrap();
                    model.push_front(v);
                } else {
                    pma.insert(pma.len(), v).unwrap();
                    model.push_back(v);
                }
            };
            for i in 0..9_000u64 {
                push(&mut pma, &mut model, i);
                if i.is_multiple_of(500) {
                    pma.check_invariants();
                    check_value_tree(&pma);
                    heights.insert(pma.geometry().height);
                }
            }
            assert!(heights.len() >= 4, "front={front}: saw heights {heights:?}");
            // Three deletes for every insert, down to a single small leaf.
            let mut op = 0u64;
            while pma.len() > 60 {
                if op % 4 == 3 {
                    push(&mut pma, &mut model, 1_000_000 + op);
                } else if front {
                    assert_eq!(pma.delete(0).ok(), model.pop_front());
                } else {
                    assert_eq!(pma.delete(pma.len() - 1).ok(), model.pop_back());
                }
                op += 1;
                if op.is_multiple_of(500) {
                    pma.check_invariants();
                    check_value_tree(&pma);
                }
            }
            pma.check_invariants();
            assert!(pma.geometry().is_small(), "front={front}");
            assert_eq!(pma.to_vec(), Vec::from(model), "front={front}");
        }
    }

    /// Lemma 7's leaf bound, which sizes the slot arena, after every update
    /// of four histories: random ranks, appends, front inserts and middle
    /// inserts, each growing to 8 000 elements (N̂ crosses the height steps
    /// near 590, 1 350, 3 000 and 6 600) and shrinking back at the same
    /// place. Prints the fullest leaf seen against the bound.
    #[test]
    fn every_leaf_stays_within_lemma_7_through_one_sided_and_random_histories() {
        let mut rng = StdRng::seed_from_u64(0x1E77A);
        for history in ["random", "append", "front", "middle"] {
            let mut pma: HiPma<u64> = HiPma::new(0x7B0 + history.len() as u64);
            let mut model: Vec<u64> = Vec::new();
            let (mut heights, mut worst) = (std::collections::BTreeSet::new(), (0.0, 0, 0));
            // A rank in `0..ranks`: the last, first or middle one, or any.
            let mut rank = |ranks: usize| match history {
                "random" => rng.gen_range(0..ranks),
                "append" => ranks - 1,
                "front" => 0,
                _ => (ranks - 1) / 2,
            };
            for step in 0..16_000u64 {
                if step < 8_000 {
                    let r = rank(model.len() + 1);
                    pma.insert(r, step).unwrap();
                    model.insert(r, step);
                } else {
                    let r = rank(model.len());
                    assert_eq!(pma.delete(r).ok(), Some(model.remove(r)), "{history}");
                }
                let fullest = pma.leaves().map(<[u64]>::len).max().unwrap_or(0);
                let bound = pma.geometry().leaf_bound();
                assert!(
                    fullest <= bound,
                    "{history}, step {step}: {fullest} > {bound}"
                );
                let fill = fullest as f64 / bound as f64;
                if fill > worst.0 {
                    worst = (fill, fullest, bound);
                }
                heights.insert(pma.geometry().height);
                if step % 400 == 0 {
                    pma.check_invariants();
                }
            }
            pma.check_invariants();
            assert_eq!(pma.to_vec(), model, "{history}");
            assert!(heights.len() >= 3, "{history}: saw heights {heights:?}");
            println!(
                "{history}: fullest leaf {} of Lemma 7's bound {} ({:.2}), heights {heights:?}",
                worst.1, worst.2, worst.0
            );
        }
    }

    #[test]
    fn delete_everything_then_reuse() {
        let mut pma = filled(600, 8);
        for _ in 0..600 {
            pma.delete(0).unwrap();
        }
        assert!(pma.is_empty());
        pma.check_invariants();
        for i in 0..100u64 {
            pma.insert(i as usize, i).unwrap();
        }
        assert_eq!(pma.len(), 100);
        assert_eq!(pma.query(0, 99).unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn get_rank_returns_elements() {
        let pma = filled(300, 9);
        for rank in [0usize, 1, 150, 298, 299] {
            assert_eq!(pma.get_rank(rank), Some(rank as u64));
        }
        assert_eq!(pma.get_rank(300), None);
    }

    #[test]
    fn range_query_middle() {
        let pma = filled(1000, 10);
        let got = pma.query(400, 449).unwrap();
        assert_eq!(got, (400..450u64).collect::<Vec<_>>());
        // Uniform contract: i > j is an empty range, not an error.
        assert_eq!(pma.query(10, 5).unwrap(), Vec::<u64>::new());
        assert_eq!(pma.query(2000, 1000).unwrap(), Vec::<u64>::new());
        assert!(pma.query(0, 1000).is_err());
        assert_eq!(
            pma.query(0, 1000).unwrap_err(),
            hi_common::RankError {
                rank: 1000,
                len: 1000
            }
        );
    }

    #[test]
    fn bulk_load_builds_a_valid_pma() {
        let mut pma: HiPma<u64> = HiPma::new(9);
        // Pre-existing contents must be fully discarded.
        for i in 0..100 {
            pma.insert(i, 7777).unwrap();
        }
        pma.bulk_load((0..5000u64).map(|k| k * 2), 0xB01D);
        assert_eq!(pma.len(), 5000);
        assert_eq!(pma.get_rank(0), Some(0));
        assert_eq!(pma.get_rank(4999), Some(9998));
        pma.check_invariants();
        check_value_tree(&pma);
        // Still fully operational afterwards.
        pma.insert(0, 123).unwrap();
        assert_eq!(pma.get_rank(0), Some(123));
        pma.check_invariants();
    }

    #[test]
    fn bulk_load_layout_is_a_function_of_items_and_seed() {
        let build = |pre: usize, seed: u64| {
            let mut pma: HiPma<u64> = HiPma::new(1234);
            for i in 0..pre {
                pma.insert(i, i as u64).unwrap();
            }
            pma.bulk_load(0..3000u64, seed);
            pma
        };
        let a = build(0, 5);
        let b = build(500, 5);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_eq!(a.n_hat(), b.n_hat());
        assert_eq!(
            a.occupancy(),
            b.occupancy(),
            "same items + seed must give a bit-identical layout regardless of prior history"
        );
        let c = build(0, 6);
        assert_ne!(
            a.occupancy(),
            c.occupancy(),
            "different seed, different layout"
        );
    }

    #[test]
    fn range_iter_and_refs_agree_with_owned_queries() {
        let pma = filled(1000, 17);
        let lazy: Vec<u64> = pma.range_iter(100, 199).unwrap().copied().collect();
        assert_eq!(lazy, pma.query(100, 199).unwrap());
        assert_eq!(pma.get_rank_ref(42), Some(&42));
        assert_eq!(pma.get_rank_ref(1000), None);
        assert_eq!(pma.iter().count(), 1000);
        assert_eq!(pma.iter_from(990).count(), 10);
        assert_eq!(pma.iter_from(2000).count(), 0);
    }

    #[test]
    fn out_of_bounds_operations_fail() {
        let mut pma = filled(10, 11);
        assert!(pma.insert(12, 0).is_err());
        assert!(pma.delete(10).is_err());
        assert_eq!(pma.len(), 10);
    }

    #[test]
    fn space_is_linear_in_n() {
        let pma = filled(20_000, 12);
        let ratio = pma.total_slots() as f64 / pma.len() as f64;
        assert!(ratio >= 1.0, "array must be at least as large as N");
        assert!(ratio <= 10.0, "space overhead {ratio} is not linear");
    }

    #[test]
    fn capacity_parameter_stays_in_range() {
        let mut pma = HiPma::new(13);
        let mut rng = StdRng::seed_from_u64(31);
        for step in 0..3000u64 {
            if !pma.is_empty() && rng.gen_bool(0.3) {
                let rank = rng.gen_range(0..pma.len());
                pma.delete(rank).unwrap();
            } else {
                let rank = rng.gen_range(0..=pma.len());
                pma.insert(rank, step).unwrap();
            }
            if !pma.is_empty() {
                assert!(pma.n_hat() >= pma.len());
                assert!(pma.n_hat() < 2 * pma.len());
            }
        }
    }

    #[test]
    fn moves_are_counted() {
        let pma = filled(500, 14);
        let counters = pma.counters().snapshot();
        assert_eq!(counters.inserts, 500);
        assert!(counters.element_moves > 0);
        // Each insert moves at least one element (itself).
        assert!(counters.element_moves >= 500);
    }

    #[test]
    fn amortized_moves_grow_polylogarithmically() {
        // The analysis gives O(log² N) amortized moves; verify that the
        // per-insert average stays far below sqrt(N) (which would indicate
        // accidental linear-time rebalancing).
        let n = 30_000usize;
        let pma = filled(n, 15);
        let counters = pma.counters().snapshot();
        let per_insert = counters.element_moves as f64 / n as f64;
        let log2n = (n as f64).log2();
        assert!(
            per_insert <= 8.0 * log2n * log2n,
            "moves per insert {per_insert} exceed 8·log²N = {}",
            8.0 * log2n * log2n
        );
    }

    #[test]
    fn balance_records_are_well_formed() {
        let pma = filled(5_000, 16);
        let mut records = pma.balance_records();
        // No range of a structure this full is empty: one record each.
        records.sort_by_key(|r| r.range);
        let ranges: Vec<usize> = records.iter().map(|r| r.range).collect();
        assert_eq!(
            ranges,
            (0..(1 << pma.geometry().height) - 1).collect::<Vec<_>>()
        );
        for r in &records {
            assert!(r.offset < r.window, "offset outside window: {r:?}");
            assert!(r.len > 0);
        }
    }

    #[test]
    #[should_panic(expected = "range 0 at depth 0: balance rank 0 outside its window")]
    fn balance_records_name_a_balance_outside_its_window() {
        let mut pma = filled(5_000, 16);
        // Empty the root's left child: its split leaves the centred window.
        pma.rank_tree.set(1, 0);
        pma.balance_records();
    }

    #[test]
    fn occupancy_matches_len() {
        let pma = filled(700, 17);
        let occ = pma.occupancy();
        assert_eq!(occ.iter().filter(|&&b| b).count(), 700);
        assert_eq!(occ.len(), pma.total_slots());
    }

    #[test]
    fn traced_insert_costs_are_modest() {
        // With tracing enabled, a single insert at large N should touch
        // far fewer blocks than a linear scan of the structure.
        use io_sim::IoConfig;
        let tracer = Tracer::enabled(IoConfig::new(4096, 1 << 14));
        let mut pma: HiPma<u64> = HiPma::with_parts(
            RngSource::from_seed(18),
            SharedCounters::new(),
            tracer.clone(),
            16,
        );
        for i in 0..20_000u64 {
            pma.insert(i as usize, i).unwrap();
        }
        // Measure the marginal cost of 100 more inserts with a cold cache.
        tracer.reset_cold();
        for i in 0..100u64 {
            pma.insert((i * 131 % 20_000) as usize, i).unwrap();
        }
        let per_op = tracer.stats().reads as f64 / 100.0;
        let linear_scan = (pma.total_slots() as f64 * 16.0) / 4096.0;
        assert!(
            per_op < linear_scan / 4.0,
            "per-insert I/O {per_op} should be far below a full scan {linear_scan}"
        );
    }

    #[test]
    fn same_state_same_distribution_of_occupancy() {
        // Weak history independence, tested statistically: build the same
        // 200-element set via two different histories over many seeds and
        // compare where element 0 lands. The two distributions of positions
        // must agree (χ² two-sample test would be ideal; here we compare
        // coarse histograms with a generous tolerance).
        let n = 200usize;
        let trials = 300usize;
        let buckets = 8usize;
        let mut hist_a = vec![0f64; buckets];
        let mut hist_b = vec![0f64; buckets];
        for t in 0..trials {
            // History A: append 0..n in order.
            let mut a = HiPma::new(10_000 + t as u64);
            for i in 0..n {
                a.insert(i, i as u64).unwrap();
            }
            // History B: insert even ranks first, then odds, then delete and
            // reinsert the first quarter.
            let mut b = HiPma::new(20_000 + t as u64);
            let mut contents: Vec<u64> = Vec::new();
            for i in (0..n as u64).filter(|x| x % 2 == 0) {
                let rank = contents.binary_search(&i).unwrap_err();
                b.insert(rank, i).unwrap();
                contents.insert(rank, i);
            }
            for i in (0..n as u64).filter(|x| x % 2 == 1) {
                let rank = contents.binary_search(&i).unwrap_err();
                b.insert(rank, i).unwrap();
                contents.insert(rank, i);
            }
            for i in 0..n as u64 / 4 {
                let rank = contents.binary_search(&i).unwrap();
                b.delete(rank).unwrap();
                contents.remove(rank);
                let rank = contents.binary_search(&i).unwrap_err();
                b.insert(rank, i).unwrap();
                contents.insert(rank, i);
            }
            assert_eq!(a.query(0, n - 1).unwrap(), b.query(0, n - 1).unwrap());
            // Where does the first element sit, as a fraction of the array?
            let pos_a =
                a.occupancy().iter().position(|&x| x).unwrap() as f64 / a.total_slots() as f64;
            let pos_b =
                b.occupancy().iter().position(|&x| x).unwrap() as f64 / b.total_slots() as f64;
            hist_a[(pos_a * buckets as f64) as usize % buckets] += 1.0;
            hist_b[(pos_b * buckets as f64) as usize % buckets] += 1.0;
        }
        // Total-variation distance between the two empirical distributions
        // should be small if the layout distribution is history independent.
        let tv: f64 = hist_a
            .iter()
            .zip(&hist_b)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / (2.0 * trials as f64);
        assert!(
            tv < 0.15,
            "layout distributions differ between histories: TV = {tv}, {hist_a:?} vs {hist_b:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = filled(800, 42);
        let b = filled(800, 42);
        assert_eq!(a.occupancy(), b.occupancy());
        assert_eq!(a.n_hat(), b.n_hat());
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let a = filled(800, 1);
        let b = filled(800, 2);
        // Contents identical…
        assert_eq!(a.query(0, 799).unwrap(), b.query(0, 799).unwrap());
        // …but the layouts should differ (overwhelmingly likely).
        assert_ne!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn lower_bound_matches_binary_search() {
        let mut pma = HiPma::new(321);
        let mut model: Vec<u64> = Vec::new();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..3000 {
            let key = rng.gen_range(0..100_000u64);
            let rank = model.partition_point(|x| x < &key);
            if model.get(rank) == Some(&key) {
                continue; // keep keys distinct
            }
            pma.insert(rank, key).unwrap();
            model.insert(rank, key);
        }
        for probe in (0..100_000u64).step_by(997) {
            let expected = model.partition_point(|x| x < &probe);
            let got = pma.lower_bound_by(|x| x.cmp(&probe));
            assert_eq!(got, expected, "probe {probe}");
        }
        assert_eq!(pma.lower_bound_by(|x| x.cmp(&u64::MAX)), model.len());
        assert_eq!(pma.lower_bound_by(|x| x.cmp(&0)), 0);
    }

    #[test]
    fn lower_bound_after_deletes() {
        let mut pma = HiPma::new(654);
        let mut model: Vec<u64> = (0..2000u64).map(|x| x * 2).collect();
        for (rank, &v) in model.iter().enumerate() {
            pma.insert(rank, v).unwrap();
        }
        // Delete every third element.
        let mut idx = 0usize;
        while idx < model.len() {
            if idx.is_multiple_of(3) {
                pma.delete(idx).unwrap();
                model.remove(idx);
            } else {
                idx += 1;
            }
        }
        for probe in (0..4000u64).step_by(37) {
            let expected = model.partition_point(|x| x < &probe);
            assert_eq!(
                pma.lower_bound_by(|x| x.cmp(&probe)),
                expected,
                "probe {probe}"
            );
        }
    }

    #[test]
    fn lower_bound_on_empty_pma() {
        let pma: HiPma<u64> = HiPma::new(1);
        assert_eq!(pma.lower_bound_by(|x| x.cmp(&5)), 0);
    }

    #[test]
    fn ranked_sequence_trait_roundtrip() {
        let mut pma: HiPma<String> = HiPma::new(77);
        RankedSequence::insert_at(&mut pma, 0, "b".to_string()).unwrap();
        RankedSequence::insert_at(&mut pma, 0, "a".to_string()).unwrap();
        RankedSequence::insert_at(&mut pma, 2, "c".to_string()).unwrap();
        assert_eq!(pma.to_vec(), vec!["a", "b", "c"]);
        assert_eq!(RankedSequence::get(&pma, 1), Some("b".to_string()));
        assert_eq!(
            RankedSequence::delete_at(&mut pma, 0).unwrap(),
            "a".to_string()
        );
        assert_eq!(pma.to_vec(), vec!["b", "c"]);
    }

    #[test]
    fn occupancy_trait_matches_legacy_representation() {
        // The legacy layout: leaf `g` holding `n` elements occupies
        // `g·L + ⌊j·L/n⌋`, what `Vec<Option<T>>` held and a bitmap mirrored.
        let pma = filled(900, 21);
        let mut legacy = vec![false; pma.total_slots()];
        for (g, leaf) in pma.leaves().enumerate() {
            for j in 0..leaf.len() {
                let l = pma.geometry().leaf_slots;
                let slot = pma.geometry().leaf_start(g) + spread_position(j, leaf.len(), l);
                legacy[slot] = true;
            }
        }
        assert_eq!(pma.occupancy(), legacy);
        assert_eq!(pma.occupied_slots(), 900);
        assert_eq!(pma.slot_count(), pma.total_slots());
        // The packed words cover every slot and nothing beyond.
        assert_eq!(pma.occupancy_words().len(), pma.total_slots().div_ceil(64));
    }

    /// The arena holds `leaf_count × leaf_capacity` slots, fewer than the
    /// `total_slots` of the logical array from `SMALL_LIMIT` on, while the
    /// occupancy stays the even spread over each leaf's `L` logical slots:
    /// a size mixed up between the two shows as a wrong arena, a wrong bit
    /// or a wrong element. Swept over bulk loads of 20 to 3 200 keys (`N̂`
    /// up to ~6 400, across every height step in between), each followed
    /// by middle inserts.
    #[test]
    fn the_arena_holds_capacity_slots_and_the_layout_keeps_logical_width() {
        use crate::geometry::SMALL_LIMIT;
        let (mut heights, mut n) = (std::collections::BTreeSet::new(), 20usize);
        while n < 3_200 {
            let mut pma: HiPma<u64> = HiPma::new(1);
            pma.bulk_load((0..n as u64).map(|k| 2 * k), n as u64);
            for i in 0..n as u64 / 8 {
                pma.insert(pma.len() / 2, 2 * i + 1).unwrap();
            }
            let g = pma.geometry().clone();
            let (l, capacity) = (g.leaf_slots, g.leaf_capacity());
            let case = format!("N̂ = {}, L = {l}, capacity {capacity}", g.n_hat);
            assert_eq!(pma.store.arena_slots(), g.leaf_count() * capacity, "{case}");
            assert!(capacity <= l, "{case}");
            if g.n_hat >= SMALL_LIMIT {
                assert!(pma.store.arena_slots() < pma.total_slots(), "{case}");
            } else {
                assert_eq!(pma.store.arena_slots(), pma.total_slots(), "{case}");
            }
            let mut spread = vec![false; pma.total_slots()];
            for (leaf, elems) in pma.leaves().enumerate() {
                for j in 0..elems.len() {
                    spread[leaf * l + spread_position(j, elems.len(), l)] = true;
                }
            }
            assert_eq!(pma.occupancy(), spread, "{case}");
            let mut want: Vec<u64> = (0..n as u64).map(|k| 2 * k).collect();
            for i in 0..n as u64 / 8 {
                want.insert(want.len() / 2, 2 * i + 1);
            }
            assert_eq!(pma.to_vec(), want, "{case}");
            pma.check_invariants();
            heights.insert(g.height);
            n += n / 16;
        }
        assert!(heights.len() >= 6, "heights {heights:?}");
    }

    #[test]
    fn batch_replay_is_bit_identical_to_per_op_application() {
        // A batch is applied in arrival order: `apply_batch` through the keyed adapter
        // draws the same coins and leaves the same bits as the per-op calls,
        // however the stream is cut into batches — occupancy bitmap, N̂ and
        // contents, and the coin streams stay in step afterwards. Sizes cross
        // the small-geometry boundary and capacity rebuilds.
        use hi_common::traits::{Dictionary, RankedDict};
        use hi_common::BatchOp;
        for (n_warm, batch_len, seed) in [(0u64, 40usize, 1u64), (500, 300, 2), (3_000, 900, 3)] {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = |m: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) % m.max(1)
            };
            let ops: Vec<BatchOp<u64, u64>> = (0..batch_len as u64)
                .map(|i| match next(3) {
                    0 => BatchOp::Remove(next(2 * n_warm + 64)),
                    _ => BatchOp::Put(next(2 * n_warm + 64), i),
                })
                .collect();
            let build_base = || {
                let mut d = RankedDict::new(HiPma::<(u64, u64)>::new(seed));
                for k in 0..n_warm {
                    d.insert(k * 2, k);
                }
                d
            };
            let mut per_op = build_base();
            let mut removed = 0;
            for op in ops.iter().cloned() {
                match op {
                    BatchOp::Put(k, v) => drop(per_op.insert(k, v)),
                    BatchOp::Remove(k) => removed += usize::from(per_op.remove(&k).is_some()),
                }
            }
            for chunk in [1usize, 7, batch_len] {
                let mut batched = build_base();
                let got: usize = ops
                    .chunks(chunk)
                    .map(|c| batched.apply_batch(c.to_vec()))
                    .sum();
                assert_eq!(got, removed, "n_warm={n_warm} chunk={chunk}");
                assert_eq!(batched.seq().counters().snapshot().batch_gathers, 0);
                assert_eq!(per_op.to_sorted_vec(), batched.to_sorted_vec());
                assert_eq!(per_op.seq().n_hat(), batched.seq().n_hat());
                assert_eq!(
                    per_op.seq().occupancy(),
                    batched.seq().occupancy(),
                    "n_warm={n_warm} chunk={chunk}: occupancy must be bit-identical"
                );
                batched.seq().check_invariants();
                let mut follow = per_op.clone();
                for i in 0..200u64 {
                    follow.insert(i * 7919, i);
                    batched.insert(i * 7919, i);
                }
                assert_eq!(
                    follow.seq().occupancy(),
                    batched.seq().occupancy(),
                    "n_warm={n_warm} chunk={chunk}: post-batch coin streams diverged"
                );
            }
        }
    }

    #[test]
    fn one_ledger_update_per_operation_counts_what_per_call_counting_did() {
        // A scripted run over every exit path of the two update entry
        // points, crossing capacity rebuilds.
        let mut state = 0x5EED_1E46u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) % m.max(1) as u64) as usize
        };
        let mut pma: HiPma<u64> = HiPma::new(0x1ED6);
        for i in 0..6_000u64 {
            if i % 3 == 2 {
                pma.delete(next(pma.len())).unwrap();
            } else {
                pma.insert(next(pma.len() + 1), i).unwrap();
            }
        }
        for chunk in 0..12u64 {
            for i in 0..500u64 {
                if (i + chunk) % 4 == 3 {
                    pma.delete(next(pma.len())).unwrap();
                } else {
                    pma.insert(next(pma.len() + 1), i).unwrap();
                }
            }
        }
        pma.check_invariants();
        // Captured from per-call counting (a lock per `add_insert`, per
        // rebuilt leaf's `add_moves` and per `add_rebuild`) under this
        // geometry: folding them into one update per operation moves no
        // value.
        let per_call = OpCounters {
            element_moves: 1_349_010,
            rebuilds: 4_010,
            rebuild_slots: 4_927_080,
            resizes: 68,
            inserts: 8_500,
            deletes: 3_500,
            ..OpCounters::default()
        };
        assert_eq!(pma.counters().snapshot(), per_call);
    }

    #[test]
    fn seek_finger_matches_plain_lower_bound() {
        let mut pma: HiPma<u64> = HiPma::new(99);
        let keys: Vec<u64> = (0..4_000u64).map(|k| k * 3).collect();
        for (i, &k) in keys.iter().enumerate() {
            pma.insert(i, k).unwrap();
        }
        let mut finger = SeekFinger::new();
        for probe in (0..12_500u64).step_by(7) {
            let (rank, elem) = pma.lower_bound_seek_by(&mut finger, |x| x.cmp(&probe));
            let expected = pma.lower_bound_by(|x| x.cmp(&probe));
            assert_eq!(rank, expected, "probe {probe}");
            assert_eq!(elem, pma.get_rank_ref(rank), "probe {probe}");
        }
        // Past-the-end probes park the finger at the end.
        let (rank, elem) = pma.lower_bound_seek_by(&mut finger, |x| x.cmp(&u64::MAX));
        assert_eq!((rank, elem), (keys.len(), None));
        let empty: HiPma<u64> = HiPma::new(1);
        let mut finger = SeekFinger::new();
        assert_eq!(
            empty.lower_bound_seek_by(&mut finger, |x: &u64| x.cmp(&5)),
            (0, None)
        );
    }
}
