//! The classic (non-history-independent) packed-memory array baseline.
//!
//! This is the textbook density-threshold PMA of Itai–Konheim–Rodeh /
//! Bender–Demaine–Farach-Colton / Bender–Hu that the paper compares against
//! in §4.3: an array of `Θ(N)` slots divided into segments of `Θ(log N)`
//! slots, with an implicit binary tree of *windows* above the segments. Every
//! window has a depth-dependent density band; an update rebalances the
//! smallest enclosing window that is back within its band, and the whole
//! array is resized when even the root is out of bounds.
//!
//! The rebalance windows — and therefore the final layout — depend heavily on
//! *where* previous inserts and deletes happened, which is exactly the
//! history leak the HI PMA removes. Keeping this baseline around lets the
//! benchmarks reproduce the paper's "factor of ~7 runtime overhead" claim and
//! lets the tests demonstrate the leak itself.
//!
//! Storage uses the same allocation-free engine as the HI PMA
//! ([`SlotStore`]): one slot arena with each segment's values dense at its
//! front and the default in every other slot. A window rebalance moves
//! (never clones) elements across segment boundaries in place
//! ([`SlotStore::redistribute`]) until each segment holds the elements
//! whose spread positions fall in it, and a resize regroups them through
//! the next arena ([`SlotStore::regroup`]), so no deleted record stays in
//! an arena. The slot layout is a packed bitmap of its own: a window
//! rebalance spreads its elements evenly over the *window*, not segment by
//! segment, so unlike the HI PMA's leaves the layout is not a function of
//! the segment counts.

use hi_common::bitmap::Bitmap;
use hi_common::counters::SharedCounters;
use hi_common::traits::{Occupancy, RankError, RankedSequence};
use io_sim::{Region, Tracer};

use crate::fenwick::Fenwick;
use crate::spread::for_each_spread_position;
use crate::store::{take_out, ScanIter, SlotStore};

/// Density thresholds for the classic PMA, linearly interpolated by depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityBands {
    /// Maximum density allowed at the root (whole array).
    pub root_max: f64,
    /// Maximum density allowed at a leaf (single segment).
    pub leaf_max: f64,
    /// Minimum density allowed at the root.
    pub root_min: f64,
    /// Minimum density allowed at a leaf.
    pub leaf_min: f64,
}

impl DensityBands {
    /// The conventional thresholds (root 0.30–0.70, leaf 0.08–0.92).
    pub fn standard() -> Self {
        Self {
            root_max: 0.70,
            leaf_max: 0.92,
            root_min: 0.30,
            leaf_min: 0.08,
        }
    }

    /// Upper threshold for a window at `depth` out of `height` levels
    /// (depth 0 = root, depth == height = leaf).
    pub fn upper(&self, depth: u32, height: u32) -> f64 {
        if height == 0 {
            return self.leaf_max;
        }
        self.root_max + (self.leaf_max - self.root_max) * depth as f64 / height as f64
    }

    /// Lower threshold for a window at `depth` out of `height` levels.
    pub fn lower(&self, depth: u32, height: u32) -> f64 {
        if height == 0 {
            return self.leaf_min;
        }
        self.root_min - (self.root_min - self.leaf_min) * depth as f64 / height as f64
    }
}

/// The classic density-threshold PMA. Rank-addressed, like [`crate::HiPma`].
#[derive(Debug, Clone)]
pub struct ClassicPma<T: Clone + Default> {
    store: SlotStore<T>,
    /// Slot occupancy, rewritten beside every window fill of `store`.
    bitmap: Bitmap,
    /// Elements per segment.
    seg_counts: Fenwick,
    seg_size: usize,
    segments: usize,
    /// log2(segments): depth of the window tree.
    height: u32,
    len: usize,
    bands: DensityBands,
    counters: SharedCounters,
    tracer: Tracer,
    region: Region,
    elem_size: u64,
    /// One count per segment: a rebalance's new per-segment counts, written
    /// over its window's entries. Sized by the geometry in `resize`.
    spread_counts: Vec<usize>,
}

impl<T: Clone + Default> ClassicPma<T> {
    /// Creates an empty PMA with the standard density bands.
    pub fn new() -> Self {
        Self::with_parts(
            DensityBands::standard(),
            SharedCounters::new(),
            Tracer::disabled(),
            16,
        )
    }

    /// Creates an empty PMA with explicit bands, counters, tracer and
    /// per-element on-disk size.
    pub fn with_parts(
        bands: DensityBands,
        counters: SharedCounters,
        tracer: Tracer,
        elem_size: u64,
    ) -> Self {
        let mut pma = Self {
            store: SlotStore::new(1, 8, 8),
            bitmap: Bitmap::new(8),
            seg_counts: Fenwick::new(0),
            seg_size: 0,
            segments: 0,
            height: 0,
            len: 0,
            bands,
            counters,
            tracer,
            region: Region::new(0, elem_size, 1),
            elem_size,
            spread_counts: Vec::new(),
        };
        pma.resize(0, false, |_| ());
        pma
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots in the backing array.
    pub fn total_slots(&self) -> usize {
        self.store.total_slots()
    }

    /// Current segment size (`Θ(log N)` slots).
    pub fn segment_size(&self) -> usize {
        self.seg_size
    }

    /// The shared operation counters.
    pub fn counters(&self) -> &SharedCounters {
        &self.counters
    }

    /// Verifies structural invariants (rank index consistent with slots,
    /// densities within the root band). Intended for tests.
    pub fn check_invariants(&self)
    where
        T: PartialEq,
    {
        assert_eq!(self.bitmap.count_ones(), self.len);
        assert!(self.store.vacant_slots_hold_defaults());
        assert_eq!(self.seg_counts.total() as usize, self.len);
        for seg in 0..self.segments {
            let start = seg * self.seg_size;
            let occ = self.bitmap.count_range(start, start + self.seg_size);
            assert_eq!(occ as u64, self.seg_counts.get(seg), "segment {seg}");
            assert_eq!(
                occ,
                self.store.group_len(seg),
                "segment {seg}: dense values and bitmap disagree"
            );
            assert!(occ <= self.seg_size);
        }
    }

    // ------------------------------------------------------------------
    // Sizing and rebuilds
    // ------------------------------------------------------------------

    /// Picks the array size for `n` elements: the smallest power of two that
    /// keeps the root density at ~0.5, at least 8 slots.
    fn target_slots(n: usize) -> usize {
        ((2 * n).max(8)).next_power_of_two()
    }

    /// Rebuilds the array for `len` elements, as one window over every
    /// segment: the store regroups the elements at the front of the next
    /// arena, where `edit` — the update that triggered the resize — leaves
    /// `len` of them, and spreads them evenly. A resize of an update
    /// (`gather`) is charged one read of the whole array.
    fn resize<R>(&mut self, len: usize, gather: bool, edit: impl FnOnce(&mut Vec<T>) -> R) -> R {
        let total_slots = Self::target_slots(len);
        // Segment size ≈ log2(total_slots), rounded so the segment count is a
        // power of two.
        let target_seg = (total_slots.trailing_zeros() as usize).max(2);
        let segments = (total_slots / target_seg).next_power_of_two().max(1);
        let seg_size = total_slots / segments;
        debug_assert!(seg_size * segments == total_slots);
        if gather {
            self.tracer.read(self.region.base, self.region.byte_len());
        }
        let edited = self.store.regroup(segments, seg_size, seg_size, edit);
        // A segment holds the elements whose spread positions fall in it.
        let mut counts = vec![0; segments];
        for_each_spread_position(len, total_slots, |p| counts[p / seg_size] += 1);
        self.store.spread(&counts);
        self.bitmap = Bitmap::new(total_slots);
        self.seg_size = seg_size;
        self.segments = segments;
        self.height = segments.trailing_zeros();
        self.len = len;
        self.region = Region::new(0, self.elem_size, total_slots as u64);
        self.spread_bits(0, total_slots, len);
        self.counters.add_moves(len as u64);
        self.counters.add_resize();
        self.tracer.write(self.region.base, self.region.byte_len());
        let wide: Vec<u64> = counts.iter().map(|&n| n as u64).collect();
        self.seg_counts = Fenwick::from_counts(&wide);
        self.spread_counts = counts;
        edited
    }

    // ------------------------------------------------------------------
    // Rank navigation
    // ------------------------------------------------------------------

    /// Segment index and within-segment rank for a global rank. For
    /// `rank == len` (append) returns the last segment holding elements (or
    /// segment 0 when empty).
    fn segment_for_rank(&self, rank: usize) -> (usize, usize) {
        if rank >= self.len {
            // Append: place after the last element.
            if self.len == 0 {
                return (0, 0);
            }
            #[expect(
                clippy::expect_used,
                reason = "len > 0 on this branch, so len - 1 is a valid rank"
            )]
            let (seg, within) = self
                .seg_counts
                .find_rank((self.len - 1) as u64)
                .expect("len - 1 is a valid rank");
            return (seg, within as usize + 1);
        }
        #[expect(
            clippy::expect_used,
            reason = "rank < len was checked by the branch above"
        )]
        let (seg, within) = self
            .seg_counts
            .find_rank(rank as u64)
            .expect("rank < len was checked");
        (seg, within as usize)
    }

    /// Rebalances the window of `1 << level` segments containing `seg`
    /// around one update, which leaves `count` elements in it: each segment
    /// of the window ends holding the elements whose spread positions over
    /// the window's slots fall in it. `edit` gets the store, the window's
    /// first segment and those per-segment counts, and makes the update
    /// while moving the elements in place ([`SlotStore::redistribute`]).
    /// Every element of the window is charged as moved.
    fn rebalance_window<R>(
        &mut self,
        seg: usize,
        level: u32,
        count: usize,
        edit: impl FnOnce(&mut SlotStore<T>, usize, &mut [usize]) -> R,
    ) -> R {
        let window_segs = 1usize << level;
        let first_seg = (seg / window_segs) * window_segs;
        let start = first_seg * self.seg_size;
        let slot_count = window_segs * self.seg_size;
        self.tracer.read(
            self.region.addr(start as u64),
            self.region.span(slot_count as u64),
        );
        let (new, seg_size) = (&mut self.spread_counts[..window_segs], self.seg_size);
        new.fill(0);
        for_each_spread_position(count, slot_count, |p| new[p / seg_size] += 1);
        let edited = edit(&mut self.store, first_seg, new);
        self.spread_bits(start, slot_count, count);
        self.counters.add_moves(count as u64);
        self.counters.add_rebuild(slot_count as u64);
        self.tracer.write(
            self.region.addr(start as u64),
            self.region.span(slot_count as u64),
        );
        for s in first_seg..first_seg + window_segs {
            let occ = self.store.group_len(s);
            let old = self.seg_counts.get(s) as i64;
            self.seg_counts.add(s, occ as i64 - old);
        }
        edited
    }

    /// Rewrites the bits of the `slot_count` slots from `start` to the
    /// positions a rebalance spread `count` elements to.
    fn spread_bits(&mut self, start: usize, slot_count: usize, count: usize) {
        let bitmap = &mut self.bitmap;
        bitmap.clear_range(start, start + slot_count);
        for_each_spread_position(count, slot_count, |p| bitmap.set(start + p));
    }

    /// Number of elements currently in the window of `1 << level` segments
    /// containing `seg`.
    fn window_count(&self, seg: usize, level: u32) -> usize {
        let window_segs = 1usize << level;
        let first_seg = (seg / window_segs) * window_segs;
        (self.seg_counts.prefix_sum(first_seg + window_segs)
            - self.seg_counts.prefix_sum(first_seg)) as usize
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Inserts `item` as the `rank`-th element.
    pub fn insert(&mut self, rank: usize, item: T) -> Result<(), RankError> {
        if rank > self.len {
            return Err(RankError {
                rank,
                len: self.len,
            });
        }
        self.counters.add_insert();
        let (seg, within) = self.segment_for_rank(rank);
        // Find the smallest window (starting from the single segment) whose
        // density after the insert is within its upper threshold.
        let mut level = 0u32;
        loop {
            let window_slots = (1usize << level) * self.seg_size;
            let count_after = self.window_count(seg, level) + 1;
            let depth = self.height - level;
            let threshold = self.bands.upper(depth, self.height);
            if count_after as f64 <= threshold * window_slots as f64 && count_after <= window_slots
            {
                // Rebalance this window with the new element included: it
                // goes to the segment its window rank lands in, after the
                // others are spread to the counts less it.
                self.rebalance_window(seg, level, count_after, |store, first, new| {
                    let mut at = within + (first..seg).map(|g| store.group_len(g)).sum::<usize>();
                    let mut g = 0;
                    while at >= new[g] {
                        at -= new[g];
                        g += 1;
                    }
                    new[g] -= 1;
                    store.redistribute(first, new);
                    store.insert_in_group(first + g, at, item);
                });
                self.len += 1;
                return Ok(());
            }
            if level == self.height {
                // Even the root is too dense: grow and retry by rebuilding.
                self.resize(self.len + 1, true, |front| front.insert(rank, item));
                return Ok(());
            }
            level += 1;
        }
    }

    /// Deletes and returns the `rank`-th element.
    pub fn delete(&mut self, rank: usize) -> Result<T, RankError> {
        if rank >= self.len {
            return Err(RankError {
                rank,
                len: self.len,
            });
        }
        self.counters.add_delete();
        let (seg, within) = self.segment_for_rank(rank);
        let mut level = 0u32;
        loop {
            let window_slots = (1usize << level) * self.seg_size;
            let count_after = self.window_count(seg, level) - 1;
            let depth = self.height - level;
            let threshold = self.bands.lower(depth, self.height);
            let root_level = level == self.height;
            if count_after as f64 >= threshold * window_slots as f64 && !root_level {
                let removed =
                    self.rebalance_window(seg, level, count_after, |store, first, new| {
                        let removed = store.remove_in_group(seg, within);
                        store.redistribute(first, new);
                        removed
                    });
                self.len -= 1;
                return Ok(removed);
            }
            if root_level {
                // Shrink (or just rebuild at the same size when small).
                return Ok(self.resize(self.len - 1, true, |front| take_out(front, rank)));
            }
            level += 1;
        }
    }

    /// Returns the `rank`-th element, if any.
    pub fn get_rank(&self, rank: usize) -> Option<T> {
        self.get_rank_ref(rank).cloned()
    }

    /// Borrows the `rank`-th element, if any, without copying it. One
    /// Fenwick rank search, then a direct dense index — no slot probing.
    pub fn get_rank_ref(&self, rank: usize) -> Option<&T> {
        if rank >= self.len {
            return None;
        }
        let (seg, within) = self.segment_for_rank(rank);
        let start = seg * self.seg_size;
        self.tracer.read(
            self.region.addr(start as u64),
            self.region.span(self.seg_size as u64),
        );
        self.store.group(seg).get(within)
    }

    /// Lazily yields the elements with ranks `rank..len` in order: one
    /// Fenwick rank lookup, then a sequential scan of the dense segments,
    /// each charged to the tracer as one read when the iterator enters it.
    pub fn iter_from(&self, rank: usize) -> ScanIter<'_, T> {
        let (seg, within) = if rank >= self.len {
            (self.segments, 0)
        } else {
            self.segment_for_rank(rank)
        };
        self.store
            .iter_from(seg, within, self.tracer.clone(), self.region)
    }

    /// Borrows every element in rank order (a full sequential scan).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_from(0)
    }

    /// The zero-copy `Query(i, j)`: lazily yields the `i`-th through `j`-th
    /// elements inclusive.
    ///
    /// Uniform error contract: `i > j` is an empty range (`Ok`); `j ≥ len`
    /// (with `i ≤ j`) is a [`RankError`].
    pub fn range_iter(&self, i: usize, j: usize) -> Result<impl Iterator<Item = &T>, RankError> {
        if i > j {
            return Ok(self.iter_from(usize::MAX).take(0));
        }
        if j >= self.len {
            return Err(RankError {
                rank: j,
                len: self.len,
            });
        }
        self.counters.add_query();
        Ok(self.iter_from(i).take(j - i + 1))
    }

    /// Replaces the entire contents with `items` (in rank order) via a
    /// single `O(n)` rebuild. The classic PMA draws no coins — its layout is
    /// already a deterministic function of the contents — so `seed` is
    /// accepted only for signature uniformity with the HI structures.
    pub fn bulk_load(&mut self, items: impl IntoIterator<Item = T>, seed: u64) {
        let _ = seed;
        let mut items: Vec<T> = items.into_iter().collect();
        self.store.clear();
        self.resize(items.len(), false, |front| {
            front.extend(items.iter_mut().map(std::mem::take));
        });
    }
}

impl<T: Clone + Default> Default for ClassicPma<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Default> Occupancy for ClassicPma<T> {
    fn slot_count(&self) -> usize {
        self.store.total_slots()
    }

    fn occupancy_into(&self, words: &mut Vec<u64>) {
        words.clear();
        words.extend_from_slice(self.bitmap.words());
    }
}

impl<T: Clone + Default> RankedSequence for ClassicPma<T> {
    type Item = T;

    fn len(&self) -> usize {
        ClassicPma::len(self)
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

    fn iter_from_by<F>(&self, f: F) -> impl Iterator<Item = &T>
    where
        F: Fn(&T) -> std::cmp::Ordering,
    {
        // The default's composition without `range_iter`'s query count: the
        // keyed caller counts the read.
        self.iter_from(self.lower_bound_by(f))
    }

    fn range_iter(&self, i: usize, j: usize) -> Result<impl Iterator<Item = &T>, RankError> {
        ClassicPma::range_iter(self, i, j)
    }

    fn bulk_load(&mut self, items: impl IntoIterator<Item = T>, seed: u64) {
        ClassicPma::bulk_load(self, items, seed)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn filled(n: usize) -> ClassicPma<u64> {
        let mut pma = ClassicPma::new();
        for i in 0..n {
            pma.insert(i, i as u64).unwrap();
        }
        pma
    }

    #[test]
    fn empty() {
        let pma: ClassicPma<u32> = ClassicPma::new();
        assert!(pma.is_empty());
        assert_eq!(pma.get_rank(0), None);
    }

    #[test]
    fn bands_interpolate() {
        let b = DensityBands::standard();
        assert!((b.upper(0, 4) - 0.70).abs() < 1e-12);
        assert!((b.upper(4, 4) - 0.92).abs() < 1e-12);
        assert!(b.upper(2, 4) > 0.70 && b.upper(2, 4) < 0.92);
        assert!((b.lower(0, 4) - 0.30).abs() < 1e-12);
        assert!((b.lower(4, 4) - 0.08).abs() < 1e-12);
        assert!((b.upper(0, 0) - 0.92).abs() < 1e-12);
    }

    #[test]
    fn sequential_appends() {
        let pma = filled(3000);
        assert_eq!(pma.len(), 3000);
        assert_eq!(
            pma.query(0, 2999).unwrap(),
            (0..3000u64).collect::<Vec<_>>()
        );
        pma.check_invariants();
    }

    #[test]
    fn front_inserts() {
        let mut pma = ClassicPma::new();
        for i in 0..2000u64 {
            pma.insert(0, i).unwrap();
        }
        let expected: Vec<u64> = (0..2000u64).rev().collect();
        assert_eq!(pma.query(0, 1999).unwrap(), expected);
        pma.check_invariants();
    }

    #[test]
    fn random_ops_match_reference_model() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut pma = ClassicPma::new();
        let mut model: Vec<u64> = Vec::new();
        for step in 0..5000u64 {
            if !model.is_empty() && rng.gen_bool(0.35) {
                let rank = rng.gen_range(0..model.len());
                assert_eq!(pma.delete(rank).unwrap(), model.remove(rank), "step {step}");
            } else {
                let rank = rng.gen_range(0..=model.len());
                pma.insert(rank, step).unwrap();
                model.insert(rank, step);
            }
            if step % 1000 == 0 {
                pma.check_invariants();
            }
        }
        if !model.is_empty() {
            assert_eq!(pma.query(0, model.len() - 1).unwrap(), model);
        }
        pma.check_invariants();
    }

    #[test]
    fn get_rank_works() {
        let pma = filled(500);
        for rank in [0usize, 1, 250, 499] {
            assert_eq!(pma.get_rank(rank), Some(rank as u64));
        }
        assert_eq!(pma.get_rank(500), None);
    }

    #[test]
    fn space_stays_linear() {
        let pma = filled(20_000);
        let ratio = pma.total_slots() as f64 / pma.len() as f64;
        assert!(ratio <= 4.0, "space ratio {ratio}");
    }

    #[test]
    fn deletes_shrink_the_array() {
        let mut pma = filled(10_000);
        let slots_full = pma.total_slots();
        for _ in 0..9_500 {
            pma.delete(0).unwrap();
        }
        assert!(pma.total_slots() < slots_full);
        assert_eq!(pma.len(), 500);
        pma.check_invariants();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut pma = filled(5);
        assert!(pma.insert(7, 0).is_err());
        assert!(pma.delete(5).is_err());
        assert!(pma.query(3, 9).is_err());
    }

    #[test]
    fn amortized_moves_are_polylogarithmic() {
        let n = 30_000usize;
        let pma = filled(n);
        let per_insert = pma.counters().snapshot().element_moves as f64 / n as f64;
        let log2n = (n as f64).log2();
        assert!(
            per_insert <= 8.0 * log2n * log2n,
            "moves per insert {per_insert}"
        );
    }

    #[test]
    fn layout_leaks_history() {
        // The motivating observation of the paper (§1.2): hammering inserts
        // at the front leaves the front of a classic PMA denser than the
        // back. Build the same *set* via front-loaded and back-loaded
        // histories and observe different occupancy patterns.
        let n = 4000usize;
        // History A: append ascending (inserts always at the back).
        let mut a = ClassicPma::new();
        for i in 0..n {
            a.insert(i, i as u64).unwrap();
        }
        // History B: insert descending values always at the front.
        let mut b = ClassicPma::new();
        for i in (0..n).rev() {
            b.insert(0, i as u64).unwrap();
        }
        // Same logical contents…
        assert_eq!(a.query(0, n - 1).unwrap(), b.query(0, n - 1).unwrap());
        // …but the physical layouts differ: the classic PMA is *not*
        // history independent. (If the arrays ended up different sizes the
        // leak is already visible in the size.)
        let leak = a.total_slots() != b.total_slots() || a.occupancy() != b.occupancy();
        assert!(leak, "expected the classic PMA layout to depend on history");
    }

    #[test]
    fn ranked_sequence_trait() {
        let mut pma: ClassicPma<&'static str> = ClassicPma::new();
        RankedSequence::insert_at(&mut pma, 0, "b").unwrap();
        RankedSequence::insert_at(&mut pma, 0, "a").unwrap();
        assert_eq!(pma.to_vec(), vec!["a", "b"]);
        assert_eq!(RankedSequence::delete_at(&mut pma, 1).unwrap(), "b");
    }

    #[test]
    fn occupancy_trait_matches_legacy_representation() {
        let pma = filled(700);
        let occupancy = pma.occupancy();
        assert_eq!(occupancy.len(), pma.total_slots());
        for (seg, slots) in occupancy.chunks(pma.segment_size()).enumerate() {
            let held = slots.iter().filter(|&&b| b).count();
            assert_eq!(held, pma.store.group_len(seg), "segment {seg}");
        }
        assert_eq!(pma.occupied_slots(), 700);
        assert_eq!(pma.slot_count(), pma.total_slots());
    }

    #[test]
    fn batch_replay_is_bit_identical_to_per_op_application() {
        // A batch on the classic PMA is applied in arrival order, so
        // `apply_batch` through the keyed adapter chooses the same windows
        // (and resizes) as the per-op calls however the stream is cut —
        // same contents, same slot count, same bitmap. Warm-up sizes cross
        // resize boundaries.
        use hi_common::traits::{Dictionary, RankedDict};
        use hi_common::BatchOp;
        for (n_warm, batch_len) in [(0u64, 60usize), (300, 400), (2_000, 1_100)] {
            let mut state = n_warm.wrapping_mul(0x9E3779B97F4A7C15) | 1;
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
                let mut d = RankedDict::new(ClassicPma::<(u64, u64)>::new());
                for k in 0..n_warm {
                    d.insert(k * 2, k);
                }
                d
            };
            let mut per_op = build_base();
            for op in ops.iter().cloned() {
                match op {
                    BatchOp::Put(k, v) => drop(per_op.insert(k, v)),
                    BatchOp::Remove(k) => drop(per_op.remove(&k)),
                }
            }
            for chunk in [1usize, 7, batch_len] {
                let mut batched = build_base();
                for c in ops.chunks(chunk) {
                    batched.apply_batch(c.to_vec());
                }
                assert_eq!(per_op.to_sorted_vec(), batched.to_sorted_vec());
                assert_eq!(per_op.seq().total_slots(), batched.seq().total_slots());
                assert_eq!(
                    per_op.seq().occupancy(),
                    batched.seq().occupancy(),
                    "n_warm={n_warm} chunk={chunk}: occupancy must be bit-identical"
                );
                batched.seq().check_invariants();
            }
        }
    }

    /// The provided `lower_bound_seek_by`, which ignores the finger, is the
    /// one the keyed adapter's sorted reads take on the classic PMA.
    #[test]
    fn seek_finger_matches_binary_search() {
        use hi_common::batch::SeekFinger;
        let mut pma: ClassicPma<u64> = ClassicPma::new();
        for (i, k) in (0..3_000u64).map(|k| k * 5).enumerate() {
            pma.insert(i, k).unwrap();
        }
        let mut finger = SeekFinger::new();
        for probe in (0..15_500u64).step_by(11) {
            let (rank, elem) = pma.lower_bound_seek_by(&mut finger, |x| x.cmp(&probe));
            let expected = pma.lower_bound_by(|x| x.cmp(&probe));
            assert_eq!(rank, expected, "probe {probe}");
            assert_eq!(elem, pma.get_rank_ref(rank), "probe {probe}");
        }
    }
}
