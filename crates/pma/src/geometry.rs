//! Geometry of the history-independent PMA (paper §3.3).
//!
//! Given the capacity parameter `N̂` (drawn by the WHI capacity rule), the
//! PMA's layout is completely determined:
//!
//! * the paper's tree of ranges has height `H = ⌈log N̂ − log log N̂⌉` over
//!   leaves of `⌈C_L · log N̂⌉` slots, so the array has
//!   `N_S = 2^H · ⌈C_L · log N̂⌉ = Θ(N̂)` slots;
//! * this tree stops [`LEAF_SCALE_LOG2`] levels early: height
//!   `h = H − LEAF_SCALE_LOG2` (the root is the whole array at depth 0, the
//!   leaves are at depth `h`) over leaves of
//!   `L = 2^LEAF_SCALE_LOG2 · ⌈C_L · log N̂⌉` slots — the same `N_S`;
//! * a non-leaf range at depth `d` has a candidate set of
//!   `|M_d| = ⌈c₁ · N̂ / (2^d · log N̂)⌉` middle elements.
//!
//! The paper asks for leaves of `Θ(log N̂)` slots and leaves the constant
//! free. Why the shorter tree is still the paper's structure:
//!
//! * Lemma 7's induction (`ℓ_{d+1} ≤ ℓ_d/2 + |M_d|/2 + 1`, a depth-`d` range
//!   has `N_S/2^d` slots) is per depth, and nothing at depth `≤ h` changed,
//!   so no range — a leaf included — overflows; Lemma 8 likewise.
//! * A leaf is the slot span of a depth-`h` range of the paper's tree,
//!   holding the same elements, evenly spread: a function of its count.
//! * Lemma 9's representation function is `(N, N̂, balances above the
//!   leaves)`; the balances that remain are kept uniform by the unchanged
//!   reservoir rule, and `Θ(log N̂)` leaves keep Theorem 1's bounds.
//!
//! What it buys: the three levels dropped had candidate sets of 1, 2 and 3
//! elements, which draw almost no randomness yet slide on every other
//! update, so five updates in six ended in a range rebuild. For `N̂ ≥ 4096`
//! the deepest candidate set left has 5–8 elements.
//!
//! The constants must satisfy `C_L ≥ 1 + c₁ + 6/log N̂` (Lemma 7: ranges never
//! overflow) and `c₁ < 1 − 6/log N̂` (Lemma 8: leaves stay constant-factor
//! full). The paper uses `c₁ = 1/2`, `C_L = 2` for `N̂ > 4096` and falls back
//! to a plain dynamic array for tiny `N̂`; [`Geometry`] does the same, using a
//! single-leaf layout (height 0) below [`SMALL_LIMIT`] and adaptive constants
//! between [`SMALL_LIMIT`] and 4096 so that both inequalities always hold.

/// Below this `N̂` the PMA degenerates to a single evenly-spread leaf
/// (the paper's "dynamic array" fallback, footnote 5).
pub const SMALL_LIMIT: usize = 128;

/// `N̂` at and above which the paper's headline constants (`c₁ = 1/2`,
/// `C_L = 2`) are used.
pub const PAPER_CONSTANTS_LIMIT: usize = 4096;

/// How many levels above the paper's `⌈log N̂ − log log N̂⌉` the range tree
/// ends; a leaf is `2^LEAF_SCALE_LOG2` of the paper's leaves. Chosen by the
/// sweep in EXPERIMENTS.md: the largest step that keeps element moves per
/// update (the paper's Figure 2 quantity) within 10 % of the literal
/// geometry, and a leaf of 16-byte records is then about one 4 KiB block.
pub const LEAF_SCALE_LOG2: usize = 3;

/// The complete set of layout parameters derived from `N̂`.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    /// The capacity parameter this geometry was derived from.
    pub n_hat: usize,
    /// Height of the range tree (leaves at depth `h`; `h = 0` means the whole
    /// array is one leaf). A `usize`, like every other field, so the struct
    /// has no padding (see DESIGN.md "Deleted records in RAM").
    pub height: usize,
    /// Slots per leaf range.
    pub leaf_slots: usize,
    /// Total slots in the array (`2^h · leaf_slots`).
    pub total_slots: usize,
    /// The constant `c₁` used for candidate-set sizes.
    pub c1: f64,
    /// The constant `C_L` used for leaf sizes.
    pub c_l: f64,
    /// `|M_d|` per depth `0..height`, precomputed so the per-level reservoir
    /// decisions on the update path never touch floating point.
    candidate_sizes: Vec<usize>,
}

impl Geometry {
    /// Derives the layout for capacity parameter `n_hat ≥ 1`.
    pub fn for_n_hat(n_hat: usize) -> Self {
        assert!(n_hat >= 1, "geometry requires N̂ ≥ 1");
        if n_hat < SMALL_LIMIT {
            // Single leaf with 2·N̂ slots (at least 4): the dynamic-array
            // fallback. Elements are always evenly spread across the leaf.
            let leaf_slots = (2 * n_hat).max(4);
            return Self {
                n_hat,
                height: 0,
                leaf_slots,
                total_slots: leaf_slots,
                c1: 0.0,
                c_l: 2.0,
                candidate_sizes: Vec::new(),
            };
        }
        let lg = (n_hat as f64).log2();
        let (c1, c_l) = if n_hat >= PAPER_CONSTANTS_LIMIT {
            (0.5, 2.0)
        } else {
            // Adaptive constants that satisfy the Lemma 7/8 inequalities with
            // a little slack for every N̂ in [SMALL_LIMIT, 4096).
            let c1 = 0.9 * (1.0 - 6.0 / lg);
            let c_l = 1.0 + c1 + 6.0 / lg + 0.05;
            (c1, c_l)
        };
        let full_height = (lg - lg.log2()).ceil().max(1.0) as usize;
        let height = full_height.saturating_sub(LEAF_SCALE_LOG2).max(1);
        let leaf_slots = ((c_l * lg).ceil() as usize) << (full_height - height);
        let total_slots = (1usize << height) * leaf_slots;
        let candidate_sizes = (0..height)
            .map(|d| {
                let raw = (c1 * n_hat as f64 / ((1u64 << d) as f64 * lg)).ceil() as usize;
                raw.clamp(1, total_slots >> d)
            })
            .collect();
        Self {
            n_hat,
            height,
            leaf_slots,
            total_slots,
            c1,
            c_l,
            candidate_sizes,
        }
    }

    /// Number of leaf ranges (`2^h`).
    pub fn leaf_count(&self) -> usize {
        1usize << self.height
    }

    /// Number of levels in the range tree (`h + 1`), which is also the number
    /// of levels of the rank tree.
    pub fn levels(&self) -> u32 {
        self.height as u32 + 1
    }

    /// Total number of ranges (nodes of the range tree).
    pub fn range_count(&self) -> usize {
        (1usize << (self.height + 1)) - 1
    }

    /// Number of slots in a range at depth `d`.
    pub fn slots_at_depth(&self, d: usize) -> usize {
        debug_assert!(d <= self.height);
        self.total_slots >> d
    }

    /// Candidate-set size `|M_d|` for a non-leaf range at depth `d`.
    ///
    /// Always at least 1 and never larger than the range's slot count.
    /// Precomputed at construction, so the per-level lookup on the update
    /// path is a table read.
    #[inline]
    pub fn candidate_size(&self, d: usize) -> usize {
        debug_assert!(d < self.height, "leaves have no candidate set");
        self.candidate_sizes[d]
    }

    /// Leaf (group) index owning `slot`.
    #[inline]
    pub fn leaf_of_slot(&self, slot: usize) -> usize {
        debug_assert!(slot < self.total_slots);
        slot / self.leaf_slots
    }

    /// First slot of leaf `leaf`.
    #[inline]
    pub fn leaf_start(&self, leaf: usize) -> usize {
        debug_assert!(leaf < self.leaf_count());
        leaf * self.leaf_slots
    }

    /// 0-based start of the candidate window for a range currently holding
    /// `len` elements, with candidate-set size `m`: the paper's
    /// "`1 + ⌈ℓ/2⌉ − ⌈m/2⌉`-th element" converted to 0-based indexing and
    /// clamped into `[0, len − m_eff]`.
    ///
    /// Returns `(window_start, effective_window_size)` where the effective
    /// size is `min(m, len)` (the window cannot exceed the elements present).
    pub fn candidate_window(len: usize, m: usize) -> (usize, usize) {
        if len == 0 {
            return (0, 0);
        }
        let m_eff = m.min(len);
        let start_1based = (len.div_ceil(2) + 1).saturating_sub(m_eff.div_ceil(2));
        let start = start_1based.saturating_sub(1).min(len - m_eff);
        (start, m_eff)
    }

    /// Returns `true` when this geometry is the single-leaf fallback.
    pub fn is_small(&self) -> bool {
        self.height == 0
    }

    /// Verifies the Lemma 7 pre-condition `C_L ≥ 1 + c₁ + 6/log N̂` and the
    /// Lemma 8 pre-condition `c₁ < 1 − 6/log N̂`. Used by tests and debug
    /// assertions.
    pub fn constants_are_valid(&self) -> bool {
        if self.is_small() {
            return true;
        }
        let lg = (self.n_hat as f64).log2();
        self.c_l + 1e-9 >= 1.0 + self.c1 + 6.0 / lg && self.c1 < 1.0 - 6.0 / lg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_n_hat_is_single_leaf() {
        for n_hat in 1..SMALL_LIMIT {
            let g = Geometry::for_n_hat(n_hat);
            assert!(g.is_small());
            assert_eq!(g.leaf_count(), 1);
            assert!(g.total_slots >= 2 * n_hat || g.total_slots >= 4);
            assert!(g.constants_are_valid());
        }
    }

    #[test]
    fn large_n_hat_uses_paper_constants() {
        let g = Geometry::for_n_hat(1 << 20);
        assert_eq!(g.c1, 0.5);
        assert_eq!(g.c_l, 2.0);
        assert!(g.constants_are_valid());
    }

    #[test]
    fn constants_valid_across_the_whole_range() {
        for n_hat in (SMALL_LIMIT..20_000).step_by(37) {
            let g = Geometry::for_n_hat(n_hat);
            assert!(g.constants_are_valid(), "N̂ = {n_hat}: {g:?}");
        }
    }

    #[test]
    fn space_is_linear() {
        // N_S ≤ (2·C_L + 1)·N̂ per the paper, and at least N̂ slots so
        // everything fits.
        for n_hat in [SMALL_LIMIT, 1_000, 4_096, 65_536, 1 << 20] {
            let g = Geometry::for_n_hat(n_hat);
            assert!(
                g.total_slots as f64 <= (2.0 * g.c_l + 1.5) * n_hat as f64,
                "N̂ = {n_hat}: {} slots",
                g.total_slots
            );
            assert!(g.total_slots >= n_hat, "N̂ = {n_hat}: too few slots");
        }
    }

    #[test]
    fn heights_grow_logarithmically() {
        let g1 = Geometry::for_n_hat(1 << 12);
        let g2 = Geometry::for_n_hat(1 << 20);
        assert!(g2.height > g1.height);
        assert!(g2.height <= 21);
    }

    /// The paper's height `⌈log N̂ − log log N̂⌉` and slot count
    /// `2^H · ⌈C_L log N̂⌉`, computed without [`LEAF_SCALE_LOG2`].
    fn literal_geometry(n_hat: usize, c_l: f64) -> (usize, usize) {
        let lg = (n_hat as f64).log2();
        let full_height = (lg - lg.log2()).ceil() as usize;
        (
            full_height,
            (1usize << full_height) * (c_l * lg).ceil() as usize,
        )
    }

    #[test]
    fn shorter_tree_keeps_the_slot_array_and_lemma_7_at_every_depth() {
        let check = |n_hat: usize| -> usize {
            let g = Geometry::for_n_hat(n_hat);
            let (full_height, literal_slots) = literal_geometry(n_hat, g.c_l);
            assert_eq!(g.total_slots, literal_slots, "N̂ = {n_hat}");
            assert!(g.height >= 1, "N̂ = {n_hat}");
            assert_eq!(g.height + LEAF_SCALE_LOG2, full_height, "N̂ = {n_hat}");
            assert_eq!(g.slots_at_depth(g.height), g.leaf_slots, "N̂ = {n_hat}");
            assert_eq!(g.slots_at_depth(0), g.total_slots, "N̂ = {n_hat}");
            // Lemma 7: a depth-d range holds at most (N̂/2^d)(1 + c₁) + 3
            // elements, leaves included.
            for d in 0..=g.height {
                let bound = (n_hat as f64 / (1u64 << d) as f64) * (1.0 + g.c1) + 3.0;
                assert!(
                    bound <= g.slots_at_depth(d) as f64,
                    "N̂ = {n_hat}, depth {d}: {bound} elements > {} slots",
                    g.slots_at_depth(d)
                );
            }
            // An insert lands in its leaf of the old layout before any
            // rebuild it triggers, so a leaf at the bound takes one more.
            let leaf_bound = (n_hat as f64 / (1u64 << g.height) as f64) * (1.0 + g.c1) + 3.0;
            assert!(
                leaf_bound + 1.0 <= g.leaf_slots as f64,
                "N̂ = {n_hat}: a leaf at the Lemma 7 bound {leaf_bound} has no free slot \
                 among {}",
                g.leaf_slots
            );
            g.height
        };
        // A geometric sweep (steps are a factor ~2 apart, strides 1/64), and
        // both sides of every height step inside it: the height is monotone
        // in N̂, so a step is found by bisection.
        let mut steps = 0;
        let (mut prev, mut prev_height) = (SMALL_LIMIT, check(SMALL_LIMIT));
        while prev < 1 << 21 {
            let n_hat = prev + (prev / 64).max(1);
            let height = check(n_hat);
            if height != prev_height {
                let (mut lo, mut hi) = (prev, n_hat);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if check(mid) == prev_height {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                assert_eq!(check(lo) + 1, check(hi), "step at N̂ = {hi}");
                steps += 1;
            }
            (prev, prev_height) = (n_hat, height);
        }
        assert_eq!(steps, 12, "height steps between 2^7 and 2^21");
        // C_L = 2, log2 = 16: eight of the paper's 32-slot leaves.
        assert_eq!(Geometry::for_n_hat(1 << 16).leaf_slots, 256);
    }

    #[test]
    fn candidate_sizes_shrink_with_depth() {
        let g = Geometry::for_n_hat(1 << 16);
        let mut prev = usize::MAX;
        for d in 0..g.height {
            let m = g.candidate_size(d);
            assert!(m >= 1);
            assert!(m <= prev);
            prev = m;
        }
        // Root candidate set: c1·N̂/log N̂ = 0.5·65536/16 = 2048.
        assert_eq!(g.candidate_size(0), 2048);
    }

    #[test]
    fn candidate_window_is_centred_and_clamped() {
        // len = 100, m = 10 → 1-based start = 51 − 5 = 46 → 0-based 45.
        assert_eq!(Geometry::candidate_window(100, 10), (45, 10));
        // Window never extends past the elements present.
        let (w, m_eff) = Geometry::candidate_window(6, 10);
        assert_eq!(m_eff, 6);
        assert_eq!(w, 0);
        // Empty range.
        assert_eq!(Geometry::candidate_window(0, 8), (0, 0));
        // Single element.
        assert_eq!(Geometry::candidate_window(1, 8), (0, 1));
    }

    #[test]
    fn candidate_window_always_in_bounds() {
        for len in 0..200usize {
            for m in 1..50usize {
                let (w, m_eff) = Geometry::candidate_window(len, m);
                assert!(m_eff <= len);
                if len > 0 {
                    assert!(w + m_eff <= len, "len={len} m={m} w={w} m_eff={m_eff}");
                }
            }
        }
    }

    #[test]
    fn geometry_has_no_padding() {
        // Every byte of a `Geometry` is a field's: no padding can keep the
        // bytes of whatever the memory held before it.
        use std::mem::size_of;
        let fields = 4 * size_of::<usize>() + 2 * size_of::<f64>() + size_of::<Vec<usize>>();
        assert_eq!(size_of::<Geometry>(), fields);
    }

    #[test]
    fn levels_and_range_count() {
        let g = Geometry::for_n_hat(1 << 14);
        assert_eq!(g.levels(), g.height as u32 + 1);
        assert_eq!(g.range_count(), (1 << (g.height + 1)) - 1);
        assert_eq!(g.leaf_count(), 1 << g.height);
    }

    #[test]
    #[should_panic(expected = "N̂ ≥ 1")]
    fn zero_n_hat_panics() {
        Geometry::for_n_hat(0);
    }
}
