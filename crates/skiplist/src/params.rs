//! Parameters of the external-memory skip lists.
//!
//! The paper's §6 revolves around one knob: the promotion probability.
//!
//! * The **in-memory skip list** (Pugh) promotes with probability 1/2.
//! * The **folklore B-skip list** promotes with probability `1/B`; Lemma 15
//!   shows its high-probability search cost is no better than an in-memory
//!   skip list's.
//! * The paper's **history-independent external skip list** promotes with
//!   probability `1/B^γ` with `γ = (1 + ε)/2 ∈ (1/2, 1 − log log B / log B)`,
//!   and additionally packs contiguous leaf arrays (delimited by
//!   twice-promoted elements) into *leaf nodes*, with gaps governed by
//!   Invariant 16, to keep range queries at `O(log_B N / ε + k/B)` I/Os.
//!
//! [`SkipParams`] captures the promotion probability, the block size, the
//! leaf-packing mode and the padding rule; [`LeafPad`] maintains a leaf
//! array's padded size per Invariant 16.

use rand::Rng;

/// Configuration of an external skip list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkipParams {
    /// `1/p` as an integer: an element is promoted from one level to the next
    /// with probability `1 / promote_inv`.
    pub promote_inv: u64,
    /// Number of element-sized records that fit in one disk block (`B`).
    pub block_elems: usize,
    /// Bytes per element record (key + value + level tag) for I/O accounting.
    pub elem_bytes: usize,
    /// Bytes per disk block.
    pub block_bytes: usize,
    /// `true` for the paper's structure: leaf arrays are grouped into leaf
    /// nodes delimited by twice-promoted elements. `false` for the folklore
    /// B-skip list and the in-memory baseline, where every leaf array stands
    /// alone.
    pub group_leaf_nodes: bool,
    /// Minimum padded size of a leaf array (Invariant 16's `B^γ` floor);
    /// 1 disables padding.
    pub min_pad: usize,
    /// The ε parameter (only recorded for reporting; `promote_inv` already
    /// encodes it).
    pub epsilon: f64,
}

impl SkipParams {
    /// Parameters for the paper's history-independent external-memory skip
    /// list with block size `block_elems` elements and trade-off parameter
    /// `epsilon ∈ (0, 1)` (`γ = (1 + ε)/2`, promotion probability `1/B^γ`).
    pub fn history_independent(block_elems: usize, epsilon: f64) -> Self {
        assert!(block_elems >= 2, "block must hold at least two elements");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        let gamma = (1.0 + epsilon) / 2.0;
        let promote_inv = (block_elems as f64).powf(gamma).round().max(2.0) as u64;
        let elem_bytes = 24;
        Self {
            promote_inv,
            block_elems,
            elem_bytes,
            block_bytes: block_elems * elem_bytes,
            group_leaf_nodes: true,
            min_pad: promote_inv as usize,
            epsilon,
        }
    }

    /// Parameters for the folklore B-skip list (promotion probability `1/B`,
    /// no leaf-node packing). This is the Lemma 15 baseline.
    pub fn folklore_b(block_elems: usize) -> Self {
        assert!(block_elems >= 2, "block must hold at least two elements");
        let elem_bytes = 24;
        Self {
            promote_inv: block_elems as u64,
            block_elems,
            elem_bytes,
            block_bytes: block_elems * elem_bytes,
            group_leaf_nodes: false,
            min_pad: 1,
            epsilon: 1.0,
        }
    }

    /// Parameters for an in-memory (Pugh) skip list run in external memory:
    /// promotion probability 1/2 and one element per "block" (every node
    /// access is an I/O).
    pub fn in_memory() -> Self {
        let elem_bytes = 24;
        Self {
            promote_inv: 2,
            block_elems: 1,
            elem_bytes,
            block_bytes: elem_bytes,
            group_leaf_nodes: false,
            min_pad: 1,
            epsilon: 1.0,
        }
    }

    /// Draws a level for a newly inserted element: the number of successful
    /// promotions before the first failure, capped at 40.
    pub fn draw_level<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
        let mut level = 0u8;
        while level < 40 && rng.gen_range(0..self.promote_inv) == 0 {
            level += 1;
        }
        level
    }

    /// I/O cost (block transfers) of scanning `records` consecutive records.
    pub fn scan_cost(&self, records: usize) -> u64 {
        if records == 0 {
            0
        } else {
            ((records * self.elem_bytes) as u64).div_ceil(self.block_bytes as u64)
        }
    }
}

/// Padded size of a leaf array under Invariant 16.
///
/// For an array of `n` elements the padded size `n_s` is kept uniform in
/// `[max(n, floor), 2·max(n, floor) − 1]`, where `floor` is `B^γ` for the HI
/// skip list and 1 for the unpadded baselines. The size is re-drawn whenever
/// it falls outside the legal window, and otherwise with probability
/// `Θ(1/n_s)` per update (the paper's resize rule); a re-draw forces a
/// rebuild of the containing leaf node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafPad {
    padded: usize,
}

impl LeafPad {
    /// Draws an initial padded size for an array of `n` elements.
    pub fn draw<R: Rng + ?Sized>(n: usize, floor: usize, rng: &mut R) -> Self {
        let base = n.max(floor).max(1);
        Self {
            padded: rng.gen_range(base..2 * base),
        }
    }

    /// Current padded size.
    pub fn padded(&self) -> usize {
        self.padded
    }

    /// Returns `true` when `padded` is legal for `n` elements.
    pub fn is_legal(&self, n: usize, floor: usize) -> bool {
        let base = n.max(floor).max(1);
        self.padded >= base && self.padded < 2 * base && self.padded >= n
    }

    /// Updates the padded size after the array's element count changed to
    /// `n`. Returns `true` when the size was re-drawn (the caller must then
    /// rebuild the containing leaf node).
    pub fn update<R: Rng + ?Sized>(&mut self, n: usize, floor: usize, rng: &mut R) -> bool {
        let base = n.max(floor).max(1);
        if !self.is_legal(n, floor) || rng.gen_range(0..self.padded.max(1)) == 0 {
            self.padded = rng.gen_range(base..2 * base);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hi_params_promotion_between_sqrt_b_and_b() {
        for &b in &[16usize, 64, 256, 1024] {
            let p = SkipParams::history_independent(b, 0.5);
            assert!(p.promote_inv as f64 >= (b as f64).sqrt() - 1.0);
            assert!(p.promote_inv <= b as u64);
            assert!(p.group_leaf_nodes);
            assert_eq!(p.min_pad, p.promote_inv as usize);
        }
    }

    #[test]
    fn epsilon_controls_gamma() {
        let small = SkipParams::history_independent(256, 0.1);
        let large = SkipParams::history_independent(256, 0.9);
        assert!(small.promote_inv < large.promote_inv);
    }

    #[test]
    fn folklore_promotes_with_one_over_b() {
        let p = SkipParams::folklore_b(128);
        assert_eq!(p.promote_inv, 128);
        assert!(!p.group_leaf_nodes);
    }

    #[test]
    fn in_memory_is_half() {
        let p = SkipParams::in_memory();
        assert_eq!(p.promote_inv, 2);
        assert_eq!(p.block_elems, 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_block_rejected() {
        SkipParams::history_independent(1, 0.5);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_rejected() {
        SkipParams::history_independent(64, 1.5);
    }

    #[test]
    fn level_distribution_is_geometric() {
        let params = SkipParams::folklore_b(16);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 80_000usize;
        let mut promoted = 0usize;
        for _ in 0..trials {
            if params.draw_level(&mut rng) >= 1 {
                promoted += 1;
            }
        }
        let rate = promoted as f64 / trials as f64;
        assert!(
            (rate - 1.0 / 16.0).abs() < 0.01,
            "promotion rate {rate} should be ~1/16"
        );
    }

    #[test]
    fn scan_cost_rounds_up() {
        let p = SkipParams::history_independent(16, 0.5);
        assert_eq!(p.scan_cost(0), 0);
        assert_eq!(p.scan_cost(1), 1);
        assert_eq!(p.scan_cost(16), 1);
        assert_eq!(p.scan_cost(17), 2);
    }

    #[test]
    fn leaf_pad_stays_legal() {
        let mut rng = StdRng::seed_from_u64(1);
        let floor = 8usize;
        let mut pad = LeafPad::draw(3, floor, &mut rng);
        assert!(pad.is_legal(3, floor));
        let mut n = 3usize;
        for step in 0..2000 {
            if step % 3 == 0 && n > 0 {
                n -= 1;
            } else {
                n += 1;
            }
            pad.update(n, floor, &mut rng);
            assert!(pad.is_legal(n, floor), "step {step}: n={n} pad={:?}", pad);
            assert!(pad.padded() >= floor);
        }
    }

    #[test]
    fn leaf_pad_rebuild_probability_is_low_when_stable() {
        let mut rng = StdRng::seed_from_u64(2);
        let floor = 64usize;
        let mut pad = LeafPad::draw(10, floor, &mut rng);
        let mut rebuilds = 0;
        for _ in 0..10_000 {
            if pad.update(10, floor, &mut rng) {
                rebuilds += 1;
            }
        }
        // Expected ~10_000 / padded ≈ 10_000/96 ≈ 104.
        assert!(rebuilds < 400, "too many rebuilds: {rebuilds}");
    }
}
