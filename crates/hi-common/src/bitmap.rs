//! A `u64`-word occupancy bitmap.
//!
//! The PMAs' memory representation — the thing the history-independence
//! definitions quantify over — is *which slots are occupied*. This module
//! stores that representation directly as packed `u64` words, so that
//! occupancy counts are popcounts, scans are word scans, and the whole
//! map costs one bit per slot instead of the discriminant-plus-padding of a
//! `Vec<Option<T>>` slot array (16 bytes per slot for `u64` records).
//!
//! All range arguments are half-open slot intervals `[start, end)`.

/// A fixed-length bitmap over array slots, packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an all-zeros bitmap over `len` slots.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of slots covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the bitmap covers zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words backing the map (the last word's high bits beyond
    /// `len` are always zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Tests slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets slot `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears slot `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Mask covering the bits of word `w` that fall inside `[start, end)`.
    #[inline]
    fn word_mask(w: usize, start: usize, end: usize) -> u64 {
        let lo = start.max(w * 64);
        let hi = end.min(w * 64 + 64);
        if lo >= hi {
            return 0;
        }
        let lo_bit = lo - w * 64;
        let span = hi - lo;
        if span == 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << lo_bit
        }
    }

    /// Clears every slot in `[start, end)`, word-wise.
    pub fn clear_range(&mut self, start: usize, end: usize) {
        debug_assert!(start <= end && end <= self.len);
        if start >= end {
            return;
        }
        for w in start / 64..=(end - 1) / 64 {
            self.words[w] &= !Self::word_mask(w, start, end);
        }
    }

    /// Number of set slots in `[start, end)` via popcount.
    pub fn count_range(&self, start: usize, end: usize) -> usize {
        debug_assert!(start <= end && end <= self.len);
        if start >= end {
            return 0;
        }
        (start / 64..=(end - 1) / 64)
            .map(|w| (self.words[w] & Self::word_mask(w, start, end)).count_ones() as usize)
            .sum()
    }

    /// Total number of set slots.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Naive reference model: the old `Vec<Option<()>>`-style slot probing,
    /// against which the word-wise operations are pinned.
    struct Reference(Vec<bool>);

    impl Reference {
        fn count_range(&self, start: usize, end: usize) -> usize {
            self.0[start..end].iter().filter(|&&b| b).count()
        }
    }

    fn random_pair(len: usize, density: f64, seed: u64) -> (Bitmap, Reference) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bm = Bitmap::new(len);
        let mut bools = vec![false; len];
        for (i, b) in bools.iter_mut().enumerate() {
            if rng.gen_bool(density) {
                bm.set(i);
                *b = true;
            }
        }
        (bm, Reference(bools))
    }

    #[test]
    fn set_clear_get_roundtrip() {
        let mut bm = Bitmap::new(130);
        assert_eq!(bm.len(), 130);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(128));
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn count_range_matches_reference_on_random_patterns() {
        for (seed, density) in [(1u64, 0.1), (2, 0.5), (3, 0.9), (4, 0.0), (5, 1.0)] {
            let len = 317;
            let (bm, reference) = random_pair(len, density, seed);
            for start in (0..len).step_by(13) {
                for end in (start..=len).step_by(17) {
                    assert_eq!(
                        bm.count_range(start, end),
                        reference.count_range(start, end),
                        "seed {seed} range [{start}, {end})"
                    );
                }
            }
            assert_eq!(bm.count_ones(), reference.count_range(0, len));
        }
    }

    #[test]
    fn clear_range_is_word_exact() {
        let mut bm = Bitmap::new(300);
        for i in 0..300 {
            bm.set(i);
        }
        bm.clear_range(10, 200);
        assert_eq!(bm.count_ones(), 300 - 190);
        assert!(bm.get(9) && !bm.get(10) && !bm.get(199) && bm.get(200));
        bm.clear_range(0, 0);
        assert_eq!(bm.count_ones(), 110);
        bm.clear_range(0, 300);
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
    }
}
