//! Even spreading of elements across a window of slots.
//!
//! Both PMAs place the elements of a leaf (or of a rebalance window) at
//! deterministic, evenly spaced slot positions. Determinism matters for
//! history independence: the layout of a leaf holding `n` elements in `L`
//! slots must be a function of `(n, L)` only (paper §3.1, base case of the
//! recursion), never of which element arrived when.
//!
//! The placement arithmetic lives here; the storage it drives (dense values,
//! their layout tabulated by count) lives in [`crate::store`].

/// Slot index of the `j`-th of `n` elements spread evenly over `slots` slots
/// (`0 ≤ j < n ≤ slots`).
///
/// Uses the canonical `⌊j · slots / n⌋` spreading, which places the first
/// element at slot 0 and leaves gaps as evenly as possible. Consecutive
/// elements are at most `⌈slots / n⌉` slots apart, so a constant-factor-full
/// leaf has `O(1)` gaps between consecutive elements (Lemma 8).
///
/// The product is computed in `u64` — one native multiply and divide — and
/// falls back to `u128` only when `j · slots` would overflow (arrays beyond
/// ~2³² slots), keeping the division off the critical path's slow lane.
#[inline]
pub fn spread_position(j: usize, n: usize, slots: usize) -> usize {
    debug_assert!(n > 0 && j < n && n <= slots);
    match (j as u64).checked_mul(slots as u64) {
        Some(product) => (product / n as u64) as usize,
        None => ((j as u128 * slots as u128) / n as u128) as usize,
    }
}

/// Calls `f` with the slot position of each of `n` elements spread evenly
/// over `slots` slots, in increasing element order — exactly
/// `spread_position(0..n)`, but generated incrementally (one division per
/// *window* instead of one per element): `⌊j·S/n⌋` advances by `⌊S/n⌋` per
/// step plus a Bresenham-style carry of the remainder.
#[inline]
pub fn for_each_spread_position(n: usize, slots: usize, mut f: impl FnMut(usize)) {
    if n == 0 {
        return;
    }
    debug_assert!(n <= slots);
    let step = slots / n;
    let rem = slots % n;
    let mut pos = 0usize;
    let mut err = 0usize;
    for _ in 0..n {
        f(pos);
        pos += step;
        err += rem;
        if err >= n {
            pos += 1;
            err -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_are_monotone_and_in_bounds() {
        for n in 1..=30usize {
            for slots in n..=60usize {
                let mut prev = None;
                for j in 0..n {
                    let p = spread_position(j, n, slots);
                    assert!(p < slots);
                    if let Some(q) = prev {
                        assert!(p > q, "positions must be strictly increasing");
                    }
                    prev = Some(p);
                }
            }
        }
    }

    #[test]
    fn full_window_is_dense() {
        for n in 1..=20usize {
            let positions: Vec<usize> = (0..n).map(|j| spread_position(j, n, n)).collect();
            assert_eq!(positions, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fast_path_agrees_with_u128_reference() {
        // Property test pinning the u64 fast path to the old all-u128
        // arithmetic, including near the overflow boundary.
        let reference =
            |j: usize, n: usize, slots: usize| ((j as u128 * slots as u128) / n as u128) as usize;
        let huge = 1usize << 40;
        for (j, n, slots) in [
            (0, 1, 1),
            (3, 7, 100),
            (12_345, 54_321, 100_000),
            (huge - 2, huge - 1, huge),
            (huge / 2, huge / 2 + 1, huge),
        ] {
            assert_eq!(
                spread_position(j, n, slots),
                reference(j, n, slots),
                "j={j} n={n} slots={slots}"
            );
        }
    }

    #[test]
    fn incremental_positions_match_the_closed_form() {
        // Property test pinning the Bresenham generator to `⌊j·S/n⌋`.
        for n in 1..=64usize {
            for slots in n..=130usize {
                let mut got = Vec::with_capacity(n);
                for_each_spread_position(n, slots, |p| got.push(p));
                let expected: Vec<usize> = (0..n).map(|j| spread_position(j, n, slots)).collect();
                assert_eq!(got, expected, "n={n} slots={slots}");
            }
        }
        for_each_spread_position(0, 10, |_| panic!("no positions for n = 0"));
    }

    #[test]
    fn gaps_are_bounded_for_half_full_windows() {
        // A window at least half full has interior gaps of at most 2 slots.
        for n in 4..=40usize {
            let slots = 2 * n;
            let positions: Vec<usize> = (0..n).map(|j| spread_position(j, n, slots)).collect();
            for pair in positions.windows(2) {
                assert!(pair[1] - pair[0] - 1 <= 2, "n = {n}");
            }
        }
    }
}
