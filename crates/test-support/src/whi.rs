//! The two oracles of the HI-PMA's weak history independence (paper §3.3).
//!
//! Lemma 9 reduces WHI to two facts, and each has its own check here:
//!
//! * **The layout is a fixed function R(N, N̂, balance elements).**
//!   [`lemma9_occupancy`] is that function, written from the paper's
//!   formulas with the deviations DESIGN.md lists ("Deliberate deviations":
//!   the single-leaf fallback below `N̂ = 128`, the adaptive `c₁`/`C_L` below
//!   4096, the range tree stopped three levels early). It takes plain numbers
//!   and shares no code with the PMA, so `occupancy_words() == R(…)` checks
//!   the engine against the paper, not against itself.
//! * **The inputs of R are uniform.** Each balance is uniform over its
//!   candidate set (Invariant 6) and `N̂` over `{n, …, 2n−1}` (§2.1).
//!   `hi_common::stats::uniformity::Pooled` pools every balance of every
//!   range, depth, trial and history into one χ² test under a randomized
//!   probability-integral transform.

/// `(height, leaf slots, |M_d| per depth)` for capacity `n_hat ≥ 1`.
fn layout(n_hat: usize) -> (u32, usize, Vec<usize>) {
    // Footnote 5: a small structure is one evenly spread array of 2N̂ slots.
    if n_hat < 128 {
        return (0, (2 * n_hat).max(4), Vec::new());
    }
    let lg = (n_hat as f64).log2();
    // c₁ = 1/2, C_L = 2 from N̂ = 4096; below it, the largest constants
    // Lemmas 7 and 8 allow, with a little slack.
    let (c1, c_l) = if n_hat >= 4096 {
        (0.5, 2.0)
    } else {
        let c1 = 0.9 * (1.0 - 6.0 / lg);
        (c1, 1.0 + c1 + 6.0 / lg + 0.05)
    };
    // The paper's tree has height ⌈log N̂ − log log N̂⌉ over leaves of
    // ⌈C_L log N̂⌉ slots; this one stops three levels (LEAF_SCALE_LOG2)
    // higher, over leaves that span the levels it dropped.
    let paper_height = (lg - lg.log2()).ceil().max(1.0) as u32;
    let height = paper_height.saturating_sub(3).max(1);
    let leaf = ((c_l * lg).ceil() as usize) << (paper_height - height);
    let total = leaf << height;
    // |M_d| = ⌈c₁ N̂ / (2^d log N̂)⌉, at least one and at most the range.
    let sizes = (0..height)
        .map(|d| {
            let m = (c1 * n_hat as f64 / ((1u64 << d) as f64 * lg)).ceil() as usize;
            m.clamp(1, total >> d)
        })
        .collect();
    (height, leaf, sizes)
}

/// Lemma 9's representation function: the slot count and occupancy words of
/// an HI-PMA holding `n` elements under capacity `n_hat`, whose non-leaf
/// range at BFS index `range` has its balance at `offset` of a candidate
/// window of `window` elements, for every `(range, window, offset)` in
/// `balances`.
///
/// Counts split top-down: a range of `ℓ` elements and candidate set
/// `m = min(|M_d|, ℓ)` sends the first `⌈ℓ/2⌉ − ⌈m/2⌉ + offset` of them
/// left (the paper's window starts at the `1 + ⌈ℓ/2⌉ − ⌈m/2⌉`-th element).
/// A leaf of `L` slots holding `c` elements puts the `j`-th at `⌊j·L/c⌋`.
/// Words hold 64 slots each, low bit first.
///
/// # Panics
///
/// If a non-empty non-leaf range has no record, an empty or leaf range has
/// one, a range has two, or a record's window or offset disagrees with the
/// window R computes for that range.
pub fn lemma9_occupancy(
    n: usize,
    n_hat: usize,
    balances: impl IntoIterator<Item = (usize, usize, usize)>,
) -> (usize, Vec<u64>) {
    let (height, leaf, sizes) = layout(n_hat.max(1));
    let internal = (1usize << height) - 1;
    let mut records = vec![None; internal];
    for (range, window, offset) in balances {
        assert!(
            range < internal,
            "record for range {range}: not a non-leaf range"
        );
        let previous = records[range].replace((window, offset));
        assert!(previous.is_none(), "two records for range {range}");
    }
    let mut counts = vec![0usize; 2 * internal + 1];
    counts[0] = n;
    for (range, &record) in records.iter().enumerate() {
        let len = counts[range];
        let depth = (range + 1).ilog2();
        let left = match record {
            None if len == 0 => 0,
            None => panic!("range {range} (depth {depth}, {len} elements) has no balance record"),
            Some(_) if len == 0 => {
                panic!("range {range} (depth {depth}) is empty but has a record")
            }
            Some((window, offset)) => {
                let m = sizes[depth as usize].min(len);
                assert_eq!(
                    window, m,
                    "range {range} (depth {depth}, {len} elements): record window vs |M_d|"
                );
                assert!(
                    offset < m,
                    "range {range}: offset {offset} outside its window of {m}"
                );
                len.div_ceil(2) - m.div_ceil(2) + offset
            }
        };
        counts[2 * range + 1] = left;
        counts[2 * range + 2] = len - left;
    }
    let total = leaf << height;
    let mut words = vec![0u64; total.div_ceil(64)];
    for (i, &c) in counts[internal..].iter().enumerate() {
        assert!(c <= leaf, "leaf {i} holds {c} elements in {leaf} slots");
        for j in 0..c {
            let slot = i * leaf + j * leaf / c;
            words[slot / 64] |= 1 << (slot % 64);
        }
    }
    (total, words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_capacity_spreads_one_leaf() {
        // N̂ = 100: one leaf of 200 slots, 4 elements at ⌊j·200/4⌋.
        let (slots, words) = lemma9_occupancy(4, 100, []);
        assert_eq!(slots, 200);
        let set: Vec<usize> = (0..slots)
            .filter(|&s| words[s / 64] >> (s % 64) & 1 == 1)
            .collect();
        assert_eq!(set, [0, 50, 100, 150]);
        assert_eq!(lemma9_occupancy(0, 0, []), (4, vec![0]));
    }

    #[test]
    #[should_panic(expected = "has no balance record")]
    fn a_missing_record_is_named() {
        lemma9_occupancy(5_000, 8_000, []);
    }
}
