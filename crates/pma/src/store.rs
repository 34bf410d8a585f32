//! Flat slot storage: dense per-group values; the slot layout is computed
//! from the group counts, not stored.
//!
//! Both PMAs view their backing array as a sequence of fixed-width *groups*
//! of slots (the HI PMA's leaf ranges, the classic PMA's segments). The old
//! engine stored the array as `Vec<Option<T>>` — 16 bytes per slot for `u64`
//! records, a discriminant probe per slot scan, and a clone per element per
//! rebalance. [`SlotStore`] keeps the values only:
//!
//! * **values** live dense, in rank order, in one `Vec<T>` per group whose
//!   capacity is fixed at the group's slot count (Lemma 7 guarantees a group
//!   never overflows), so gathers and spreads are `memmove`s of contiguous
//!   values and steady-state leaf updates are a single `Vec::insert`;
//! * the **virtual slot layout** — which slot of the group each element
//!   occupies, i.e. the memory representation that weak history independence
//!   is defined over — is the even spread of the group's count over its slots
//!   (`⌊j·slots/n⌋`), a function of that count alone. It is not kept up to
//!   date on every update: [`SlotStore::occupancy_into`] computes it, one
//!   tabulated pattern row per group, when something observes it. (The classic
//!   PMA's window rebalances spread over a whole window rather than per group,
//!   so it keeps a bitmap of its own.)
//!
//! Rebalances *move* elements instead of cloning them. The HI PMA rebuilds a
//! range in place: [`SlotStore::redistribute`] moves only the elements whose
//! group changes, across the group boundaries that moved, each straight to
//! its new group. A window that is rebuilt from nothing (the classic PMA's
//! rebalances, either PMA's resize) drains into one buffer with an `append`
//! per group and is filled back from it.

use io_sim::{Region, Tracer};

use crate::spread::for_each_spread_position;

/// Bytes per cache line, the unit [`partition_point_by_lines`] strides by.
const LINE_BYTES: usize = 64;

/// `run.partition_point(is_less)` for a run sorted under `is_less`, searched
/// the way a dense leaf spanning many cache lines is cheapest to search.
/// First one element per 64-byte line is compared, at stride
/// `max(1, 64 / size_of::<T>())`, every one of them whatever the others
/// said: the loads are independent, so their misses overlap. Then the one
/// line-block that holds the bound is binary-searched. A binary search of
/// the whole run waits on each line it touches in turn.
pub fn partition_point_by_lines<T>(run: &[T], is_less: impl Fn(&T) -> bool) -> usize {
    let stride = (LINE_BYTES / std::mem::size_of::<T>().max(1)).max(1);
    let heads: usize = run
        .iter()
        .step_by(stride)
        .map(|e| usize::from(is_less(e)))
        .sum();
    if heads == 0 {
        return 0;
    }
    // The bound lies after head `heads − 1` and at or before head `heads`.
    let lo = (heads - 1) * stride + 1;
    let hi = (heads * stride).min(run.len());
    lo + run[lo..hi].partition_point(is_less)
}

/// Dense per-group value storage, with each group's slot layout tabulated by
/// element count.
#[derive(Debug, Clone)]
pub struct SlotStore<T> {
    groups: Vec<Vec<T>>,
    group_slots: usize,
    /// Words per group-sized bit pattern (`⌈group_slots / 64⌉`).
    pattern_stride: usize,
    /// `patterns[n·stride .. (n+1)·stride]` is the even spread of `n`
    /// elements over one group's slots, as packed bits: a group's occupancy
    /// is a pure function of its element count, so the layout is a table
    /// row per group.
    patterns: Vec<u64>,
}

impl<T> SlotStore<T> {
    /// Creates an empty store of `group_count` groups of `group_slots` slots
    /// each. Every group's capacity is reserved up front so steady-state
    /// updates never reallocate.
    pub fn new(group_count: usize, group_slots: usize) -> Self {
        assert!(group_count > 0 && group_slots > 0);
        let pattern_stride = group_slots.div_ceil(64);
        let mut patterns = vec![0u64; (group_slots + 1) * pattern_stride];
        for n in 0..=group_slots {
            let row = &mut patterns[n * pattern_stride..(n + 1) * pattern_stride];
            for_each_spread_position(n, group_slots, |p| row[p / 64] |= 1 << (p % 64));
        }
        Self {
            groups: (0..group_count)
                .map(|_| Vec::with_capacity(group_slots))
                .collect(),
            group_slots,
            pattern_stride,
            patterns,
        }
    }

    /// Total number of slots.
    pub fn total_slots(&self) -> usize {
        self.groups.len() * self.group_slots
    }

    /// Slots per group.
    pub fn group_slots(&self) -> usize {
        self.group_slots
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The dense elements of group `g`, in rank order.
    pub fn group(&self, g: usize) -> &[T] {
        &self.groups[g]
    }

    /// Number of elements in group `g`.
    pub fn group_len(&self, g: usize) -> usize {
        self.groups[g].len()
    }

    /// Total number of stored elements.
    pub fn element_count(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Borrows the element at dense index `idx` of group `g`.
    pub fn get(&self, g: usize, idx: usize) -> Option<&T> {
        self.groups.get(g)?.get(idx)
    }

    /// Writes the slot occupancy of the array — every group's elements
    /// evenly spread over its slots, 64 slots per word, low bit first — into
    /// `words`, replacing its contents. One pattern row per group; allocates
    /// only when `words` has less capacity than `⌈total_slots / 64⌉` words.
    pub fn occupancy_into(&self, words: &mut Vec<u64>) {
        words.clear();
        words.resize(self.total_slots().div_ceil(64), 0);
        let stride = self.pattern_stride;
        for (g, group) in self.groups.iter().enumerate() {
            let start = g * self.group_slots;
            let shift = start % 64;
            let row = &self.patterns[group.len() * stride..(group.len() + 1) * stride];
            for (w, &bits) in (start / 64..).zip(row) {
                // A row word straddles two array words unless the group
                // starts word-aligned. Its bits past the group's last slot
                // are zero, so the spill never reaches past the array.
                words[w] |= bits << shift;
                if shift > 0 && bits >> (64 - shift) != 0 {
                    words[w + 1] |= bits >> (64 - shift);
                }
            }
        }
    }

    /// Inserts `item` at dense rank `rel` of group `g`. Zero allocations (the
    /// group's capacity is fixed) and zero clones.
    pub fn insert_in_group(&mut self, g: usize, rel: usize, item: T) {
        debug_assert!(self.groups[g].len() < self.group_slots, "group overflow");
        self.groups[g].insert(rel, item);
    }

    /// Removes and returns the element at dense rank `rel` of group `g`.
    pub fn remove_in_group(&mut self, g: usize, rel: usize) -> T {
        self.groups[g].remove(rel)
    }

    /// The first element of groups `[g0, g0 + window_groups)`, if any.
    pub fn first_in(&self, g0: usize, window_groups: usize) -> Option<&T> {
        self.groups[g0..g0 + window_groups]
            .iter()
            .find_map(|group| group.first())
    }

    /// Moves elements across the boundaries between groups `[g0, g0 +
    /// window_groups)` until group `g` holds `new_len(g)` elements, in
    /// unchanged rank order. The new counts must sum to the window's element
    /// count and each fit its group. An element moves only if its group
    /// changes, and then straight to its new group, however many boundaries
    /// it crosses; a group that gains or loses elements at its front shifts
    /// the ones it keeps. No allocation (no group outgrows its fixed
    /// capacity) and no clone.
    ///
    /// Two sweeps. Left to right, wherever the prefix sum of the new counts
    /// runs ahead of the groups' current one — a boundary that moved right —
    /// the group before the boundary pulls the difference from the fronts of
    /// the groups after it. Right to left, the mirror image pulls elements
    /// rightward across the boundaries that moved left. After the first
    /// sweep every prefix holds at least its new count, so the second only
    /// takes elements the groups to its left can spare, and no group ever
    /// holds more than the larger of its old and new counts.
    pub fn redistribute(
        &mut self,
        g0: usize,
        window_groups: usize,
        new_len: impl Fn(usize) -> usize,
    ) {
        let groups = &mut self.groups[g0..g0 + window_groups];
        let (mut have, mut want) = (0, 0);
        for i in 0..groups.len() {
            have += groups[i].len();
            want += new_len(g0 + i);
            if want > have {
                let (head, tail) = groups.split_at_mut(i + 1);
                let mut short = want - have;
                for src in tail {
                    let take = short.min(src.len());
                    head[i].extend(src.drain(..take));
                    short -= take;
                    if short == 0 {
                        break;
                    }
                }
                debug_assert_eq!(short, 0, "new counts exceed the window's elements");
                have = want;
            }
        }
        debug_assert_eq!(have, want, "new counts must sum to the window's elements");
        let (mut have, mut want) = (0, 0);
        for i in (0..groups.len()).rev() {
            have += groups[i].len();
            want += new_len(g0 + i);
            if want > have {
                let (head, tail) = groups.split_at_mut(i);
                let mut short = want - have;
                for src in head.iter_mut().rev() {
                    let take = short.min(src.len());
                    let from = src.len() - take;
                    drop(tail[0].splice(..0, src.drain(from..)));
                    short -= take;
                    if short == 0 {
                        break;
                    }
                }
                debug_assert_eq!(short, 0, "new counts exceed the window's elements");
                have = want;
            }
        }
        debug_assert!(
            (0..groups.len()).all(|i| groups[i].len() == new_len(g0 + i)),
            "a group missed its new count"
        );
    }

    /// Moves every element of groups `[g0, g0 + window_groups)` into `out`
    /// (in rank order), leaving the groups empty.
    pub fn drain_window_into(&mut self, g0: usize, window_groups: usize, out: &mut Vec<T>) {
        let mut total = 0usize;
        for g in g0..g0 + window_groups {
            total += self.groups[g].len();
        }
        out.reserve(total + 1); // +1: callers usually insert one more element
        for g in g0..g0 + window_groups {
            out.append(&mut self.groups[g]);
        }
    }

    /// Fills groups `[g0, g0 + window_groups)` — which must be empty — with
    /// `count` elements taken from `iter`, evenly spread over the window's
    /// slots: each element lands in the group owning its spread position.
    pub fn fill_window<I: Iterator<Item = T>>(
        &mut self,
        g0: usize,
        window_groups: usize,
        iter: &mut I,
        count: usize,
    ) {
        let slots = window_groups * self.group_slots;
        // Hard assert (as the old `spread_into` had): an overfull window in
        // release would silently repeat positions and overflow group
        // capacities instead of failing loudly.
        assert!(
            count <= slots,
            "cannot pack {count} elements into {slots} slots"
        );
        if window_groups == 1 {
            // Single-group fill (the classic PMA's level-0 rebalances): move
            // the elements in one tight loop.
            let group = &mut self.groups[g0];
            debug_assert!(group.is_empty());
            group.extend(iter.take(count));
            debug_assert_eq!(group.len(), count, "iterator shorter than promised count");
            return;
        }
        let groups = &mut self.groups;
        let group_slots = self.group_slots;
        for_each_spread_position(count, slots, |p| {
            let g = g0 + p / group_slots;
            debug_assert!(groups[g].len() < group_slots);
            #[expect(
                clippy::expect_used,
                reason = "for_each_spread_position yields exactly count positions, the iterator's promised length"
            )]
            let item = iter.next().expect("iterator shorter than promised count");
            groups[g].push(item);
        });
    }

    /// Fills group `g` — which must be empty — with the last `count`
    /// elements of `buf`, in order, as one contiguous move: the same group
    /// contents as `fill_window(g, 1, …, count)`. The HI PMA's resize, which
    /// refills its leaves right to left, hands each leaf the tail of the
    /// gather buffer this way.
    pub fn fill_group_from_tail(&mut self, g: usize, buf: &mut Vec<T>, count: usize) {
        // Hard asserts, as in `fill_window`: an overfull group in release
        // would outgrow its fixed capacity instead of failing loudly.
        assert!(
            count <= self.group_slots,
            "cannot pack {count} elements into {} slots",
            self.group_slots
        );
        assert!(
            count <= buf.len(),
            "buffer holds {} elements, fewer than the promised {count}",
            buf.len()
        );
        let group = &mut self.groups[g];
        debug_assert!(group.is_empty(), "group must be drained first");
        group.extend(buf.drain(buf.len() - count..));
    }

    /// Lazily yields the groups from `g` onward as dense slices, in rank
    /// order, empty groups included. Each group is charged to `tracer` as
    /// one sequential read of its slot span when it is yielded.
    pub fn groups_from(&self, g: usize, tracer: Tracer, region: Region) -> Groups<'_, T> {
        Groups {
            store: self,
            next: g,
            tracer,
            region,
        }
    }

    /// Lazily yields the elements from dense position `(g, idx)` onward, in
    /// rank order: [`Self::groups_from`] flattened, so each group is charged
    /// to `tracer` as one sequential read when the iterator enters it
    /// (per-window batching — the old engine charged per slot).
    pub fn iter_from(
        &self,
        g: usize,
        idx: usize,
        tracer: Tracer,
        region: Region,
    ) -> ScanIter<'_, T> {
        ScanIter {
            groups: self.groups_from(g, tracer, region),
            skip: idx,
            run: [].iter(),
        }
    }
}

/// The groups of a [`SlotStore`] as dense `&[T]` runs, charging each to the
/// tracer as one read as it is yielded.
pub struct Groups<'a, T> {
    store: &'a SlotStore<T>,
    next: usize,
    tracer: Tracer,
    region: Region,
}

impl<'a, T> Iterator for Groups<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        let g = self.next;
        let group = self.store.groups.get(g)?;
        self.next += 1;
        if self.tracer.is_enabled() {
            let slots = self.store.group_slots as u64;
            self.tracer
                .read(self.region.addr(g as u64 * slots), self.region.span(slots));
        }
        Some(group)
    }
}

/// Sequential scan over a [`SlotStore`] from a dense position, charging each
/// visited group to the tracer as one read.
pub struct ScanIter<'a, T> {
    groups: Groups<'a, T>,
    /// Dense index to start at within the first group entered.
    skip: usize,
    run: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for ScanIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.run.next() {
                return Some(item);
            }
            let group = self.groups.next()?;
            self.run = group
                .get(std::mem::take(&mut self.skip)..)
                .unwrap_or(&[])
                .iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::spread_position;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn store_with(groups: &[&[u64]], group_slots: usize) -> SlotStore<u64> {
        let mut s: SlotStore<u64> = SlotStore::new(groups.len(), group_slots);
        for (g, elems) in groups.iter().enumerate() {
            let mut iter = elems.iter().copied();
            s.fill_window(g, 1, &mut iter, elems.len());
        }
        s
    }

    /// The occupied slots, as `occupancy_into` computes them.
    fn occupied<T>(s: &SlotStore<T>) -> Vec<usize> {
        let mut words = vec![u64::MAX; 3]; // stale contents are replaced
        s.occupancy_into(&mut words);
        assert_eq!(words.len(), s.total_slots().div_ceil(64));
        (0..64 * words.len())
            .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn fill_and_bits_match_even_spread() {
        let s = store_with(&[&[10, 20], &[30, 40, 50]], 6);
        assert_eq!(s.total_slots(), 12);
        assert_eq!(s.element_count(), 5);
        // Group 0: 2 elements over 6 slots -> slots 0 and 3.
        // Group 1: 3 elements over 6 slots -> slots 6, 8, 10.
        assert_eq!(occupied(&s), vec![0, 3, 6, 8, 10]);
        assert_eq!(s.group(0), &[10, 20]);
        assert_eq!(s.group(1), &[30, 40, 50]);
        // Groups of 70 slots start at every offset within a word and
        // straddle words: group `g` holding `n` occupies `70·g + ⌊70·j/n⌋`.
        let counts = [3usize, 70, 0, 41, 1, 64, 69];
        let mut s: SlotStore<()> = SlotStore::new(counts.len(), 70);
        let mut want = Vec::new();
        for (g, &n) in counts.iter().enumerate() {
            s.fill_window(g, 1, &mut std::iter::repeat_n((), n), n);
            want.extend((0..n).map(|j| 70 * g + spread_position(j, n, 70)));
        }
        assert_eq!(occupied(&s), want);
    }

    /// Row `n` of the pattern table, for every leaf size the HI-PMA geometry
    /// produces up to `N̂ = 2²²`, is the even spread of `n` elements over the
    /// leaf's `L` slots: popcount `n`, the slots `⌊j·L/n⌋` and no others, and
    /// no interior gap wider than `L/n + 1`. The computed layout of a leaf is
    /// its row, so this is the per-leaf layout check.
    #[test]
    fn pattern_rows_are_the_even_spread_for_every_leaf_size() {
        use crate::geometry::Geometry;
        let mut sizes = std::collections::BTreeSet::new();
        let mut n_hat = 1usize;
        while n_hat < 1 << 22 {
            sizes.insert(Geometry::for_n_hat(n_hat).leaf_slots);
            // Every N̂ below 2¹³, where the constants adapt; above it a leaf
            // is `8·⌈2 log N̂⌉` slots, one size per factor of √2 in N̂, so a
            // stride of N̂/64 lands on each.
            n_hat += if n_hat < 1 << 13 { 1 } else { n_hat / 64 };
        }
        sizes.insert(Geometry::for_n_hat(1 << 22).leaf_slots);
        assert!(sizes.contains(&4) && sizes.contains(&352), "{sizes:?}");
        for &l in &sizes {
            let s: SlotStore<()> = SlotStore::new(1, l);
            for n in 0..=l {
                let row = &s.patterns[n * s.pattern_stride..(n + 1) * s.pattern_stride];
                let popcount: u32 = row.iter().map(|w| w.count_ones()).sum();
                assert_eq!(popcount as usize, n, "L {l}, n {n}");
                let slots: Vec<usize> = (0..64 * row.len())
                    .filter(|&i| row[i / 64] >> (i % 64) & 1 == 1)
                    .collect();
                let spread: Vec<usize> = (0..n).map(|j| spread_position(j, n, l)).collect();
                assert_eq!(slots, spread, "L {l}, n {n}");
                let gap = slots.windows(2).map(|p| p[1] - p[0] - 1).max();
                assert!(
                    gap.is_none_or(|gap| gap <= l / n + 1),
                    "L {l}, n {n}: gap {gap:?}"
                );
            }
        }
    }

    #[test]
    fn insert_and_remove_move_the_computed_layout() {
        let mut s = store_with(&[&[10, 30]], 8);
        s.insert_in_group(0, 1, 20);
        assert_eq!(s.group(0), &[10, 20, 30]);
        // 3 elements over 8 slots -> 0, 2, 5.
        assert_eq!(occupied(&s), vec![0, 2, 5]);
        assert_eq!(s.remove_in_group(0, 0), 10);
        assert_eq!(s.group(0), &[20, 30]);
        assert_eq!(occupied(&s), vec![0, 4]);
    }

    #[test]
    fn drain_then_refill_moves_everything() {
        let mut s = store_with(&[&[1, 2], &[3], &[4, 5, 6]], 4);
        let mut out = Vec::new();
        s.drain_window_into(0, 3, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(s.element_count(), 0);
        assert_eq!(occupied(&s), Vec::<usize>::new());
        // Refill as one 3-group window: 6 elements over 12 slots.
        let mut iter = out.into_iter();
        s.fill_window(0, 3, &mut iter, 6);
        assert_eq!(s.element_count(), 6);
        let gathered: Vec<u64> = s
            .iter_from(0, 0, Tracer::disabled(), Region::new(0, 8, 12))
            .copied()
            .collect();
        assert_eq!(gathered, vec![1, 2, 3, 4, 5, 6]);
        // Window spread: positions 0, 2, 4, 6, 8, 10 -> groups get 2 each.
        assert_eq!(s.group_len(0), 2);
        assert_eq!(s.group_len(1), 2);
        assert_eq!(s.group_len(2), 2);
    }

    #[test]
    #[should_panic(expected = "cannot pack")]
    fn overfull_window_panics() {
        let mut s: SlotStore<u64> = SlotStore::new(2, 4);
        let mut iter = 0..9u64;
        s.fill_window(0, 2, &mut iter, 9);
    }

    #[test]
    fn tail_fill_is_bit_identical_to_a_single_group_window_fill() {
        // 70 slots: a group that straddles words, sitting between two
        // neighbours whose bits must not move.
        const L: usize = 70;
        for count in 0..=L {
            let mut by_window: SlotStore<u64> = SlotStore::new(3, L);
            let mut by_tail: SlotStore<u64> = SlotStore::new(3, L);
            for s in [&mut by_window, &mut by_tail] {
                s.fill_window(0, 1, &mut (500..503u64), 3);
                s.fill_window(2, 1, &mut (900..905u64), 5);
            }
            by_window.fill_window(1, 1, &mut (0..count as u64), count);
            // The buffer holds a longer gather; the group takes its tail.
            let mut buf: Vec<u64> = (700..707).chain(0..count as u64).collect();
            by_tail.fill_group_from_tail(1, &mut buf, count);
            assert_eq!(buf, (700..707).collect::<Vec<u64>>(), "count {count}");
            assert_eq!(occupied(&by_tail), occupied(&by_window), "count {count}");
            for g in 0..3 {
                assert_eq!(by_tail.group(g), by_window.group(g), "count {count}");
            }
        }
    }

    // Hard asserts: `cargo test --release -p pma` (ci.sh) runs these two
    // with debug assertions compiled out.
    #[test]
    #[should_panic(expected = "cannot pack 5 elements into 4 slots")]
    fn overfull_tail_fill_panics() {
        let mut s: SlotStore<u64> = SlotStore::new(2, 4);
        s.fill_group_from_tail(0, &mut (0..9).collect(), 5);
    }

    #[test]
    #[should_panic(expected = "fewer than the promised 3")]
    fn tail_fill_from_a_short_buffer_panics() {
        let mut s: SlotStore<u64> = SlotStore::new(2, 4);
        s.fill_group_from_tail(0, &mut vec![1, 2], 3);
    }

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// An element whose clones are counted, per test thread.
    #[derive(Debug, PartialEq)]
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    /// `total` elements dealt over `groups` groups of `slots` slots, in one
    /// of four shapes: packed to the left, packed to the right, at random,
    /// or at random over a random half of the groups (more if the half
    /// cannot hold `total`), the rest left empty.
    fn dealt(
        rng: &mut StdRng,
        shape: usize,
        groups: usize,
        slots: usize,
        total: usize,
    ) -> Vec<usize> {
        let mut counts = vec![0; groups];
        let mut left = total;
        match shape {
            0 | 1 => {
                for g in 0..groups {
                    let g = if shape == 0 { g } else { groups - 1 - g };
                    counts[g] = left.min(slots);
                    left -= counts[g];
                }
            }
            _ => {
                let mut open: Vec<usize> = (0..groups)
                    .filter(|_| shape == 2 || rng.gen_bool(0.5))
                    .collect();
                while open.len() * slots < total {
                    let g = rng.gen_range(0..groups);
                    if !open.contains(&g) {
                        open.push(g);
                    }
                }
                while left > 0 {
                    let g = open[rng.gen_range(0..open.len())];
                    if counts[g] < slots {
                        counts[g] += 1;
                        left -= 1;
                    }
                }
            }
        }
        counts
    }

    /// `redistribute` against a flat `Vec` model: the window's elements in
    /// rank order, cut by the new counts. Old and new counts are dealt
    /// independently, so boundaries move both ways, by more than a whole
    /// group, and between empty groups; a group on either side of the
    /// window must not be touched.
    #[test]
    fn redistribute_matches_a_flat_model() {
        let mut rng = StdRng::seed_from_u64(0x5ED1);
        let (mut long_shifts, mut empty_neighbours) = (0, 0);
        for window in [1usize, 2, 3, 64] {
            for slots in [1usize, 3, 8] {
                for trial in 0..64 {
                    let total = rng.gen_range(0..=window * slots);
                    let old = dealt(&mut rng, trial % 4, window, slots, total);
                    let new = dealt(&mut rng, trial / 4 % 4, window, slots, total);
                    let mut s: SlotStore<Counted> = SlotStore::new(window + 2, slots);
                    let mut model = Vec::new();
                    for (g, &n) in old.iter().enumerate() {
                        let first = model.len() as u64;
                        model.extend(first..first + n as u64);
                        s.fill_window(g + 1, 1, &mut (first..).map(Counted), n);
                    }
                    for g in [0, window + 1] {
                        s.fill_window(g, 1, &mut std::iter::once(Counted(u64::MAX)), 1);
                    }
                    let capacities: Vec<usize> = s.groups.iter().map(Vec::capacity).collect();
                    let clones = CLONES.with(|c| c.get());
                    s.redistribute(1, window, |g| new[g - 1]);
                    let case = format!("window {window}, slots {slots}, {old:?} -> {new:?}");
                    assert_eq!(CLONES.with(|c| c.get()), clones, "{case}: cloned");
                    let mut cut = &model[..];
                    for (g, &n) in new.iter().enumerate() {
                        let (want, rest) = cut.split_at(n);
                        let got: Vec<u64> = s.group(g + 1).iter().map(|e| e.0).collect();
                        assert_eq!(got, want, "{case}: group {g}");
                        cut = rest;
                    }
                    for g in [0, window + 1] {
                        assert_eq!(
                            s.group(g),
                            [Counted(u64::MAX)],
                            "{case}: outside the window"
                        );
                    }
                    let after: Vec<usize> = s.groups.iter().map(Vec::capacity).collect();
                    assert_eq!(after, capacities, "{case}: a group's capacity changed");
                    let (mut old_prefix, mut new_prefix) = (0usize, 0usize);
                    for k in 1..window {
                        old_prefix += old[k - 1];
                        new_prefix += new[k - 1];
                        long_shifts += usize::from(old_prefix.abs_diff(new_prefix) > slots);
                        empty_neighbours +=
                            usize::from(old[k - 1] + old[k] == 0 || new[k - 1] + new[k] == 0);
                    }
                }
            }
        }
        assert!(
            long_shifts > 100,
            "{long_shifts} boundaries moved by more than a group"
        );
        assert!(
            empty_neighbours > 100,
            "{empty_neighbours} boundaries between empty groups"
        );
    }

    #[test]
    fn scan_iter_crosses_empty_groups() {
        let s = store_with(&[&[], &[7], &[], &[8, 9]], 4);
        let all: Vec<u64> = s
            .iter_from(0, 0, Tracer::disabled(), Region::new(0, 8, 16))
            .copied()
            .collect();
        assert_eq!(all, vec![7, 8, 9]);
        let tail: Vec<u64> = s
            .iter_from(3, 1, Tracer::disabled(), Region::new(0, 8, 16))
            .copied()
            .collect();
        assert_eq!(tail, vec![9]);
        let none: Vec<u64> = s
            .iter_from(4, 0, Tracer::disabled(), Region::new(0, 8, 16))
            .copied()
            .collect();
        assert_eq!(none, Vec::<u64>::new());
        // The group walk under it yields every group, the empty ones too.
        let groups: Vec<&[u64]> = s
            .groups_from(0, Tracer::disabled(), Region::new(0, 8, 16))
            .collect();
        assert_eq!(groups, [&[][..], &[7], &[], &[8, 9]]);
    }

    #[test]
    fn scan_iter_charges_per_group_not_per_slot() {
        use io_sim::IoConfig;
        let s = store_with(&[&[1, 2, 3], &[4, 5, 6]], 256);
        let tracer = Tracer::enabled(IoConfig::new(4096, 1 << 10));
        let region = Region::new(0, 16, 512);
        let n = s.iter_from(0, 0, tracer.clone(), region).count();
        assert_eq!(n, 6);
        // Each group spans exactly one 4 KiB block (256 slots x 16 bytes):
        // one read per group entered, not one per slot visited.
        assert_eq!(tracer.stats().reads, 2);
        // A walk over the groups as runs charges them the same way.
        tracer.reset_cold();
        assert_eq!(s.groups_from(0, tracer.clone(), region).count(), 2);
        assert_eq!(tracer.stats().reads, 2);
    }

    /// Every run of `W`-byte elements of length 0..=352, with the bound at
    /// every position: the line-stride search agrees with `partition_point`.
    fn line_search_matches_partition_point<const W: usize>() {
        let is_less = |e: &[u8; W]| e[0] == 0;
        for len in 0..=352 {
            for bound in 0..=len {
                let mut run = vec![[0u8; W]; bound];
                run.resize(len, [1u8; W]);
                assert_eq!(
                    partition_point_by_lines(&run, is_less),
                    run.partition_point(is_less),
                    "{W}-byte elements, len {len}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn line_stride_leaf_search_equals_partition_point() {
        // Strides 64, 8, 4, 2 and 1.
        line_search_matches_partition_point::<1>();
        line_search_matches_partition_point::<8>();
        line_search_matches_partition_point::<16>();
        line_search_matches_partition_point::<24>();
        line_search_matches_partition_point::<72>();
    }
}
