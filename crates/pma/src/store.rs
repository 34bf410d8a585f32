//! Flat slot storage: one arena per geometry, each group's values dense at
//! its front; the slot layout is computed from the counts.
//!
//! Both PMAs view their backing array as a sequence of fixed-width *groups*
//! of slots (the HI PMA's leaf ranges, the classic PMA's segments). A group
//! has two sizes:
//!
//! * its **logical width** `L` — the slots of the array the paper lays out,
//!   which the occupancy rows, [`SlotStore::total_slots`] and every tracer
//!   address count in;
//! * its **capacity** `C ≤ L` — the most elements it can ever hold, and
//!   what [`SlotStore`] allocates for it: one `Vec<T>` of `groups · C`
//!   slots. The HI PMA's leaves get Lemma 7's bound plus one, so the arena
//!   holds only slots an element can reach; the classic PMA's segments get
//!   `C = L`.
//!
//! In the arena:
//!
//! * group `g` holds its elements dense, in rank order, at `[g·C, g·C +
//!   count_g)`, so gathers and spreads move contiguous values and a leaf
//!   update is one `rotate`;
//! * **every other slot holds `T::default()`** between operations: a slot an
//!   element leaves gets the default (`mem::take`, or the far side of a slice
//!   swap), so no deleted record survives in the arena;
//! * the **virtual slot layout** — which of its `L` logical slots each
//!   element occupies, the memory representation weak history independence
//!   is defined over — is the even spread (`⌊j·L/n⌋`) of the group's count,
//!   so it is not stored: [`SlotStore::occupancy_into`] computes it, one
//!   pattern row per group. (The classic PMA's rebalances spread over a
//!   whole window, so it keeps a bitmap of its own.)
//!
//! Rebalances *move* elements, never clone them: a range rebuild moves each
//! run of elements whose group changes as one slice ([`SlotStore::redistribute`]).

use std::mem::take;

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

/// Calls `f(src, dst, len)` for each run of a redistribution of a window of
/// groups of `cap` arena slots each from counts `old` to `new` — a maximal
/// stretch of elements sharing an old and a new group, moving from window
/// slot `src` to `dst` — in ascending rank order, or descending if `rev`.
fn for_each_run(
    cap: usize,
    old: &[usize],
    new: &[usize],
    rev: bool,
    mut f: impl FnMut(usize, usize, usize),
) {
    let groups = old.len();
    // The `k`-th group walked; the slot of a run of `len`, `at` into a group of `n`.
    let group = |k: usize| if rev { groups - 1 - k } else { k };
    let slot = |k, at, n, len| group(k) * cap + if rev { n - at - len } else { at };
    // Cursors: old group `i` holding `m` with `p` walked, new group `j`
    // holding `n` with `q` walked.
    let (mut i, mut p, mut m) = (0, 0, old[group(0)]);
    let (mut j, mut q, mut n) = (0, 0, new[group(0)]);
    loop {
        while p == m {
            i += 1;
            if i == groups {
                return;
            }
            (p, m) = (0, old[group(i)]);
        }
        while q == n {
            (j, q, n) = (j + 1, 0, new[group(j + 1)]);
        }
        let len = (m - p).min(n - q);
        f(slot(i, p, m, len), slot(j, q, n, len), len);
        (p, q) = (p + len, q + len);
    }
}

/// `buf.remove(idx)` that leaves no copy behind: the slot past the new
/// length holds the default, not the old last element. A resize's `edit`
/// deletes from the front of the next arena with it.
pub fn take_out<T: Default>(buf: &mut Vec<T>, idx: usize) -> T {
    let item = take(&mut buf[idx]);
    buf[idx..].rotate_left(1);
    buf.pop();
    item
}

/// Moves the `len` elements at `slots[src..]` to `slots[dst..]`, whose
/// slots outside the source hold defaults, leaving defaults behind: one
/// rotation of the union when the two overlap, else one slice swap.
fn move_run<T>(slots: &mut [T], src: usize, dst: usize, len: usize) {
    if dst < src && src - dst < len {
        slots[dst..src + len].rotate_left(src - dst);
    } else if src < dst && dst - src < len {
        slots[src..dst + len].rotate_right(dst - src);
    } else {
        let (lo, hi) = slots.split_at_mut(src.max(dst));
        lo[src.min(dst)..][..len].swap_with_slice(&mut hi[..len]);
    }
}

/// Dense per-group values in one slot arena, each group's layout tabulated.
#[derive(Debug, Clone, Default)]
pub struct SlotStore<T> {
    /// `groups · group_cap` slots: group `g`'s elements at `[g·C, g·C +
    /// counts[g])`, `T::default()` in every other slot.
    slots: Vec<T>,
    counts: Vec<usize>,
    /// The logical width `L` of a group: what its occupancy row spreads over.
    group_slots: usize,
    /// The capacity `C ≤ L` of a group: its slots in the arena.
    group_cap: usize,
    /// Words per group-sized bit pattern (`⌈group_slots / 64⌉`).
    pattern_stride: usize,
    /// `patterns[n·stride .. (n+1)·stride]`, for `n ≤ C`, is the even spread
    /// of `n` elements over one group's `L` slots, as packed bits: a group's
    /// occupancy is a pure function of its element count, so the layout is
    /// a table row per group.
    patterns: Vec<u64>,
    /// The elements `regroup` left at the arena's front for `spread`.
    front: usize,
}

impl<T: Clone + Default> SlotStore<T> {
    /// Creates an empty store of `group_count` groups `group_slots` slots
    /// wide, each holding at most `group_cap` elements: one arena of
    /// `group_count · group_cap` defaults, so steady-state updates never
    /// reallocate.
    pub fn new(group_count: usize, group_slots: usize, group_cap: usize) -> Self {
        let mut store = Self::default();
        store.regroup(group_count, group_slots, group_cap, Vec::clear);
        store
    }

    /// Total number of logical slots (`groups · L`).
    pub fn total_slots(&self) -> usize {
        self.counts.len() * self.group_slots
    }

    /// The most elements a group can hold (`C`).
    pub fn group_capacity(&self) -> usize {
        self.group_cap
    }

    /// The slots the arena holds (`groups · C`).
    #[cfg(test)]
    pub(crate) fn arena_slots(&self) -> usize {
        self.slots.len()
    }

    /// The dense elements of group `g`, in rank order.
    pub fn group(&self, g: usize) -> &[T] {
        &self.slots[g * self.group_cap..][..self.counts[g]]
    }

    /// Number of elements in group `g`.
    pub fn group_len(&self, g: usize) -> usize {
        self.counts[g]
    }

    /// Total number of stored elements.
    pub fn element_count(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Whether every slot outside the groups' dense prefixes is default.
    pub fn vacant_slots_hold_defaults(&self) -> bool
    where
        T: PartialEq,
    {
        let mut groups = self.slots.chunks(self.group_cap).zip(&self.counts);
        groups.all(|(group, &n)| group[n..].iter().all(|e| *e == T::default()))
    }

    /// Writes the slot occupancy of the array — every group's elements
    /// evenly spread over its `L` logical slots, 64 per word, low bit first — into
    /// `words`, replacing its contents. One pattern row per group; allocates
    /// only when `words` has less capacity than `⌈total_slots / 64⌉` words.
    pub fn occupancy_into(&self, words: &mut Vec<u64>) {
        words.clear();
        words.resize(self.total_slots().div_ceil(64), 0);
        let stride = self.pattern_stride;
        for (g, &n) in self.counts.iter().enumerate() {
            let start = g * self.group_slots;
            let shift = start % 64;
            let row = &self.patterns[n * stride..(n + 1) * stride];
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

    /// Inserts `item` at dense rank `rel` of group `g`: it takes the first
    /// vacant slot and rotates into place. Zero allocations and zero clones.
    pub fn insert_in_group(&mut self, g: usize, rel: usize, item: T) {
        let n = self.counts[g];
        debug_assert!(n < self.group_cap, "group overflow");
        let run = &mut self.slots[g * self.group_cap..][rel..=n];
        run[n - rel] = item;
        run.rotate_right(1);
        self.counts[g] = n + 1;
    }

    /// Removes and returns the element at dense rank `rel` of group `g`,
    /// leaving the default in the slot the group vacates.
    pub fn remove_in_group(&mut self, g: usize, rel: usize) -> T {
        let n = self.counts[g];
        let run = &mut self.slots[g * self.group_cap..][rel..n];
        let item = take(&mut run[0]);
        run.rotate_left(1);
        self.counts[g] = n - 1;
        item
    }

    /// The first element of groups `[g0, g0 + window_groups)`, if any.
    pub fn first_in(&self, g0: usize, window_groups: usize) -> Option<&T> {
        let g = (g0..g0 + window_groups).find(|&g| self.counts[g] > 0)?;
        Some(&self.slots[g * self.group_cap])
    }

    /// Writes defaults over every element, leaving every group empty.
    pub fn clear(&mut self) {
        for (g, n) in self.counts.iter_mut().enumerate() {
            self.slots[g * self.group_cap..][..take(n)].fill(T::default());
        }
    }

    /// Moves elements across the boundaries between groups `[g0, g0 +
    /// new.len())` until group `g0 + i` holds `new[i]` elements, in
    /// unchanged rank order. The new counts must sum to the window's element
    /// count and each fit its group's capacity, which is checked before
    /// anything moves. An element moves only if its group changes, straight
    /// to its new group; no allocation and no clone.
    ///
    /// Each `for_each_run` run is one slice move. Old and new slots both
    /// rise with rank, so left-moving runs, moved in ascending order, and
    /// then right-moving runs, in descending order, find their targets
    /// vacated by the runs moved before them.
    pub fn redistribute(&mut self, g0: usize, new: &[usize]) {
        let (cap, groups) = (self.group_cap, new.len());
        // Hard assert: past it, release would spill into the next group.
        let most = new.iter().copied().max().unwrap_or(0);
        assert!(most <= cap, "cannot pack {most} elements into {cap} slots");
        let window = &mut self.slots[g0 * cap..(g0 + groups) * cap];
        let old = &self.counts[g0..g0 + groups];
        for rev in [false, true] {
            for_each_run(cap, old, new, rev, |src, dst, len| {
                if src != dst && (dst < src) != rev {
                    move_run(window, src, dst, len);
                }
            });
        }
        self.counts[g0..g0 + groups].copy_from_slice(new);
    }

    /// The first half of a resize: re-sizes the store to `group_count`
    /// groups `group_slots` slots wide holding `group_cap` each, keeping its
    /// elements. The next arena is allocated once, at its final size; every
    /// element moves (`mem::take`), in rank order, to its front, and `edit`
    /// updates that front — each PMA's resize applies its own insert or
    /// delete there. The old arena, all defaults by then, is freed before
    /// the next one is extended with defaults, so no block that holds an
    /// element is ever reallocated: the store must hold no more elements
    /// than the next arena has slots ([`Self::clear`] it first to replace
    /// its contents). The groups read empty until [`Self::spread`] deals
    /// the front out.
    pub fn regroup<R>(
        &mut self,
        group_count: usize,
        group_slots: usize,
        group_cap: usize,
        edit: impl FnOnce(&mut Vec<T>) -> R,
    ) -> R {
        assert!(group_count > 0 && group_cap > 0 && group_cap <= group_slots);
        let total = group_count * group_cap;
        // Hard asserts: past either, a block holding elements was reallocated.
        assert!(
            self.element_count() <= total,
            "the elements outnumber the next arena"
        );
        let mut next = Vec::with_capacity(total);
        for (g, &n) in self.counts.iter().enumerate() {
            next.extend(self.slots[g * self.group_cap..][..n].iter_mut().map(take));
        }
        let edited = edit(&mut next);
        assert!(next.len() <= total, "the front outgrew the next arena");
        self.front = next.len();
        drop(std::mem::replace(&mut self.slots, next));
        self.slots.resize_with(total, T::default);
        self.counts = vec![0; group_count];
        (self.group_slots, self.group_cap) = (group_slots, group_cap);
        let stride = group_slots.div_ceil(64);
        self.pattern_stride = stride;
        self.patterns = vec![0u64; (group_cap + 1) * stride];
        for n in 0..=group_cap {
            let row = &mut self.patterns[n * stride..(n + 1) * stride];
            for_each_spread_position(n, group_slots, |p| row[p / 64] |= 1 << (p % 64));
        }
        edited
    }

    /// The second half of a resize: deals the front of the arena out so
    /// that group `g` holds the next `counts[g]` elements, in rank order.
    /// Groups are filled right to left, each with one `move_run` from the
    /// front, whose elements never lie past their targets.
    pub fn spread(&mut self, counts: &[usize]) {
        let (cap, mut end) = (self.group_cap, take(&mut self.front));
        // Hard assert: else elements would be left out, or defaults dealt in.
        assert_eq!(
            counts.iter().sum::<usize>(),
            end,
            "the counts miss the front"
        );
        for (g, &n) in counts.iter().enumerate().rev() {
            // Hard assert: past it, release would spill into the next group.
            assert!(n <= cap, "cannot pack {n} elements into {cap} slots");
            end -= n;
            if end != g * cap {
                move_run(&mut self.slots, end, g * cap, n);
            }
        }
        self.counts.copy_from_slice(counts);
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

impl<'a, T: Clone + Default> Iterator for Groups<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        let g = self.next;
        if g >= self.store.counts.len() {
            return None;
        }
        self.next += 1;
        if self.tracer.is_enabled() {
            let slots = self.store.group_slots as u64;
            self.tracer
                .read(self.region.addr(g as u64 * slots), self.region.span(slots));
        }
        Some(self.store.group(g))
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

impl<'a, T: Clone + Default> Iterator for ScanIter<'a, T> {
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

    /// A store of groups `group_slots` wide holding at most `group_cap`,
    /// group `g` holding `groups[g]`: a resize's `regroup` and `spread`.
    fn filled<T: Clone + Default>(
        group_slots: usize,
        group_cap: usize,
        groups: Vec<Vec<T>>,
    ) -> SlotStore<T> {
        let counts: Vec<usize> = groups.iter().map(Vec::len).collect();
        let mut s = SlotStore::default();
        s.regroup(counts.len(), group_slots, group_cap, |front| {
            front.extend(groups.into_iter().flatten())
        });
        s.spread(&counts);
        s
    }

    fn store_with(groups: &[&[u64]], group_slots: usize) -> SlotStore<u64> {
        filled(
            group_slots,
            group_slots,
            groups.iter().map(|g| g.to_vec()).collect(),
        )
    }

    /// The occupied slots, as `occupancy_into` computes them.
    fn occupied<T: Clone + Default>(s: &SlotStore<T>) -> Vec<usize> {
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
        let s = filled(70, 70, counts.iter().map(|&n| vec![(); n]).collect());
        let mut want = Vec::new();
        for (g, &n) in counts.iter().enumerate() {
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
            let s: SlotStore<()> = SlotStore::new(1, l, l);
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

    /// Groups 70 slots wide holding at most 20: the arena is 20 slots per
    /// group, while the occupancy, `total_slots` and the pattern rows stay
    /// those of the 70-slot groups.
    #[test]
    fn capacity_sizes_the_arena_and_width_the_layout() {
        let counts = [20usize, 0, 7, 1, 20];
        let groups = counts.iter().enumerate().map(|(g, &n)| {
            let first = 100 * g as u64;
            (first..first + n as u64).collect()
        });
        let mut s = filled(70, 20, groups.collect());
        assert_eq!((s.total_slots(), s.arena_slots()), (350, 100));
        let mut want = Vec::new();
        for (g, &n) in counts.iter().enumerate() {
            want.extend((0..n).map(|j| 70 * g + spread_position(j, n, 70)));
        }
        assert_eq!(occupied(&s), want);
        for (g, &n) in counts.iter().enumerate() {
            let first = 100 * g as u64;
            assert_eq!(s.group(g), (first..first + n as u64).collect::<Vec<_>>());
        }
        s.insert_in_group(2, 3, 999);
        assert_eq!(s.remove_in_group(0, 19), 19);
        s.redistribute(1, &[4, 4]);
        assert_eq!(s.group(1), [200, 201, 202, 999]);
        assert_eq!(s.group(2), [203, 204, 205, 206]);
        assert!(s.vacant_slots_hold_defaults());
        s.clear();
        s.regroup(2, 70, 30, |front| assert!(front.is_empty()));
        assert_eq!(
            (s.total_slots(), s.arena_slots(), s.element_count()),
            (140, 60, 0)
        );
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

    /// `regroup` then `spread` against a flat model, growing and shrinking:
    /// old and new counts are dealt independently (empty groups, groups at
    /// capacity), the front is edited by one insert or delete, and the new
    /// groups must hold the edited elements in rank order, each its count,
    /// with the default in every other slot and no clone made.
    #[test]
    fn regroup_then_spread_keeps_rank_order_while_growing_and_shrinking() {
        let mut rng = StdRng::seed_from_u64(0x2E6);
        for (old_groups, new_groups) in [(3usize, 8usize), (8, 3), (1, 5), (5, 1), (6, 6)] {
            for trial in 0..64 {
                let (old_cap, new_cap) = (rng.gen_range(1..=6), rng.gen_range(2..=6));
                let total = rng
                    .gen_range(1..=old_groups * old_cap)
                    .min(new_groups * new_cap);
                let old = dealt(&mut rng, trial % 4, old_groups, old_cap, total);
                // Elements count from 1: `Counted(0)` is the default.
                let mut model: Vec<u64> = (1..=total as u64).collect();
                let mut s = filled(8, old_cap, dealt_out(&model, &old));
                let insert = trial % 2 == 0 && total < new_groups * new_cap;
                let rank = rng.gen_range(0..=total - usize::from(!insert));
                let clones = CLONES.with(|c| c.get());
                let edited = s.regroup(new_groups, 8, new_cap, |front| {
                    if insert {
                        front.insert(rank, Counted(999));
                        None
                    } else {
                        Some(take_out(front, rank))
                    }
                });
                match edited {
                    None => model.insert(rank, 999),
                    Some(e) => assert_eq!(e.0, model.remove(rank)),
                }
                let new = dealt(&mut rng, trial / 4 % 4, new_groups, new_cap, model.len());
                s.spread(&new);
                let case = format!("{old:?} -> {new:?}, insert {insert} at {rank}");
                assert_eq!(CLONES.with(|c| c.get()), clones, "{case}: cloned");
                let mut cut = &model[..];
                for (g, &n) in new.iter().enumerate() {
                    let (want, rest) = cut.split_at(n);
                    let got: Vec<u64> = s.group(g).iter().map(|e| e.0).collect();
                    assert_eq!(got, want, "{case}: group {g}");
                    cut = rest;
                }
                assert_eq!(s.arena_slots(), new_groups * new_cap, "{case}");
                assert!(s.vacant_slots_hold_defaults(), "{case}: a vacated slot");
            }
        }
    }

    // Hard asserts: `cargo test --release -p pma` (ci.sh) runs these with
    // debug assertions compiled out.
    #[test]
    #[should_panic(expected = "cannot pack 3 elements into 2 slots")]
    fn a_window_fill_past_a_group_capacity_panics() {
        // Two 8-slot groups holding at most two each: a redistribution that
        // leaves three in the first is refused before anything moves.
        let mut s = filled(8, 2, vec![vec![1u64, 2], vec![3, 4]]);
        s.redistribute(0, &[3, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot pack 3 elements into 2 slots")]
    fn overfull_window_panics() {
        // The capacity check covers every group of the window, not only
        // its first: here the last of three groups is the overfull one.
        let mut s = filled(8, 2, vec![vec![1u64, 2], vec![3], vec![4]]);
        s.redistribute(0, &[1, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot pack 5 elements into 4 slots")]
    fn overfull_spread_panics() {
        let mut s: SlotStore<u64> = SlotStore::new(2, 4, 4);
        s.regroup(2, 4, 4, |front| front.extend(1..=5));
        s.spread(&[0, 5]);
    }

    #[test]
    #[should_panic(expected = "the counts miss the front")]
    fn spreading_counts_that_miss_the_front_panics() {
        let mut s: SlotStore<u64> = SlotStore::new(2, 4, 4);
        s.regroup(2, 4, 4, |front| front.extend(1..=3));
        s.spread(&[2, 2]);
    }

    #[test]
    #[should_panic(expected = "the elements outnumber the next arena")]
    fn regrouping_more_elements_than_the_next_arena_holds_panics() {
        let mut s = filled(8, 8, vec![(1..=5u64).collect()]);
        s.regroup(1, 4, 4, |_| ());
    }

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// An element whose clones are counted, per test thread.
    #[derive(Debug, Default, PartialEq)]
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    /// `model` cut into consecutive groups of `counts[g]` elements each.
    fn dealt_out(model: &[u64], counts: &[usize]) -> Vec<Vec<Counted>> {
        let mut rest = model;
        let mut groups = Vec::new();
        for &n in counts {
            let (group, tail) = rest.split_at(n);
            groups.push(group.iter().copied().map(Counted).collect());
            rest = tail;
        }
        groups
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
    /// window must not be touched, and every slot of the window and its two
    /// guards outside a group's elements must hold the default afterwards.
    /// Each group is twice as wide as it can hold, so a run that strode by
    /// the width instead of the capacity would land in the wrong group.
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
                    // Elements count from 1: `Counted(0)` is the default.
                    let model: Vec<u64> = (1..=total as u64).collect();
                    let guard = || vec![Counted(u64::MAX)];
                    let mut groups = vec![guard()];
                    groups.extend(dealt_out(&model, &old));
                    groups.push(guard());
                    let mut s = filled(2 * slots, slots, groups);
                    let clones = CLONES.with(|c| c.get());
                    s.redistribute(1, &new);
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
                    assert!(s.vacant_slots_hold_defaults(), "{case}: a vacated slot");
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
    fn take_out_is_remove() {
        let mut buf: Vec<u64> = (1..=5).collect();
        assert_eq!(take_out(&mut buf, 1), 2);
        assert_eq!(buf, [1, 3, 4, 5]);
        assert_eq!(take_out(&mut buf, 3), 5);
        assert_eq!(buf, [1, 3, 4]);
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
