//! Allocation-free k-way merge of per-shard sorted iterators.
//!
//! A hash-partitioned dictionary interleaves the key space across shards,
//! so a global range scan must merge `S` already-sorted shard iterators
//! back into one ascending stream. [`KWayMerge`] does this with **zero heap
//! allocations**: the shard iterators and their buffered heads live in
//! inline arrays bounded by [`MAX_SHARDS`], and
//! each `next()` is a linear scan over at most `S` buffered items — for the
//! shard counts this workspace targets (≤ 64, typically ≤ 16) that beats a
//! binary heap, which would pay allocation plus `log S` swaps of whole
//! iterator values per item.
//!
//! Ties (possible only if shards share keys, which a router-partitioned
//! dictionary never produces) resolve to the lowest shard index, so the
//! merge is deterministic for any input.
//!
//! [`RunMerge`] is the same merge for shards that hand out their contents as
//! sorted *runs* (`&[T]` slices, e.g. a PMA's dense leaves) of `Copy`
//! records, and is what a full export — the served `FLUSH` — streams from.
//! The hash router interleaves the shards record by record, so a
//! compare-and-branch merge mispredicts about every other record; here each
//! step of a two-way merge is a compare and a select, and the only branches
//! left fire once per run. More than two shards are merged by a balanced
//! tree of such two-way nodes, each merging 512 records ahead into a
//! buffer its parent reads as one more run, so every shard count takes the
//! one code path; a single shard is just its runs.

use crate::router::MAX_SHARDS;
use std::cmp::Ordering;

/// Records an inner node of a [`RunMerge`] merges ahead of its parent.
const RUN: usize = 512;

/// Merges up to [`MAX_SHARDS`] ascending streams of runs into one ascending
/// stream of records, ties going to the lowest input index (as
/// [`KWayMerge`]'s do).
///
/// Each input yields `&[T]` runs whose concatenation is sorted by `key`;
/// empty runs are skipped. Building the tree allocates one node per input
/// beyond the first; merging allocates nothing.
pub struct RunMerge<'a, T, L, F> {
    root: Input<'a, T, L>,
    key: F,
}

/// One side of a two-way node: a shard's runs, or a child node's buffer.
enum Input<'a, T, L> {
    /// The runs still to come, and what is left of the current one.
    Runs { runs: L, run: &'a [T] },
    /// A child node and the unread part `at..len` of its buffer.
    Node {
        node: Box<Node<'a, T, L>>,
        at: usize,
        len: usize,
    },
}

struct Node<'a, T, L> {
    a: Input<'a, T, L>,
    b: Input<'a, T, L>,
    buf: [T; RUN],
}

impl<'a, T, L, F, K> RunMerge<'a, T, L, F>
where
    T: Copy + Default,
    L: Iterator<Item = &'a [T]>,
    F: Fn(&T) -> K,
    K: Ord,
{
    /// Builds the merge over `inputs` (each ascending under `key`).
    ///
    /// # Panics
    ///
    /// If `inputs` is empty or holds more than [`MAX_SHARDS`] streams.
    pub fn new(inputs: impl IntoIterator<Item = L>, key: F) -> Self {
        let mut inputs: Vec<Input<'a, T, L>> = inputs
            .into_iter()
            .map(|runs| Input::Runs { runs, run: &[] })
            .collect();
        assert!(
            (1..=MAX_SHARDS).contains(&inputs.len()),
            "RunMerge takes 1 to {MAX_SHARDS} inputs, got {}",
            inputs.len()
        );
        // Pair neighbours level by level: a balanced tree whose leaves keep
        // input order left to right, so ties still go to the lower index.
        while inputs.len() > 1 {
            let mut level = Vec::with_capacity(inputs.len().div_ceil(2));
            let mut pairs = inputs.into_iter();
            while let Some(a) = pairs.next() {
                level.push(match pairs.next() {
                    Some(b) => Input::Node {
                        node: Box::new(Node {
                            a,
                            b,
                            buf: [T::default(); RUN],
                        }),
                        at: 0,
                        len: 0,
                    },
                    None => a,
                });
            }
            inputs = level;
        }
        // hi-lint: allow(panic-surface): the assert above leaves at least one input, and pairing never empties the list
        let root = inputs.pop().expect("one input is left");
        Self { root, key }
    }
}

impl<'a, T, L> Input<'a, T, L>
where
    T: Copy + Default,
    L: Iterator<Item = &'a [T]>,
{
    /// The unread records at the front of this input, refilled if none are
    /// left: empty only once the input is spent. Inlined, so a record that
    /// is already there costs its caller no call.
    #[inline(always)]
    fn head<K: Ord>(&mut self, key: &impl Fn(&T) -> K) -> &[T] {
        if self.unread().is_empty() {
            self.refill(key);
        }
        self.unread()
    }

    #[inline]
    fn unread(&self) -> &[T] {
        match self {
            Input::Runs { run, .. } => run,
            Input::Node { node, at, len } => &node.buf[*at..*len],
        }
    }

    /// Moves on to the next non-empty run, or merges the next buffer. Kept
    /// out of line: it recurses through [`Node::fill`], and [`Self::head`]
    /// inlines only because this does not.
    #[inline(never)]
    fn refill<K: Ord>(&mut self, key: &impl Fn(&T) -> K) {
        match self {
            Input::Runs { runs, run } => {
                while run.is_empty() {
                    match runs.next() {
                        Some(next) => *run = next,
                        None => break,
                    }
                }
            }
            Input::Node { node, at, len } => {
                *len = node.fill(key);
                *at = 0;
            }
        }
    }

    /// Marks the first `n` records of [`Self::head`] read.
    #[inline]
    fn consume(&mut self, n: usize) {
        match self {
            Input::Runs { run, .. } => *run = &run[n..],
            Input::Node { at, .. } => *at += n,
        }
    }
}

impl<'a, T, L> Node<'a, T, L>
where
    T: Copy + Default,
    L: Iterator<Item = &'a [T]>,
{
    /// Merges the next records of both sides into `buf`; returns how many,
    /// which is fewer than [`RUN`] only once both sides are spent.
    fn fill<K: Ord>(&mut self, key: &impl Fn(&T) -> K) -> usize {
        let Node { a, b, buf } = self;
        let mut filled = 0;
        while filled < RUN {
            let (x, y) = (a.head(key), b.head(key));
            let out = &mut buf[filled..];
            let (i, j) = if x.is_empty() || y.is_empty() {
                // One side is spent: the other is copied as it stands.
                let n = (x.len() + y.len()).min(out.len());
                if n == 0 {
                    break;
                }
                let rest = if x.is_empty() { y } else { x };
                out[..n].copy_from_slice(&rest[..n]);
                if x.is_empty() {
                    (0, n)
                } else {
                    (n, 0)
                }
            } else {
                merge_into(x, y, out, key)
            };
            filled += i + j;
            a.consume(i);
            b.consume(j);
        }
        filled
    }
}

/// Merges `x` and `y` into `out` until one of the three runs out; returns
/// how many records came from each. A step is a compare and a select, never
/// a branch on the data: the loop's own exit is its only branch, taken once.
fn merge_into<T: Copy, K: Ord>(
    x: &[T],
    y: &[T],
    out: &mut [T],
    key: &impl Fn(&T) -> K,
) -> (usize, usize) {
    let (mut i, mut j) = (0, 0);
    for slot in out {
        let (Some(&p), Some(&q)) = (x.get(i), y.get(j)) else {
            break;
        };
        let take_x = key(&p) <= key(&q);
        *slot = if take_x { p } else { q };
        i += usize::from(take_x);
        j += usize::from(!take_x);
    }
    (i, j)
}

impl<'a, T, L, F, K> Iterator for RunMerge<'a, T, L, F>
where
    T: Copy + Default,
    L: Iterator<Item = &'a [T]>,
    F: Fn(&T) -> K,
    K: Ord,
{
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let &first = self.root.head(&self.key).first()?;
        self.root.consume(1);
        Some(first)
    }
}

/// Merges up to [`MAX_SHARDS`] sorted iterators into one sorted stream.
///
/// `C` compares two items; the inputs must each be sorted under the same
/// comparator for the output to be sorted.
pub struct KWayMerge<I: Iterator, C> {
    iters: [Option<I>; MAX_SHARDS],
    /// `pending[i]` buffers the next unconsumed item of `iters[i]`.
    pending: [Option<I::Item>; MAX_SHARDS],
    len: usize,
    cmp: C,
}

impl<I, C> KWayMerge<I, C>
where
    I: Iterator,
    C: Fn(&I::Item, &I::Item) -> Ordering,
{
    /// Builds the merge over `iters` (each sorted under `cmp`).
    ///
    /// # Panics
    ///
    /// If more than [`MAX_SHARDS`] iterators are supplied.
    pub fn new(iters: impl IntoIterator<Item = I>, cmp: C) -> Self {
        let mut merged = Self {
            iters: std::array::from_fn(|_| None),
            pending: std::array::from_fn(|_| None),
            len: 0,
            cmp,
        };
        for mut it in iters {
            assert!(
                merged.len < MAX_SHARDS,
                "KWayMerge supports at most {MAX_SHARDS} inputs"
            );
            merged.pending[merged.len] = it.next();
            merged.iters[merged.len] = Some(it);
            merged.len += 1;
        }
        merged
    }
}

impl<I, C> Iterator for KWayMerge<I, C>
where
    I: Iterator,
    C: Fn(&I::Item, &I::Item) -> Ordering,
{
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let mut best: Option<usize> = None;
        for i in 0..self.len {
            if let Some(item) = &self.pending[i] {
                best = match best {
                    None => Some(i),
                    // Strict `Less` keeps ties on the lowest shard index.
                    Some(b) => {
                        // hi-lint: allow(panic-surface): best only ever indexes slots this loop observed as pending
                        let incumbent = self.pending[b].as_ref().expect("best is pending");
                        if (self.cmp)(item, incumbent) == Ordering::Less {
                            Some(i)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
        }
        let b = best?;
        let item = self.pending[b].take();
        // hi-lint: allow(panic-surface): pending[b] was Some, so iterator slot b is still filled
        self.pending[b] = self.iters[b].as_mut().expect("slot b is filled").next();
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = self.pending.iter().flatten().count();
        let (mut lo, mut hi) = (buffered, Some(buffered));
        for it in self.iters.iter().flatten() {
            let (l, h) = it.size_hint();
            lo += l;
            hi = match (hi, h) {
                (Some(a), Some(b)) => a.checked_add(b),
                _ => None,
            };
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn merge_vecs(shards: Vec<Vec<u64>>) -> Vec<u64> {
        KWayMerge::new(shards.iter().map(|s| s.iter().copied()), |a, b| a.cmp(b)).collect()
    }

    #[test]
    fn merges_disjoint_sorted_inputs() {
        let out = merge_vecs(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert_eq!(merge_vecs(vec![]), Vec::<u64>::new());
        assert_eq!(merge_vecs(vec![vec![], vec![], vec![]]), Vec::<u64>::new());
        assert_eq!(merge_vecs(vec![vec![], vec![5], vec![]]), vec![5]);
    }

    #[test]
    fn duplicate_boundaries_keep_every_copy_in_shard_order() {
        // Shards sharing keys never happens under router partitioning, but
        // the merge itself must stay deterministic: equal keys come out in
        // shard-index order, none dropped.
        let shards = vec![vec![1u64, 3, 3, 9], vec![3, 3, 5], vec![0, 3, 9]];
        let out = merge_vecs(shards);
        assert_eq!(out, vec![0, 1, 3, 3, 3, 3, 3, 5, 9, 9]);
    }

    #[test]
    fn tie_break_is_by_shard_index() {
        let shards: Vec<Vec<(u64, usize)>> = vec![vec![(7, 0)], vec![(7, 1)], vec![(7, 2)]];
        let out: Vec<(u64, usize)> =
            KWayMerge::new(shards.iter().map(|s| s.iter().copied()), |a, b| {
                a.0.cmp(&b.0)
            })
            .collect();
        assert_eq!(out, vec![(7, 0), (7, 1), (7, 2)]);
    }

    #[test]
    fn size_hint_is_exact_for_exact_inputs() {
        let shards = [vec![1u64, 2], vec![3, 4, 5]];
        let m = KWayMerge::new(shards.iter().map(|s| s.iter()), |a, b| a.cmp(b));
        assert_eq!(m.size_hint(), (5, Some(5)));
        assert_eq!(m.count(), 5);
    }

    #[test]
    fn random_shard_contents_merge_to_the_sorted_union() {
        // Property test: partition random multisets across random shard
        // counts; the merge must equal the globally sorted concatenation.
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for trial in 0..200 {
            let shard_count = rng.gen_range(1..=9usize);
            let mut shards: Vec<Vec<u64>> = vec![Vec::new(); shard_count];
            let n = rng.gen_range(0..200usize);
            let mut all: Vec<u64> = Vec::with_capacity(n);
            for _ in 0..n {
                // Narrow key range on purpose: collisions across shards
                // exercise the tie-break path.
                let v = rng.gen_range(0..64u64);
                shards[rng.gen_range(0..shard_count)].push(v);
                all.push(v);
            }
            for s in &mut shards {
                s.sort_unstable();
            }
            all.sort_unstable();
            assert_eq!(merge_vecs(shards), all, "trial {trial} diverged");
        }
    }

    /// Cuts `records` into runs of random lengths, empty and one-record runs
    /// included, the way a PMA's leaves cut a shard's contents.
    fn runs_of<'a>(records: &'a [(u64, u64)], rng: &mut StdRng) -> Vec<&'a [(u64, u64)]> {
        let mut runs = Vec::new();
        let mut rest = records;
        loop {
            let len = match rng.gen_range(0..8u32) {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(2..=300usize),
            };
            let (run, tail) = rest.split_at(len.min(rest.len()));
            runs.push(run);
            if tail.is_empty() && rng.gen_bool(0.5) {
                return runs;
            }
            rest = tail;
        }
    }

    /// Property test for the leaf-run merge: random shard contents cut into
    /// random runs must merge to the sorted union, record for record what
    /// [`KWayMerge`] yields over the same shards. Shards may be empty, keys
    /// include `0` and `u64::MAX`, and every other trial draws keys from a
    /// narrow range so equal keys meet across shards: the value tags the
    /// shard, so the tie order is checked too.
    #[test]
    fn run_merge_is_the_sorted_union_and_the_k_way_merge() {
        let mut rng = StdRng::seed_from_u64(0x2B1D);
        for shards in [1usize, 2, 3, 4, 8, MAX_SHARDS] {
            for trial in 0..24 {
                let contents: Vec<Vec<(u64, u64)>> = (0..shards)
                    .map(|s| {
                        let n = match rng.gen_range(0..5u32) {
                            0 => 0,
                            _ => rng.gen_range(1..=1_500usize),
                        };
                        let mut keys: Vec<u64> = (0..n)
                            .map(|_| match trial % 2 {
                                0 => rng.gen_range(0..400u64),
                                _ => rng.gen(),
                            })
                            .collect();
                        if n > 0 {
                            keys.extend([0, u64::MAX]);
                        }
                        keys.sort_unstable();
                        let tag = (s as u64) << 32;
                        keys.into_iter().zip(tag..).collect()
                    })
                    .collect();
                let runs: Vec<Vec<&[(u64, u64)]>> =
                    contents.iter().map(|c| runs_of(c, &mut rng)).collect();

                let merged: Vec<(u64, u64)> =
                    RunMerge::new(runs.iter().map(|r| r.iter().copied()), |r: &(u64, u64)| r.0)
                        .collect();
                let k_way: Vec<(u64, u64)> =
                    KWayMerge::new(contents.iter().map(|c| c.iter().copied()), |a, b| {
                        a.0.cmp(&b.0)
                    })
                    .collect();
                let mut union: Vec<(u64, u64)> = contents.concat();
                union.sort_unstable();
                assert_eq!(merged, union, "{shards} shards, trial {trial}");
                assert_eq!(merged, k_way, "{shards} shards, trial {trial}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "RunMerge takes 1 to")]
    fn a_run_merge_needs_an_input() {
        let none: [std::slice::Chunks<'_, u64>; 0] = [];
        let _ = RunMerge::new(none, |r: &u64| *r);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_inputs_are_rejected() {
        let inputs: Vec<std::vec::IntoIter<u64>> = (0..MAX_SHARDS + 1)
            .map(|_| vec![1u64].into_iter())
            .collect();
        let _ = KWayMerge::new(inputs, |a: &u64, b: &u64| a.cmp(b));
    }
}
