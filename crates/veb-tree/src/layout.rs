//! The van Emde Boas layout permutation.
//!
//! A complete binary tree with `L` levels is laid out recursively: cut the
//! tree at half its height; the top subtree (⌈L/2⌉ levels) is laid out first,
//! followed by each of the bottom subtrees (⌊L/2⌋ levels each) from left to
//! right, each laid out recursively. Any root-to-leaf path then crosses only
//! `O(log_B N)` blocks for *every* block size `B`, which is what makes the
//! rank tree and value tree cache-oblivious (paper §3.5).
//!
//! [`VebLayout`] precomputes the permutation from BFS index (root 0, children
//! `2i+1`/`2i+2`) to position in the vEB-ordered array. The permutation is a
//! pure function of the number of levels — rebuilding it is only needed when
//! the PMA resizes.

use crate::navigation::{children, node_count};

/// Precomputed BFS-index → vEB-position permutation for a complete binary
/// tree with a fixed number of levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VebLayout {
    levels: u32,
    /// `map[bfs_index] = position` in the vEB-ordered array.
    map: Vec<u32>,
}

impl VebLayout {
    /// Builds the layout for a complete binary tree with `levels` levels
    /// (`levels ≥ 1`; the tree has `2^levels − 1` nodes).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is 0 or the node count would overflow `u32`
    /// positions (more than 2³¹ nodes), far beyond anything the PMA needs.
    pub fn new(levels: u32) -> Self {
        assert!(levels >= 1, "a tree needs at least one level");
        assert!(levels < 32, "tree too large for u32 positions");
        let n = node_count(levels);
        let mut map = vec![u32::MAX; n];
        let mut next = 0u32;
        Self::assign(0, levels, &mut map, &mut next);
        debug_assert_eq!(next as usize, n);
        debug_assert!(map.iter().all(|&p| p != u32::MAX));
        Self { levels, map }
    }

    /// Number of levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` for the (impossible) empty layout; kept for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// vEB position of the node with BFS index `bfs`.
    #[inline(always)]
    pub fn position(&self, bfs: usize) -> usize {
        self.map[bfs] as usize
    }

    /// Recursive layout: the subtree rooted at BFS index `root` spanning
    /// `levels` levels is assigned the next positions in vEB order.
    fn assign(root: usize, levels: u32, map: &mut [u32], next: &mut u32) {
        if levels == 1 {
            map[root] = *next;
            *next += 1;
            return;
        }
        let top_levels = levels.div_ceil(2);
        let bottom_levels = levels - top_levels;
        // Lay out the top subtree.
        Self::assign_clipped(root, top_levels, map, next);
        // The bottom subtrees hang off the children of the top subtree's
        // leaves. Those leaves are the descendants of `root` at relative
        // depth `top_levels − 1`, left to right.
        let leaf_count = 1usize << (top_levels - 1);
        let first_leaf = Self::descendant(root, top_levels - 1, 0);
        for k in 0..leaf_count {
            let leaf = first_leaf + k;
            let (l, r) = children(leaf);
            Self::assign(l, bottom_levels, map, next);
            Self::assign(r, bottom_levels, map, next);
        }
    }

    /// Lays out a subtree that is *clipped* to `levels` levels (its deeper
    /// descendants belong to bottom subtrees and are laid out separately).
    fn assign_clipped(root: usize, levels: u32, map: &mut [u32], next: &mut u32) {
        if levels == 1 {
            map[root] = *next;
            *next += 1;
            return;
        }
        let top_levels = levels.div_ceil(2);
        let bottom_levels = levels - top_levels;
        Self::assign_clipped(root, top_levels, map, next);
        let leaf_count = 1usize << (top_levels - 1);
        let first_leaf = Self::descendant(root, top_levels - 1, 0);
        for k in 0..leaf_count {
            let leaf = first_leaf + k;
            let (l, r) = children(leaf);
            Self::assign_clipped(l, bottom_levels, map, next);
            Self::assign_clipped(r, bottom_levels, map, next);
        }
    }

    /// BFS index of the `k`-th descendant of `root` at relative depth `d`.
    #[inline]
    fn descendant(root: usize, d: u32, k: usize) -> usize {
        // Node at relative depth d under `root`: (root+1) * 2^d − 1 + k.
        (root + 1) * (1usize << d) - 1 + k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::navigation::{depth_of, node_count};
    use std::collections::BTreeSet;

    #[test]
    fn single_level() {
        let l = VebLayout::new(1);
        assert_eq!(l.len(), 1);
        assert_eq!(l.position(0), 0);
    }

    #[test]
    fn two_levels_root_first() {
        let l = VebLayout::new(2);
        assert_eq!(l.len(), 3);
        assert_eq!(l.position(0), 0);
        // Children immediately follow in left-to-right order.
        assert_eq!(l.position(1), 1);
        assert_eq!(l.position(2), 2);
    }

    #[test]
    fn classic_four_level_layout() {
        // With 4 levels (15 nodes) the top half is 2 levels (nodes 0,1,2) and
        // each node at depth 1 spawns two 2-level bottom trees.
        let l = VebLayout::new(4);
        assert_eq!(l.position(0), 0);
        assert_eq!(l.position(1), 1);
        assert_eq!(l.position(2), 2);
        // First bottom subtree: rooted at node 3, children 7, 8.
        assert_eq!(l.position(3), 3);
        assert_eq!(l.position(7), 4);
        assert_eq!(l.position(8), 5);
        // Second bottom subtree: rooted at node 4, children 9, 10.
        assert_eq!(l.position(4), 6);
        assert_eq!(l.position(9), 7);
        assert_eq!(l.position(10), 8);
        // Third: node 5 with children 11, 12.
        assert_eq!(l.position(5), 9);
    }

    #[test]
    fn positions_are_a_permutation() {
        for levels in 1..=14u32 {
            let l = VebLayout::new(levels);
            let n = node_count(levels);
            let set: BTreeSet<usize> = (0..n).map(|i| l.position(i)).collect();
            assert_eq!(set.len(), n, "levels = {levels}");
            assert!(set.iter().all(|&p| p < n));
        }
    }

    #[test]
    fn root_is_always_first() {
        for levels in 1..=16u32 {
            assert_eq!(VebLayout::new(levels).position(0), 0);
        }
    }

    #[test]
    fn root_to_leaf_paths_have_veb_locality() {
        // In a vEB layout with 16 levels (65 535 nodes), a root-to-leaf path
        // stored as 8-byte nodes in 4 KiB blocks must cross far fewer blocks
        // than the same path in BFS order. This is the cache-oblivious
        // property the rank tree relies on.
        let levels = 16u32;
        let l = VebLayout::new(levels);
        let elem = 8u64;
        let block = 4096u64;
        let mut worst_veb = 0usize;
        let mut worst_bfs = 0usize;
        for leaf_k in (0..(1usize << (levels - 1))).step_by(997) {
            let mut node = crate::navigation::leaf_index(levels, leaf_k);
            let mut veb_blocks = BTreeSet::new();
            let mut bfs_blocks = BTreeSet::new();
            loop {
                veb_blocks.insert(l.position(node) as u64 * elem / block);
                bfs_blocks.insert(node as u64 * elem / block);
                if node == 0 {
                    break;
                }
                node = crate::navigation::parent(node);
            }
            worst_veb = worst_veb.max(veb_blocks.len());
            worst_bfs = worst_bfs.max(bfs_blocks.len());
        }
        assert!(
            worst_veb < worst_bfs,
            "vEB path blocks {worst_veb} should beat BFS {worst_bfs}"
        );
        // log_B N with B = 512 nodes/block and N = 2^16 nodes is ~1.8, so a
        // handful of blocks suffices; BFS needs ~depth blocks.
        assert!(worst_veb <= 6, "vEB path crosses {worst_veb} blocks");
    }

    #[test]
    fn depths_untouched_by_layout() {
        // Sanity: the layout permutes positions but the BFS arithmetic keeps
        // working (depth 0 root, etc.).
        let levels = 5;
        let _ = VebLayout::new(levels);
        assert_eq!(depth_of(0), 0);
        assert_eq!(depth_of(15), 4);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        VebLayout::new(0);
    }
}
