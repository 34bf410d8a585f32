//! A complete binary tree stored in vEB order with traced access.
//!
//! [`VebTree`] is the storage container behind the PMA's rank tree and the
//! cache-oblivious B-tree's value tree. Nodes are addressed by BFS index;
//! reads and writes are optionally reported to an [`io_sim::Tracer`] using
//! the node's vEB position, so root-to-leaf traversals are charged the
//! cache-oblivious `O(log_B N)` I/Os.

use crate::layout::VebLayout;
use crate::navigation::node_count;
use io_sim::{Region, Tracer};

/// A fixed-topology complete binary tree with one `T` per node, stored in
/// van Emde Boas order.
#[derive(Debug, Clone)]
pub struct VebTree<T> {
    layout: VebLayout,
    data: Vec<T>,
    region: Region,
    tracer: Tracer,
}

impl<T: Clone + Default> VebTree<T> {
    /// Creates a tree with `levels` levels, every node holding `T::default()`.
    ///
    /// `region_base` is the byte address at which the vEB array notionally
    /// starts in the simulated address space and `elem_size` the on-disk size
    /// of one node; they only matter when `tracer` is enabled.
    pub fn new(levels: u32, region_base: u64, elem_size: u64, tracer: Tracer) -> Self {
        let layout = VebLayout::new(levels);
        let n = node_count(levels);
        Self {
            data: vec![T::default(); n],
            region: Region::new(region_base, elem_size, n as u64),
            layout,
            tracer,
        }
    }

    /// Number of levels.
    pub fn levels(&self) -> u32 {
        self.layout.levels()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tree has no nodes (never happens for a
    /// constructed tree).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The simulated-disk region backing this tree.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Reads the value at BFS index `bfs`.
    #[inline(always)]
    pub fn get(&self, bfs: usize) -> &T {
        let pos = self.layout.position(bfs);
        self.tracer
            .read(self.region.addr(pos as u64), self.region.elem_size);
        &self.data[pos]
    }

    /// Writes the value at BFS index `bfs`.
    #[inline(always)]
    pub fn set(&mut self, bfs: usize, value: T) {
        self.set_with(bfs, |v| *v = value);
    }

    /// Writes the value at BFS index `bfs` through `write`, charged as one
    /// write.
    #[inline(always)]
    pub fn set_with(&mut self, bfs: usize, write: impl FnOnce(&mut T)) {
        let pos = self.layout.position(bfs);
        self.tracer
            .write(self.region.addr(pos as u64), self.region.elem_size);
        write(&mut self.data[pos]);
    }

    /// Reads without charging I/O (used by internal consistency checks and
    /// tests; real operations must use [`VebTree::get`]).
    #[inline(always)]
    pub fn peek(&self, bfs: usize) -> &T {
        &self.data[self.layout.position(bfs)]
    }

    /// Overwrites every node with `value`, uncharged: a scrub of memory
    /// about to be freed, not an access of the modelled structure.
    pub fn scrub(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Overwrites every node with `T::default()` and charges a sequential
    /// write of the whole region (used when the owning structure rebuilds).
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = T::default();
        }
        self.tracer.write(self.region.base, self.region.byte_len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::navigation::{children, leaf_index};
    use io_sim::IoConfig;

    #[test]
    fn get_set_roundtrip() {
        let mut t: VebTree<u64> = VebTree::new(4, 0, 8, Tracer::disabled());
        assert_eq!(t.len(), 15);
        for i in 0..15 {
            t.set(i, (i * 10) as u64);
        }
        for i in 0..15 {
            assert_eq!(*t.get(i), (i * 10) as u64);
            assert_eq!(*t.peek(i), (i * 10) as u64);
        }
    }

    #[test]
    fn defaults_are_zero() {
        let t: VebTree<u64> = VebTree::new(3, 0, 8, Tracer::disabled());
        assert!((0..t.len()).all(|i| *t.peek(i) == 0));
    }

    #[test]
    fn clear_resets() {
        let mut t: VebTree<u32> = VebTree::new(3, 0, 4, Tracer::disabled());
        t.set(5, 99);
        t.clear();
        assert_eq!(*t.peek(5), 0);
    }

    #[test]
    fn traced_descent_is_cheap() {
        // A root-to-leaf descent in a 16-level tree (8-byte nodes, 4 KiB
        // blocks) should cost only a few block reads thanks to the vEB
        // layout.
        let tracer = Tracer::enabled(IoConfig::new(4096, 4096));
        let levels = 16u32;
        let t: VebTree<u64> = VebTree::new(levels, 0, 8, tracer.clone());
        tracer.reset_cold();
        let mut node = 0usize;
        while 2 * node + 2 < t.len() {
            let _ = t.get(node);
            node = children(node).1;
        }
        let _ = t.get(node);
        let reads = tracer.stats().reads;
        assert!(reads <= 6, "descent cost {reads} blocks, expected <= 6");
    }

    #[test]
    fn traced_descent_beats_bfs_equivalent() {
        // The same descent against a BFS-ordered array would touch ~one block
        // per level once past the first few levels (~12 blocks of 512 nodes
        // for 16 levels). Confirm the vEB tree stays well under that.
        let tracer = Tracer::enabled(IoConfig::new(4096, 4096));
        let levels = 16u32;
        let t: VebTree<u64> = VebTree::new(levels, 0, 8, tracer.clone());
        tracer.reset_cold();
        // Descend to the leftmost leaf.
        let mut node = 0usize;
        for _ in 0..levels - 1 {
            let _ = t.get(node);
            node = children(node).0;
        }
        let _ = t.get(node);
        assert_eq!(node, leaf_index(levels, 0));
        assert!(tracer.stats().reads < 8);
    }

    #[test]
    fn region_is_exposed() {
        let t: VebTree<u64> = VebTree::new(3, 4096, 8, Tracer::disabled());
        assert_eq!(t.region().base, 4096);
        assert_eq!(t.region().slots, 7);
    }
}
