//! An external-memory B+-tree baseline.
//!
//! The paper positions all of its structures against "the B-tree, the primary
//! indexing data structure used in databases": searches in `O(log_B N)` I/Os,
//! updates in `O(log_B N)` I/Os, range queries in `O(log_B N + k/B)` I/Os.
//! This crate provides that yardstick as a conventional (history-*dependent*)
//! B+-tree over simulated disk blocks: every node occupies one block, and
//! every node visited or rewritten by an operation is charged one I/O.
//!
//! The tree is deliberately ordinary — splits on overflow, borrow/merge on
//! underflow — because its role is to give the benchmarks an honest
//! comparison point for Theorems 2 and 3 and to illustrate, in the tests,
//! how an ordinary index leaks history through its node layout.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};

use hi_common::counters::SharedCounters;
use hi_common::traits::{below_end_bound, cloned_bounds, normalize_pairs, Dictionary};
use io_sim::Tracer;

/// Node identifier within the tree's arena.
type NodeId = usize;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        /// Separator keys: `keys[i]` is the smallest key reachable through
        /// `children[i + 1]`.
        keys: Vec<K>,
        children: Vec<NodeId>,
    },
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
    },
}

impl<K, V> Node<K, V> {
    fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    fn len(&self) -> usize {
        match self {
            Node::Internal { children, .. } => children.len(),
            Node::Leaf { keys, .. } => keys.len(),
        }
    }
}

/// An external-memory B+-tree with fanout `B`.
///
/// Every node (internal or leaf) holds at most `B` entries and at least
/// `⌈B/2⌉` (except the root). Each node is charged as one disk block.
#[derive(Debug)]
pub struct BTree<K: Ord + Clone, V: Clone> {
    nodes: Vec<Node<K, V>>,
    root: NodeId,
    fanout: usize,
    len: usize,
    counters: SharedCounters,
    tracer: Tracer,
    // Relaxed atomics, not `Cell`s: the I/O ledger must not stop the whole
    // tree from being `Sync` (shared readers on the sharded service layer's
    // worker threads all charge node touches through `&self`).
    total_ios: AtomicU64,
    last_op_ios: AtomicU64,
}

impl<K: Ord + Clone, V: Clone> Clone for BTree<K, V> {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            root: self.root,
            fanout: self.fanout,
            len: self.len,
            counters: self.counters.clone(),
            tracer: self.tracer.clone(),
            total_ios: AtomicU64::new(self.total_ios.load(Ordering::Relaxed)),
            last_op_ios: AtomicU64::new(self.last_op_ios.load(Ordering::Relaxed)),
        }
    }
}

#[expect(
    clippy::unreachable,
    reason = "node-kind match arms: every Node is Leaf or Internal and the recursion's depth invariant (leaves at height 0, internals above) decides which before the match; reaching the other arm is a logic bug where aborting beats silently corrupting the tree, and a typed error would force an impossible-error variant on every caller"
)]
impl<K: Ord + Clone, V: Clone> BTree<K, V> {
    /// Creates an empty B+-tree with the given fanout (`B ≥ 4`).
    pub fn new(fanout: usize) -> Self {
        Self::with_instrumentation(fanout, SharedCounters::new(), Tracer::disabled())
    }

    /// Creates an empty B+-tree with explicit counters and I/O tracer — the
    /// uniform instrumentation hook used by the dictionary builder. The tree
    /// computes its own DAM cost (one transfer per node touched) and reports
    /// it into the tracer via [`Tracer::charge`], so its I/O shows up in the
    /// same [`io_sim::IoStats`] ledger as the cache-oblivious structures'.
    pub fn with_instrumentation(fanout: usize, counters: SharedCounters, tracer: Tracer) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        Self {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
            }],
            root: 0,
            fanout,
            len: 0,
            counters,
            tracer,
            total_ios: AtomicU64::new(0),
            last_op_ios: AtomicU64::new(0),
        }
    }

    /// The I/O tracer handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fanout `B`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Block transfers charged to the most recent operation.
    pub fn last_op_ios(&self) -> u64 {
        self.last_op_ios.load(Ordering::Relaxed)
    }

    /// Block transfers charged since construction.
    pub fn total_ios(&self) -> u64 {
        self.total_ios.load(Ordering::Relaxed)
    }

    /// The shared operation counters.
    pub fn counters(&self) -> &SharedCounters {
        &self.counters
    }

    /// Height of the tree (a single leaf has height 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        while let Node::Internal { children, .. } = &self.nodes[node] {
            node = children[0];
            h += 1;
        }
        h
    }

    fn finish_op(&self, ios: u64) {
        self.last_op_ios.store(ios, Ordering::Relaxed);
        self.total_ios.fetch_add(ios, Ordering::Relaxed);
        self.tracer.charge(ios, 0);
    }

    /// Charges one node touch to the running iteration (lazy traversals call
    /// this per node instead of batching a `finish_op`).
    fn charge_node(&self) {
        self.last_op_ios.fetch_add(1, Ordering::Relaxed);
        self.total_ios.fetch_add(1, Ordering::Relaxed);
        self.tracer.charge(1, 0);
    }

    fn min_fill(&self) -> usize {
        self.fanout.div_ceil(2)
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Looks up a key, cloning the value.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_ref(key).cloned()
    }

    /// Borrows the value stored under `key` without copying it: one root-to-
    /// leaf descent, zero allocations.
    pub fn get_ref(&self, key: &K) -> Option<&V> {
        self.counters.add_query();
        let mut ios = 0u64;
        let mut node = self.root;
        loop {
            ios += 1;
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    node = children[idx];
                }
                Node::Leaf { keys, values } => {
                    let result = keys.binary_search(key).ok().map(|idx| &values[idx]);
                    self.finish_op(ios);
                    return result;
                }
            }
        }
    }

    /// Lazily yields every pair whose key lies in `range`, in ascending key
    /// order: one descent to the leaf containing the lower bound, then a
    /// leaf-by-leaf walk, with no per-query allocation beyond the traversal
    /// stack. Node touches are charged to the I/O ledger as the iterator
    /// advances.
    pub fn range_iter<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        self.counters.add_query();
        self.last_op_ios.store(0, Ordering::Relaxed);
        let (start, end) = cloned_bounds(&range);
        BTreeIter::seek(self, &start).take_while(move |&(k, _)| below_end_bound(k, &end))
    }

    /// Borrows every pair in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.range_iter(..)
    }

    /// Replaces the entire contents with `pairs` via a bottom-up build:
    /// sorted pairs are packed into leaves as evenly as possible, then each
    /// internal level is built over the one below — `O(n log n)` for the
    /// sort plus `O(n)` node construction, against one root-to-leaf descent
    /// (with splits) per pair for incremental insertion. The input is
    /// normalised (last write wins); `seed` is accepted only for signature
    /// uniformity — the B-tree draws no coins, which is exactly why it is
    /// *not* history independent.
    pub fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (K, V)>, seed: u64) {
        let _ = seed;
        let pairs = normalize_pairs(pairs.into_iter().collect());
        self.nodes.clear();
        self.len = pairs.len();
        self.counters.add_resize();
        if pairs.is_empty() {
            self.nodes.push(Node::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
            });
            self.root = 0;
            self.finish_op(1);
            return;
        }
        // Pack the leaf level: as few leaves as possible, sizes as even as
        // possible, so every non-root leaf meets the minimum-fill invariant.
        let chunk_count = pairs.len().div_ceil(self.fanout);
        // `(smallest key in subtree, node)` for the level being built.
        let mut level: Vec<(K, NodeId)> = Vec::with_capacity(chunk_count);
        let mut rest = pairs.as_slice();
        for chunk in 0..chunk_count {
            let size = rest.len().div_ceil(chunk_count - chunk);
            let (head, tail) = rest.split_at(size);
            rest = tail;
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf {
                keys: head.iter().map(|(k, _)| k.clone()).collect(),
                values: head.iter().map(|(_, v)| v.clone()).collect(),
            });
            level.push((head[0].0.clone(), id));
        }
        // Build internal levels until one root remains.
        while level.len() > 1 {
            let group_count = level.len().div_ceil(self.fanout);
            let mut next: Vec<(K, NodeId)> = Vec::with_capacity(group_count);
            let mut rest = level.as_slice();
            for group in 0..group_count {
                let size = rest.len().div_ceil(group_count - group);
                let (head, tail) = rest.split_at(size);
                rest = tail;
                let id = self.nodes.len();
                self.nodes.push(Node::Internal {
                    keys: head[1..].iter().map(|(k, _)| k.clone()).collect(),
                    children: head.iter().map(|&(_, child)| child).collect(),
                });
                next.push((head[0].0.clone(), id));
            }
            level = next;
        }
        self.root = level[0].1;
        // Charge one write per node built.
        self.finish_op(self.nodes.len() as u64);
    }

    /// Smallest key ≥ `key`.
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        let mut node = self.root;
        let mut candidate: Option<(K, V)> = None;
        loop {
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    // A sibling to the right may hold the successor if this
                    // subtree doesn't; remember the leftmost key of the next
                    // child subtree lazily by simply also descending there if
                    // needed — instead we record nothing and fall back to the
                    // parent separator keys, which are real keys in a B+-tree
                    // only at the leaf level, so we walk down and handle the
                    // "not found here" case below.
                    if idx < keys.len() {
                        // keys[idx] is the smallest key of children[idx + 1].
                        let mut probe = children[idx + 1];
                        loop {
                            match &self.nodes[probe] {
                                Node::Internal { children, .. } => probe = children[0],
                                Node::Leaf { keys, values } => {
                                    if !keys.is_empty() {
                                        candidate = Some((keys[0].clone(), values[0].clone()));
                                    }
                                    break;
                                }
                            }
                        }
                    }
                    node = children[idx];
                }
                Node::Leaf { keys, values } => {
                    let idx = keys.partition_point(|k| k < key);
                    if idx < keys.len() {
                        return Some((keys[idx].clone(), values[idx].clone()));
                    }
                    return candidate;
                }
            }
        }
    }

    /// Largest key ≤ `key`.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        let mut node = self.root;
        let mut candidate: Option<(K, V)> = None;
        loop {
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    if idx > 0 {
                        // The rightmost key of children[idx - 1]'s subtree is
                        // a candidate.
                        let mut probe = children[idx - 1];
                        loop {
                            match &self.nodes[probe] {
                                #[expect(
                                    clippy::expect_used,
                                    reason = "B-tree invariant: internal nodes always hold at least one child"
                                )]
                                Node::Internal { children, .. } => {
                                    probe = *children.last().expect("internal node has children");
                                }
                                Node::Leaf { keys, values } => {
                                    if let (Some(k), Some(v)) = (keys.last(), values.last()) {
                                        candidate = Some((k.clone(), v.clone()));
                                    }
                                    break;
                                }
                            }
                        }
                    }
                    node = children[idx];
                }
                Node::Leaf { keys, values } => {
                    let idx = keys.partition_point(|k| k <= key);
                    if idx > 0 {
                        return Some((keys[idx - 1].clone(), values[idx - 1].clone()));
                    }
                    return candidate;
                }
            }
        }
    }

    /// Collects the whole tree in ascending key order.
    pub fn to_sorted_vec(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        self.collect_node(self.root, &mut out);
        out
    }

    fn collect_node(&self, node: NodeId, out: &mut Vec<(K, V)>) {
        match &self.nodes[node] {
            Node::Internal { children, .. } => {
                for child in children {
                    self.collect_node(*child, out);
                }
            }
            Node::Leaf { keys, values } => {
                for (k, v) in keys.iter().zip(values) {
                    out.push((k.clone(), v.clone()));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Inserts a key–value pair, returning the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.counters.add_insert();
        let mut ios = 0u64;
        let result = self.insert_rec(self.root, key, value, &mut ios);
        let (old, split) = result;
        if let Some((sep, right)) = split {
            // Grow a new root.
            let new_root = self.nodes.len();
            let old_root = self.root;
            self.nodes.push(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
            self.root = new_root;
            ios += 1;
        }
        if old.is_none() {
            self.len += 1;
        }
        self.finish_op(ios);
        old
    }

    /// Recursive insert; returns the replaced value (if any) and, when the
    /// child split, the separator key and new right sibling.
    fn insert_rec(
        &mut self,
        node: NodeId,
        key: K,
        value: V,
        ios: &mut u64,
    ) -> (Option<V>, Option<(K, NodeId)>) {
        *ios += 2; // read + write of this node
        match &mut self.nodes[node] {
            Node::Leaf { keys, values } => match keys.binary_search(&key) {
                Ok(idx) => {
                    let old = std::mem::replace(&mut values[idx], value);
                    (Some(old), None)
                }
                Err(idx) => {
                    keys.insert(idx, key);
                    values.insert(idx, value);
                    if keys.len() > self.fanout {
                        (None, Some(self.split_leaf(node)))
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| *k <= key);
                let child = children[idx];
                let (old, split) = self.insert_rec(child, key, value, ios);
                if let Some((sep, right)) = split {
                    if let Node::Internal { keys, children } = &mut self.nodes[node] {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if children.len() > self.fanout {
                            return (old, Some(self.split_internal(node)));
                        }
                    }
                }
                (old, None)
            }
        }
    }

    fn split_leaf(&mut self, node: NodeId) -> (K, NodeId) {
        let Node::Leaf { keys, values } = &mut self.nodes[node] else {
            unreachable!("split_leaf on an internal node");
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid);
        let right_values = values.split_off(mid);
        let sep = right_keys[0].clone();
        let right = self.nodes.len();
        self.nodes.push(Node::Leaf {
            keys: right_keys,
            values: right_values,
        });
        (sep, right)
    }

    fn split_internal(&mut self, node: NodeId) -> (K, NodeId) {
        let Node::Internal { keys, children } = &mut self.nodes[node] else {
            unreachable!("split_internal on a leaf");
        };
        let mid = children.len() / 2;
        // keys has children.len() - 1 entries; the separator promoted to the
        // parent is keys[mid - 1].
        let right_children = children.split_off(mid);
        let mut right_keys = keys.split_off(mid - 1);
        let sep = right_keys.remove(0);
        let right = self.nodes.len();
        self.nodes.push(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        (sep, right)
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.counters.add_delete();
        let mut ios = 0u64;
        let removed = self.remove_rec(self.root, key, &mut ios);
        if removed.is_some() {
            self.len -= 1;
        }
        // Collapse a root that lost all but one child.
        if let Node::Internal { children, .. } = &self.nodes[self.root] {
            if children.len() == 1 {
                self.root = children[0];
                ios += 1;
            }
        }
        self.finish_op(ios);
        removed
    }

    fn remove_rec(&mut self, node: NodeId, key: &K, ios: &mut u64) -> Option<V> {
        *ios += 2;
        match &mut self.nodes[node] {
            Node::Leaf { keys, values } => match keys.binary_search(key) {
                Ok(idx) => {
                    keys.remove(idx);
                    Some(values.remove(idx))
                }
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k <= key);
                let child = children[idx];
                let removed = self.remove_rec(child, key, ios);
                if removed.is_some() {
                    self.rebalance_child(node, idx, ios);
                }
                removed
            }
        }
    }

    /// Restores the minimum-fill invariant of `children[idx]` of `parent` by
    /// borrowing from or merging with a sibling.
    fn rebalance_child(&mut self, parent: NodeId, idx: usize, ios: &mut u64) {
        let min = self.min_fill();
        let (child, child_len) = {
            let Node::Internal { children, .. } = &self.nodes[parent] else {
                unreachable!("parent must be internal");
            };
            let child = children[idx];
            (child, self.nodes[child].len())
        };
        if child_len >= min || self.root == child {
            return;
        }
        let Node::Internal { children, .. } = &self.nodes[parent] else {
            unreachable!();
        };
        let sibling_count = children.len();
        // Prefer borrowing from / merging with the left sibling.
        if idx > 0 {
            let left = children[idx - 1];
            if self.nodes[left].len() > min {
                self.borrow_from_left(parent, idx, ios);
            } else {
                self.merge_children(parent, idx - 1, ios);
            }
        } else if idx + 1 < sibling_count {
            let right = children[idx + 1];
            if self.nodes[right].len() > min {
                self.borrow_from_right(parent, idx, ios);
            } else {
                self.merge_children(parent, idx, ios);
            }
        }
        let _ = child;
    }

    fn borrow_from_left(&mut self, parent: NodeId, idx: usize, ios: &mut u64) {
        *ios += 2;
        let (left_id, child_id) = {
            let Node::Internal { children, .. } = &self.nodes[parent] else {
                unreachable!();
            };
            (children[idx - 1], children[idx])
        };
        if self.nodes[left_id].is_leaf() {
            #[expect(
                clippy::expect_used,
                reason = "the donor sibling was checked to have surplus entries"
            )]
            let (k, v) = {
                let Node::Leaf { keys, values } = &mut self.nodes[left_id] else {
                    unreachable!();
                };
                (
                    keys.pop().expect("donor leaf"),
                    values.pop().expect("donor leaf"),
                )
            };
            let new_sep = k.clone();
            {
                let Node::Leaf { keys, values } = &mut self.nodes[child_id] else {
                    unreachable!();
                };
                keys.insert(0, k);
                values.insert(0, v);
            }
            let Node::Internal { keys, .. } = &mut self.nodes[parent] else {
                unreachable!();
            };
            keys[idx - 1] = new_sep;
        } else {
            #[expect(
                clippy::expect_used,
                reason = "the donor sibling was checked to have surplus entries"
            )]
            let (donated_child, donated_key) = {
                let Node::Internal { keys, children } = &mut self.nodes[left_id] else {
                    unreachable!();
                };
                (children.pop().expect("donor"), keys.pop().expect("donor"))
            };
            let old_sep = {
                let Node::Internal { keys, .. } = &mut self.nodes[parent] else {
                    unreachable!();
                };
                std::mem::replace(&mut keys[idx - 1], donated_key)
            };
            let Node::Internal { keys, children } = &mut self.nodes[child_id] else {
                unreachable!();
            };
            keys.insert(0, old_sep);
            children.insert(0, donated_child);
        }
    }

    fn borrow_from_right(&mut self, parent: NodeId, idx: usize, ios: &mut u64) {
        *ios += 2;
        let (child_id, right_id) = {
            let Node::Internal { children, .. } = &self.nodes[parent] else {
                unreachable!();
            };
            (children[idx], children[idx + 1])
        };
        if self.nodes[right_id].is_leaf() {
            let (k, v) = {
                let Node::Leaf { keys, values } = &mut self.nodes[right_id] else {
                    unreachable!();
                };
                (keys.remove(0), values.remove(0))
            };
            let new_sep = {
                let Node::Leaf { keys, .. } = &self.nodes[right_id] else {
                    unreachable!();
                };
                keys[0].clone()
            };
            {
                let Node::Leaf { keys, values } = &mut self.nodes[child_id] else {
                    unreachable!();
                };
                keys.push(k);
                values.push(v);
            }
            let Node::Internal { keys, .. } = &mut self.nodes[parent] else {
                unreachable!();
            };
            keys[idx] = new_sep;
        } else {
            let (donated_child, donated_key) = {
                let Node::Internal { keys, children } = &mut self.nodes[right_id] else {
                    unreachable!();
                };
                (children.remove(0), keys.remove(0))
            };
            let old_sep = {
                let Node::Internal { keys, .. } = &mut self.nodes[parent] else {
                    unreachable!();
                };
                std::mem::replace(&mut keys[idx], donated_key)
            };
            let Node::Internal { keys, children } = &mut self.nodes[child_id] else {
                unreachable!();
            };
            keys.push(old_sep);
            children.push(donated_child);
        }
    }

    /// Merges `children[idx + 1]` of `parent` into `children[idx]`.
    fn merge_children(&mut self, parent: NodeId, idx: usize, ios: &mut u64) {
        *ios += 2;
        let (left_id, right_id, sep) = {
            let Node::Internal { keys, children } = &mut self.nodes[parent] else {
                unreachable!();
            };
            let right = children.remove(idx + 1);
            let sep = keys.remove(idx);
            (children[idx], right, sep)
        };
        let right_node = std::mem::replace(
            &mut self.nodes[right_id],
            Node::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
            },
        );
        match (&mut self.nodes[left_id], right_node) {
            (
                Node::Leaf { keys, values },
                Node::Leaf {
                    keys: rk,
                    values: rv,
                },
            ) => {
                keys.extend(rk);
                values.extend(rv);
            }
            (
                Node::Internal { keys, children },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                keys.push(sep);
                keys.extend(rk);
                children.extend(rc);
            }
            _ => unreachable!("siblings at the same height share a node kind"),
        }
    }

    /// Verifies the B+-tree invariants (ordering, fill factors, uniform leaf
    /// depth). Intended for tests.
    pub fn check_invariants(&self) {
        let mut leaf_depths = Vec::new();
        self.check_node(self.root, None, None, 0, &mut leaf_depths, true);
        leaf_depths.dedup();
        assert!(leaf_depths.len() <= 1, "leaves at different depths");
        assert_eq!(self.to_sorted_vec().len(), self.len);
    }

    fn check_node(
        &self,
        node: NodeId,
        low: Option<&K>,
        high: Option<&K>,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
        is_root: bool,
    ) {
        match &self.nodes[node] {
            Node::Leaf { keys, .. } => {
                leaf_depths.push(depth);
                assert!(keys.len() <= self.fanout);
                if !is_root {
                    assert!(keys.len() >= self.min_fill().saturating_sub(1));
                }
                for window in keys.windows(2) {
                    assert!(window[0] < window[1], "unsorted leaf");
                }
                if let (Some(lo), Some(first)) = (low, keys.first()) {
                    assert!(first >= lo);
                }
                if let (Some(hi), Some(last)) = (high, keys.last()) {
                    assert!(last < hi);
                }
            }
            Node::Internal { keys, children } => {
                assert!(children.len() <= self.fanout);
                if !is_root {
                    assert!(children.len() >= self.min_fill().saturating_sub(1));
                } else {
                    assert!(children.len() >= 2);
                }
                assert_eq!(keys.len() + 1, children.len());
                for window in keys.windows(2) {
                    assert!(window[0] < window[1], "unsorted separators");
                }
                for (i, child) in children.iter().enumerate() {
                    let lo = if i == 0 { low } else { Some(&keys[i - 1]) };
                    let hi = if i == keys.len() {
                        high
                    } else {
                        Some(&keys[i])
                    };
                    self.check_node(*child, lo, hi, depth + 1, leaf_depths, false);
                }
            }
        }
    }
}

/// Lazy in-order traversal of a [`BTree`], starting at a seeked lower bound.
///
/// Holds a stack of `(internal node, child index)` pairs for the current
/// root-to-leaf path plus a cursor into the current leaf; advancing past a
/// leaf pops the stack to the next unvisited subtree. Each node entered is
/// charged one transfer to the tree's I/O ledger, mirroring the eager
/// implementation's accounting.
struct BTreeIter<'a, K: Ord + Clone, V: Clone> {
    tree: &'a BTree<K, V>,
    /// `(node, child index currently being visited)` for each internal node
    /// on the path from the root to the current leaf.
    stack: Vec<(NodeId, usize)>,
    /// Current leaf and the index of the next entry to yield.
    leaf: Option<(NodeId, usize)>,
}

impl<'a, K: Ord + Clone, V: Clone> BTreeIter<'a, K, V> {
    /// Positions the iterator at the first entry satisfying `start`.
    fn seek(tree: &'a BTree<K, V>, start: &Bound<K>) -> Self {
        let mut it = Self {
            tree,
            stack: Vec::new(),
            leaf: None,
        };
        let mut node = tree.root;
        loop {
            tree.charge_node();
            match &tree.nodes[node] {
                Node::Internal { keys, children } => {
                    let idx = match start {
                        Bound::Included(k) | Bound::Excluded(k) => keys.partition_point(|x| x <= k),
                        Bound::Unbounded => 0,
                    };
                    it.stack.push((node, idx));
                    node = children[idx];
                }
                Node::Leaf { keys, .. } => {
                    let idx = match start {
                        Bound::Included(k) => keys.partition_point(|x| x < k),
                        Bound::Excluded(k) => keys.partition_point(|x| x <= k),
                        Bound::Unbounded => 0,
                    };
                    it.leaf = Some((node, idx));
                    return it;
                }
            }
        }
    }

    /// Descends to the leftmost leaf of `node`, pushing the path.
    fn descend_first(&mut self, mut node: NodeId) {
        loop {
            self.tree.charge_node();
            match &self.tree.nodes[node] {
                Node::Internal { children, .. } => {
                    self.stack.push((node, 0));
                    node = children[0];
                }
                Node::Leaf { .. } => {
                    self.leaf = Some((node, 0));
                    return;
                }
            }
        }
    }
}

impl<'a, K: Ord + Clone, V: Clone> Iterator for BTreeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((leaf_id, idx)) = self.leaf {
                if let Node::Leaf { keys, values } = &self.tree.nodes[leaf_id] {
                    if idx < keys.len() {
                        self.leaf = Some((leaf_id, idx + 1));
                        return Some((&keys[idx], &values[idx]));
                    }
                }
                self.leaf = None;
            }
            // Current leaf exhausted: pop to the next unvisited sibling
            // subtree and descend to its leftmost leaf.
            loop {
                let (node, child_idx) = self.stack.pop()?;
                if let Node::Internal { children, .. } = &self.tree.nodes[node] {
                    if child_idx + 1 < children.len() {
                        self.stack.push((node, child_idx + 1));
                        self.descend_first(children[child_idx + 1]);
                        break;
                    }
                }
            }
        }
    }
}

impl<K: Ord + Clone, V: Clone> Dictionary for BTree<K, V> {
    type Key = K;
    type Value = V;

    fn len(&self) -> usize {
        BTree::len(self)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        BTree::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        BTree::remove(self, key)
    }

    fn get_ref(&self, key: &K) -> Option<&V> {
        BTree::get_ref(self, key)
    }

    fn get(&self, key: &K) -> Option<V> {
        BTree::get(self, key)
    }

    fn range_iter<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        BTree::range_iter(self, range)
    }

    fn successor(&self, key: &K) -> Option<(K, V)> {
        BTree::successor(self, key)
    }

    fn predecessor(&self, key: &K) -> Option<(K, V)> {
        BTree::predecessor(self, key)
    }

    fn to_sorted_vec(&self) -> Vec<(K, V)> {
        BTree::to_sorted_vec(self)
    }

    fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (K, V)>, seed: u64) {
        BTree::bulk_load(self, pairs, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn empty_tree() {
        let t: BTree<u64, u64> = BTree::new(8);
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.range(&0, &10), vec![]);
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn tiny_fanout_rejected() {
        let _t: BTree<u64, u64> = BTree::new(2);
    }

    #[test]
    fn insert_and_get() {
        let mut t = BTree::new(8);
        for k in 0..1999u64 {
            assert_eq!(t.insert(k * 7 % 1999, k), None);
        }
        t.check_invariants();
        for k in 0..1999u64 {
            assert!(t.get(&k).is_some(), "missing key {k}");
        }
    }

    #[test]
    fn insert_replaces() {
        let mut t = BTree::new(8);
        assert_eq!(t.insert(5, 1), None);
        assert_eq!(t.insert(5, 2), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        for fanout in [4usize, 8, 32, 128] {
            let mut t: BTree<u64, u64> = BTree::new(fanout);
            let mut model = BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(fanout as u64);
            for step in 0..6000u64 {
                let key = rng.gen_range(0..1000);
                match rng.gen_range(0..10) {
                    0..=5 => assert_eq!(t.insert(key, step), model.insert(key, step)),
                    6..=8 => assert_eq!(t.remove(&key), model.remove(&key)),
                    _ => assert_eq!(t.get(&key), model.get(&key).copied()),
                }
                if step % 1500 == 0 {
                    t.check_invariants();
                }
            }
            t.check_invariants();
            assert_eq!(
                t.to_sorted_vec(),
                model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
                "fanout {fanout}"
            );
        }
    }

    #[test]
    fn range_matches_model() {
        let mut t = BTree::new(16);
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..3000 {
            let k = rng.gen_range(0..10_000u64);
            t.insert(k, k * 2);
            model.insert(k, k * 2);
        }
        for _ in 0..60 {
            let a = rng.gen_range(0..10_000u64);
            let b = rng.gen_range(a..10_000u64);
            let expected: Vec<(u64, u64)> = model.range(a..=b).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(t.range(&a, &b), expected);
        }
    }

    #[test]
    fn successor_predecessor() {
        let mut t = BTree::new(8);
        for k in (0..1000u64).step_by(10) {
            t.insert(k, k);
        }
        assert_eq!(t.successor(&0), Some((0, 0)));
        assert_eq!(t.successor(&1), Some((10, 10)));
        assert_eq!(t.successor(&991), None);
        assert_eq!(t.predecessor(&995), Some((990, 990)));
        assert_eq!(t.predecessor(&10), Some((10, 10)));
        assert_eq!(t.predecessor(&9), Some((0, 0)));
        // Check around internal-node boundaries too.
        for probe in (5..995u64).step_by(10) {
            assert_eq!(t.successor(&probe), Some((probe + 5, probe + 5)));
            assert_eq!(t.predecessor(&probe), Some((probe - 5, probe - 5)));
        }
    }

    #[test]
    fn height_is_logarithmic_in_fanout() {
        let mut wide: BTree<u64, u64> = BTree::new(128);
        let mut narrow: BTree<u64, u64> = BTree::new(4);
        for k in 0..20_000u64 {
            wide.insert(k, k);
            narrow.insert(k, k);
        }
        assert!(wide.height() <= 3, "wide height {}", wide.height());
        assert!(narrow.height() >= 6, "narrow height {}", narrow.height());
        // log_B N I/Os per search.
        wide.get(&12_345);
        assert!(wide.last_op_ios() <= 3);
    }

    #[test]
    fn delete_everything() {
        let mut t = BTree::new(8);
        let n = 3000u64;
        for k in 0..n {
            t.insert(k, k);
        }
        for k in (0..n).rev() {
            assert_eq!(t.remove(&k), Some(k), "key {k}");
        }
        assert!(t.is_empty());
        t.check_invariants();
        assert_eq!(t.remove(&5), None);
    }

    #[test]
    fn bulk_load_builds_a_valid_tree() {
        for fanout in [4usize, 8, 64] {
            for n in [0usize, 1, 3, 7, 8, 9, 63, 64, 65, 1000, 4096, 5000] {
                let mut t: BTree<u64, u64> = BTree::new(fanout);
                t.insert(999_999, 1); // pre-existing contents must be discarded
                let mut pairs: Vec<(u64, u64)> = (0..n as u64).rev().map(|k| (k, k * 2)).collect();
                pairs.push((0, 7)); // duplicate: last write wins
                t.bulk_load(pairs, 0);
                t.check_invariants();
                assert_eq!(t.len(), n.max(1), "fanout {fanout}, n {n}");
                assert_eq!(t.get(&0), Some(7));
                assert_eq!(t.get(&999_999), None);
                if n > 2 {
                    assert_eq!(t.get(&(n as u64 - 1)), Some((n as u64 - 1) * 2));
                    assert_eq!(t.successor(&1), Some((1, 2)));
                }
                // Still fully operational after the load.
                t.insert(u64::MAX, 1);
                t.remove(&0);
                t.check_invariants();
            }
        }
    }

    #[test]
    fn apply_batch_matches_per_op_structure() {
        use hi_common::batch::BatchOp;
        // A batch must leave exactly the per-op tree and count its removes
        // the same — across sequential, random and duplicate-heavy
        // batches, interleaved with removals.
        for fanout in [4usize, 16, 64] {
            let mut rng = StdRng::seed_from_u64(fanout as u64 ^ 0xBA7C4);
            let mut per_op: BTree<u64, u64> = BTree::new(fanout);
            let mut batched: BTree<u64, u64> = BTree::new(fanout);
            for round in 0..6 {
                let ops: Vec<BatchOp<u64, u64>> = (0..800)
                    .map(|i| {
                        let key = match round % 3 {
                            0 => (round * 1_000 + i) as u64, // sequential run
                            1 => rng.gen_range(0..5_000u64), // random
                            _ => rng.gen_range(0..64u64),    // hot duplicates
                        };
                        if rng.gen_bool(0.25) {
                            BatchOp::Remove(key)
                        } else {
                            BatchOp::Put(key, rng.gen())
                        }
                    })
                    .collect();
                let mut expected_removed = 0usize;
                for op in &ops {
                    match op {
                        BatchOp::Put(k, v) => {
                            per_op.insert(*k, *v);
                        }
                        BatchOp::Remove(k) => {
                            if per_op.remove(k).is_some() {
                                expected_removed += 1;
                            }
                        }
                    }
                }
                let removed = Dictionary::apply_batch(&mut batched, ops);
                assert_eq!(removed, expected_removed, "fanout {fanout} round {round}");
                assert_eq!(per_op.len(), batched.len());
                assert_eq!(per_op.to_sorted_vec(), batched.to_sorted_vec());
                batched.check_invariants();
            }
            // get_many agrees with per-key gets, in input order.
            let probes: Vec<u64> = (0..200).map(|_| rng.gen_range(0..6_000u64)).collect();
            let expected: Vec<Option<u64>> = probes.iter().map(|k| batched.get(k)).collect();
            assert_eq!(Dictionary::get_many(&batched, &probes), expected);
        }
    }

    #[test]
    fn io_accounting_tracks_height() {
        let mut t: BTree<u64, u64> = BTree::new(16);
        for k in 0..50_000u64 {
            t.insert(k, k);
        }
        let h = t.height() as u64;
        t.get(&25_000);
        assert_eq!(t.last_op_ios(), h, "search should read one node per level");
        assert!(t.total_ios() > 0);
    }
}

// Compile-time audit for the sharded service layer: the B-tree must be
// movable onto worker threads whenever its keys and values are.
#[cfg(test)]
mod send_sync_audit {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn btree_is_send_and_sync() {
        assert_send_sync::<BTree<u64, u64>>();
        assert_send_sync::<BTree<String, Vec<u8>>>();
    }
}
