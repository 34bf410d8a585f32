//! The external-memory skip-list engine.
//!
//! One engine implements all three §6 structures; they differ only in their
//! [`SkipParams`]:
//!
//! * [`ExternalSkipList::history_independent`] — the paper's structure:
//!   promotion probability `1/B^γ`, leaf arrays padded per Invariant 16 and
//!   packed into leaf nodes delimited by twice-promoted elements.
//! * [`ExternalSkipList::folklore_b`] — the folklore B-skip list (promotion
//!   `1/B`), the Lemma 15 baseline.
//! * [`ExternalSkipList::in_memory`] — a Pugh skip list run in external
//!   memory (promotion 1/2, one element per block).
//!
//! # Cost accounting
//!
//! Every operation records the number of block transfers it would incur in
//! the DAM model with a cold cache: the multi-level search path is charged
//! per level (the records scanned at that level, rounded up to blocks), the
//! leaf level is charged the padded size of the arrays or nodes it touches,
//! and structural rebuilds (array resize, array/node splits and merges) are
//! charged the padded size of every leaf node they rewrite. The benches read
//! the per-operation costs to reproduce Theorem 3 and Lemma 15.

use std::cmp::Ordering;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use hi_common::counters::SharedCounters;
use hi_common::rng::{DetRng, RngSource};
use hi_common::traits::{below_end_bound, cloned_bounds, normalize_pairs, Dictionary};
use io_sim::Tracer;

use crate::params::{LeafPad, SkipParams};

/// One stored element.
#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    level: u8,
}

/// A leaf array: a maximal run of elements none of which (except possibly the
/// first) is promoted to level 1.
#[derive(Debug, Clone)]
struct LeafArray<K, V> {
    entries: Vec<Entry<K, V>>,
    pad: LeafPad,
}

impl<K, V> LeafArray<K, V> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Aligns the in-memory capacity with the drawn padded size (the space
    /// the array occupies on simulated disk), so inserts into this array
    /// cannot reallocate before the next pad redraw.
    fn reserve_pad(&mut self) {
        let want = self.pad.padded();
        if self.entries.capacity() < want {
            self.entries.reserve_exact(want - self.entries.len());
        }
    }
}

/// A leaf node: a group of consecutive leaf arrays stored contiguously on
/// disk. With leaf-node grouping enabled a node is delimited by
/// twice-promoted elements; without it every array is its own node.
#[derive(Debug, Clone)]
struct LeafNode<K, V> {
    arrays: Vec<LeafArray<K, V>>,
}

impl<K, V> LeafNode<K, V> {
    fn first_key(&self) -> &K {
        &self.arrays[0].entries[0].key
    }

    fn padded_records(&self) -> usize {
        self.arrays.iter().map(|a| a.pad.padded()).sum()
    }

    fn element_count(&self) -> usize {
        self.arrays.iter().map(LeafArray::len).sum()
    }
}

/// Location of a key (or of its insertion point) in the leaf level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Position {
    node: usize,
    array: usize,
    entry: usize,
    found: bool,
}

/// An external-memory skip list over ordered keys.
#[derive(Debug)]
pub struct ExternalSkipList<K: Ord + Clone, V: Clone> {
    nodes: Vec<LeafNode<K, V>>,
    /// `levels[i]` (for `i ≥ 1`) holds the keys promoted to level `i`, in
    /// sorted order. `levels[0]` is unused.
    levels: Vec<Vec<K>>,
    len: usize,
    params: SkipParams,
    rng: DetRng,
    counters: SharedCounters,
    tracer: Tracer,
    // Relaxed atomics, not `Cell`s: the I/O ledger must not stop the list
    // from being `Sync` (shared readers on the sharded service layer's
    // worker threads all charge leaf touches through `&self`).
    total_ios: AtomicU64,
    last_op_ios: AtomicU64,
}

impl<K: Ord + Clone, V: Clone> Clone for ExternalSkipList<K, V> {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            levels: self.levels.clone(),
            len: self.len,
            params: self.params,
            rng: self.rng.clone(),
            counters: self.counters.clone(),
            tracer: self.tracer.clone(),
            total_ios: AtomicU64::new(self.total_ios.load(AtomicOrdering::Relaxed)),
            last_op_ios: AtomicU64::new(self.last_op_ios.load(AtomicOrdering::Relaxed)),
        }
    }
}

impl<K: Ord + Clone, V: Clone> ExternalSkipList<K, V> {
    /// The paper's history-independent external-memory skip list
    /// (Theorem 3) with block size `block_elems` elements and trade-off
    /// parameter `epsilon`.
    pub fn history_independent(block_elems: usize, epsilon: f64, seed: u64) -> Self {
        Self::with_params(SkipParams::history_independent(block_elems, epsilon), seed)
    }

    /// The folklore B-skip list (promotion probability `1/B`), the
    /// Lemma 15 baseline.
    pub fn folklore_b(block_elems: usize, seed: u64) -> Self {
        Self::with_params(SkipParams::folklore_b(block_elems), seed)
    }

    /// An in-memory (promotion 1/2) skip list run in external memory: every
    /// node access costs one I/O.
    pub fn in_memory(seed: u64) -> Self {
        Self::with_params(SkipParams::in_memory(), seed)
    }

    /// Builds an empty skip list with explicit parameters.
    pub fn with_params(params: SkipParams, seed: u64) -> Self {
        Self::with_instrumentation(params, seed, SharedCounters::new(), Tracer::disabled())
    }

    /// Builds an empty skip list with explicit parameters, counters and I/O
    /// tracer — the uniform instrumentation hook used by the dictionary
    /// builder. The list computes its own DAM cost per operation and reports
    /// it into the tracer via [`Tracer::charge`].
    pub fn with_instrumentation(
        params: SkipParams,
        seed: u64,
        counters: SharedCounters,
        tracer: Tracer,
    ) -> Self {
        let mut source = RngSource::from_seed(seed);
        Self {
            nodes: Vec::new(),
            levels: vec![Vec::new()],
            len: 0,
            params,
            rng: source.split("skiplist"),
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

    /// The configuration in use.
    pub fn params(&self) -> SkipParams {
        self.params
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block transfers charged to the most recent operation.
    pub fn last_op_ios(&self) -> u64 {
        self.last_op_ios.load(AtomicOrdering::Relaxed)
    }

    /// Block transfers charged since construction.
    pub fn total_ios(&self) -> u64 {
        self.total_ios.load(AtomicOrdering::Relaxed)
    }

    /// The shared operation counters.
    pub fn counters(&self) -> &SharedCounters {
        &self.counters
    }

    /// Highest occupied level.
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// Total padded leaf records plus promoted keys — the structure's
    /// simulated disk footprint in records (Lemma 22's `Θ(N)` space).
    pub fn space_records(&self) -> usize {
        let leaf: usize = self.nodes.iter().map(LeafNode::padded_records).sum();
        let upper: usize = self.levels.iter().map(Vec::len).sum();
        leaf + upper
    }

    /// Number of leaf nodes currently on disk.
    pub fn leaf_node_count(&self) -> usize {
        self.nodes.len()
    }

    fn charge(&self, ios: u64) -> u64 {
        self.total_ios.fetch_add(ios, AtomicOrdering::Relaxed);
        self.tracer.charge(ios, 0);
        ios
    }

    fn finish_op(&self, ios: u64) {
        self.last_op_ios.store(ios, AtomicOrdering::Relaxed);
        self.charge(ios);
    }

    /// Adds `ios` to the running operation (lazy traversals charge node by
    /// node instead of batching a [`Self::finish_op`]).
    fn charge_append(&self, ios: u64) {
        self.last_op_ios.fetch_add(ios, AtomicOrdering::Relaxed);
        self.charge(ios);
    }

    // ------------------------------------------------------------------
    // Search-path cost and location
    // ------------------------------------------------------------------

    /// DAM cost of the non-leaf portion of a search for `key`: at every
    /// level the path scans the records between its entry point and the
    /// predecessor of `key` at that level.
    fn upper_search_cost(&self, key: &K) -> u64 {
        let mut ios = 0u64;
        let mut entry_key: Option<&K> = None;
        for level in (1..self.levels.len()).rev() {
            let keys = &self.levels[level];
            if keys.is_empty() {
                continue;
            }
            let start = match entry_key {
                Some(k) => keys.partition_point(|x| x < k),
                None => 0,
            };
            let end = keys.partition_point(|x| x <= key);
            let scanned = end.saturating_sub(start) + 1;
            ios += self.params.scan_cost(scanned).max(1);
            if end > 0 {
                entry_key = Some(&keys[end - 1]);
            }
        }
        ios
    }

    /// Finds the position of `key` (or its insertion point).
    fn locate(&self, key: &K) -> Option<Position> {
        if self.nodes.is_empty() {
            return None;
        }
        // Node whose first key is the greatest ≤ key (or node 0).
        let node_idx = self
            .nodes
            .partition_point(|n| n.first_key() <= key)
            .saturating_sub(1);
        let node = &self.nodes[node_idx];
        let array_idx = node
            .arrays
            .partition_point(|a| a.entries[0].key <= *key)
            .saturating_sub(1);
        let array = &node.arrays[array_idx];
        match array.entries.binary_search_by(|e| e.key.cmp(key)) {
            Ok(entry) => Some(Position {
                node: node_idx,
                array: array_idx,
                entry,
                found: true,
            }),
            Err(entry) => Some(Position {
                node: node_idx,
                array: array_idx,
                entry,
                found: false,
            }),
        }
    }

    /// Cost of reading the leaf array at `pos`.
    fn leaf_read_cost(&self, pos: Position) -> u64 {
        let pad = self.nodes[pos.node].arrays[pos.array].pad.padded();
        self.params.scan_cost(pad).max(1)
    }

    /// Cost of rewriting the whole leaf node `node`.
    fn node_rebuild_cost(&self, node: usize) -> u64 {
        self.params
            .scan_cost(self.nodes[node].padded_records())
            .max(1)
    }

    // ------------------------------------------------------------------
    // Level bookkeeping
    // ------------------------------------------------------------------

    fn levels_insert(&mut self, key: &K, level: u8) {
        for l in 1..=level as usize {
            if self.levels.len() <= l {
                self.levels.push(Vec::new());
            }
            let keys = &mut self.levels[l];
            let idx = keys.partition_point(|x| x < key);
            keys.insert(idx, key.clone());
        }
    }

    fn levels_remove(&mut self, key: &K, level: u8) {
        for l in 1..=level as usize {
            let keys = &mut self.levels[l];
            if let Ok(idx) = keys.binary_search(key) {
                keys.remove(idx);
            }
        }
        while self.levels.len() > 1 && self.levels.last().is_some_and(Vec::is_empty) {
            self.levels.pop();
        }
    }

    // ------------------------------------------------------------------
    // Mutating operations
    // ------------------------------------------------------------------

    /// Inserts a key–value pair, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let pos = self.locate(&key);
        self.counters.add_insert();
        let mut ios = self.upper_search_cost(&key);
        // Empty structure: create the first node.
        let Some(pos) = pos else {
            let level = self.params.draw_level(&mut self.rng);
            let pad = LeafPad::draw(1, self.params.min_pad, &mut self.rng);
            self.levels_insert(&key, level);
            let mut entries = Vec::with_capacity(pad.padded());
            entries.push(Entry { key, value, level });
            self.nodes.push(LeafNode {
                arrays: vec![LeafArray { entries, pad }],
            });
            self.len = 1;
            ios += self.node_rebuild_cost(0);
            self.finish_op(ios);
            return None;
        };
        ios += self.leaf_read_cost(pos);
        if pos.found {
            let old = std::mem::replace(
                &mut self.nodes[pos.node].arrays[pos.array].entries[pos.entry].value,
                value,
            );
            ios += self.leaf_read_cost(pos); // write the array back
            self.finish_op(ios);
            return Some(old);
        }
        let level = self.params.draw_level(&mut self.rng);
        if level >= 1 {
            // Only promoted keys are copied into the upper-level index; the
            // common (unpromoted) insert moves the key straight into the
            // leaf array without a single clone.
            self.levels_insert(&key, level);
        }
        self.nodes[pos.node].arrays[pos.array]
            .entries
            .insert(pos.entry, Entry { key, value, level });
        self.len += 1;

        let node_split_level: usize = if self.params.group_leaf_nodes { 2 } else { 1 };
        let mut rebuilt_nodes: Vec<usize> = Vec::new();

        if pos.entry == 0 {
            // `locate` only returns an insertion point at entry 0 when the
            // new key precedes every stored key, so this is a new global
            // minimum sitting at the head of array 0 of node 0. The displaced
            // old head may itself be promoted; if so, restore its array (and
            // possibly node) boundary right after the newcomer.
            debug_assert!(pos.node == 0 && pos.array == 0);
            let old_head_level = self.nodes[0].arrays[0].entries[1].level;
            if old_head_level >= 1 {
                let tail: Vec<Entry<K, V>> = self.nodes[0].arrays[0].entries.split_off(1);
                self.nodes[0].arrays[0].pad = LeafPad::draw(1, self.params.min_pad, &mut self.rng);
                self.nodes[0].arrays[0].reserve_pad();
                let tail_pad = LeafPad::draw(tail.len(), self.params.min_pad, &mut self.rng);
                let mut tail_array = LeafArray {
                    entries: tail,
                    pad: tail_pad,
                };
                tail_array.reserve_pad();
                self.nodes[0].arrays.insert(1, tail_array);
                rebuilt_nodes.push(0);
                if old_head_level as usize >= node_split_level {
                    let moved: Vec<LeafArray<K, V>> = self.nodes[0].arrays.split_off(1);
                    self.nodes.insert(1, LeafNode { arrays: moved });
                    rebuilt_nodes.push(1);
                }
            } else {
                let n = self.nodes[0].arrays[0].len();
                let redraw =
                    self.nodes[0].arrays[0]
                        .pad
                        .update(n, self.params.min_pad, &mut self.rng);
                if redraw {
                    self.nodes[0].arrays[0].reserve_pad();
                    rebuilt_nodes.push(0);
                } else {
                    ios += self.leaf_read_cost(pos); // write the array back
                }
            }
        } else if level >= 1 {
            // The new element starts a new leaf array: split at `pos.entry`.
            let tail: Vec<Entry<K, V>> = self.nodes[pos.node].arrays[pos.array]
                .entries
                .split_off(pos.entry);
            let head_len = self.nodes[pos.node].arrays[pos.array].len();
            let head_pad = LeafPad::draw(head_len, self.params.min_pad, &mut self.rng);
            self.nodes[pos.node].arrays[pos.array].pad = head_pad;
            self.nodes[pos.node].arrays[pos.array].reserve_pad();
            let tail_pad = LeafPad::draw(tail.len(), self.params.min_pad, &mut self.rng);
            let mut tail_array = LeafArray {
                entries: tail,
                pad: tail_pad,
            };
            tail_array.reserve_pad();
            self.nodes[pos.node]
                .arrays
                .insert(pos.array + 1, tail_array);
            rebuilt_nodes.push(pos.node);
            if level as usize >= node_split_level {
                // The new array (and everything after it) starts a new node.
                let moved: Vec<LeafArray<K, V>> =
                    self.nodes[pos.node].arrays.split_off(pos.array + 1);
                self.nodes.insert(pos.node + 1, LeafNode { arrays: moved });
                rebuilt_nodes.push(pos.node + 1);
            }
        } else {
            // Unpromoted element: only the array's padding may change.
            let n = self.nodes[pos.node].arrays[pos.array].len();
            let redraw = self.nodes[pos.node].arrays[pos.array].pad.update(
                n,
                self.params.min_pad,
                &mut self.rng,
            );
            if redraw {
                self.nodes[pos.node].arrays[pos.array].reserve_pad();
                rebuilt_nodes.push(pos.node);
            } else {
                ios += self.leaf_read_cost(pos); // write the array back
            }
        }
        rebuilt_nodes.sort_unstable();
        rebuilt_nodes.dedup();
        for node in rebuilt_nodes {
            ios += self.node_rebuild_cost(node);
            self.counters
                .add_rebuild(self.nodes[node].padded_records() as u64);
        }
        self.finish_op(ios);
        None
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let pos = self.locate(key);
        self.counters.add_delete();
        let mut ios = self.upper_search_cost(key);
        let Some(pos) = pos else {
            self.finish_op(ios);
            return None;
        };
        ios += self.leaf_read_cost(pos);
        if !pos.found {
            self.finish_op(ios);
            return None;
        }
        let entry = self.nodes[pos.node].arrays[pos.array]
            .entries
            .remove(pos.entry);
        self.len -= 1;
        self.levels_remove(key, entry.level);

        let mut rebuilt_nodes: Vec<usize> = Vec::new();
        let was_array_head = pos.entry == 0 && entry.level >= 1;
        let node_boundary_level = if self.params.group_leaf_nodes { 2 } else { 1 };

        if was_array_head && (pos.array > 0 || pos.node > 0) {
            // The deleted element delimited an array: merge its remains into
            // the predecessor array (and, if it also delimited a node, fold
            // the rest of the node into the predecessor node).
            if pos.array > 0 {
                let remains = self.nodes[pos.node].arrays.remove(pos.array).entries;
                let prev = &mut self.nodes[pos.node].arrays[pos.array - 1];
                prev.entries.extend(remains);
                let n = prev.len();
                prev.pad = LeafPad::draw(n, self.params.min_pad, &mut self.rng);
                prev.reserve_pad();
                rebuilt_nodes.push(pos.node);
            } else {
                // First array of a non-first node: its head had level ≥
                // node_boundary_level. Merge into the previous node.
                debug_assert!(entry.level as usize >= node_boundary_level);
                let mut node = self.nodes.remove(pos.node);
                let prev_node = &mut self.nodes[pos.node - 1];
                // The headless first array joins the previous node's last
                // array; the other arrays are appended whole.
                let first = node.arrays.remove(0);
                #[expect(
                    clippy::expect_used,
                    reason = "node arrays are never empty: merges append and splits leave at least one array per node"
                )]
                let last = prev_node
                    .arrays
                    .last_mut()
                    .expect("nodes always hold at least one array");
                last.entries.extend(first.entries);
                let n = last.len();
                last.pad = LeafPad::draw(n, self.params.min_pad, &mut self.rng);
                last.reserve_pad();
                prev_node.arrays.extend(node.arrays);
                rebuilt_nodes.push(pos.node - 1);
            }
        } else {
            // Ordinary element (or the global head): the array shrinks in
            // place; drop it if it became empty.
            if self.nodes[pos.node].arrays[pos.array].entries.is_empty() {
                self.nodes[pos.node].arrays.remove(pos.array);
                if self.nodes[pos.node].arrays.is_empty() {
                    self.nodes.remove(pos.node);
                } else {
                    rebuilt_nodes.push(pos.node);
                }
            } else {
                let n = self.nodes[pos.node].arrays[pos.array].len();
                let redraw = self.nodes[pos.node].arrays[pos.array].pad.update(
                    n,
                    self.params.min_pad,
                    &mut self.rng,
                );
                if redraw {
                    rebuilt_nodes.push(pos.node);
                } else {
                    ios += self.leaf_read_cost(pos); // write back
                }
            }
        }
        rebuilt_nodes.sort_unstable();
        rebuilt_nodes.dedup();
        for node in rebuilt_nodes {
            if node < self.nodes.len() {
                ios += self.node_rebuild_cost(node);
                self.counters
                    .add_rebuild(self.nodes[node].padded_records() as u64);
            }
        }
        self.finish_op(ios);
        Some(entry.value)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Looks up a key, cloning the value.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_ref(key).cloned()
    }

    /// Borrows the value stored under `key` without copying it: one
    /// multi-level search, zero allocations.
    pub fn get_ref(&self, key: &K) -> Option<&V> {
        self.counters.add_query();
        let mut ios = self.upper_search_cost(key);
        let result = match self.locate(key) {
            Some(pos) => {
                ios += self.leaf_read_cost(pos);
                if pos.found {
                    Some(&self.nodes[pos.node].arrays[pos.array].entries[pos.entry].value)
                } else {
                    None
                }
            }
            None => None,
        };
        self.finish_op(ios);
        result
    }

    /// Lazily yields every pair whose key lies in `range`, in ascending key
    /// order: one multi-level search to the first matching leaf array, then
    /// a node-by-node scan, with no per-query allocation. Each leaf node is
    /// charged its padded size as the iterator enters it (the paper packs a
    /// node's leaf arrays contiguously on disk).
    pub fn range_iter<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        self.counters.add_query();
        self.last_op_ios.store(0, AtomicOrdering::Relaxed);
        let (start, end) = cloned_bounds(&range);
        SkipIter::seek(self, &start).take_while(move |&(k, _)| below_end_bound(k, &end))
    }

    /// Borrows every pair in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.range_iter(..)
    }

    /// Replaces the entire contents with `pairs`, drawing **fresh coins**
    /// from `seed`: every element's promotion level and every leaf array's
    /// padded size are re-drawn from the seed-derived stream, in key order,
    /// so the resulting structure is a pure function of *(contents, seed)* —
    /// independent of arrival order (the input is normalised, last write
    /// wins) and of everything the list held before. Cost is `O(n log n)`
    /// for the sort plus `O(n)` construction, against one multi-level search
    /// and possible node rebuild per element for incremental insertion.
    pub fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (K, V)>, seed: u64) {
        let pairs = normalize_pairs(pairs.into_iter().collect());
        let mut source = RngSource::from_seed(seed);
        self.rng = source.split("skiplist");
        self.nodes.clear();
        self.levels = vec![Vec::new()];
        self.len = pairs.len();
        let node_boundary = if self.params.group_leaf_nodes { 2 } else { 1 };
        // Pass 1: draw a level per element, in key order.
        let entries: Vec<Entry<K, V>> = pairs
            .into_iter()
            .map(|(key, value)| Entry {
                key,
                value,
                level: self.params.draw_level(&mut self.rng),
            })
            .collect();
        // Pass 2: group into leaf arrays (cut before each promoted element)
        // and leaf nodes (cut before each ≥ node_boundary element), drawing
        // each array's pad as it is sealed — the same draw order an
        // element-by-element build would use for these boundaries.
        let mut current_array: Vec<Entry<K, V>> = Vec::new();
        let mut current_node: Vec<LeafArray<K, V>> = Vec::new();
        for entry in entries {
            let new_array = !current_array.is_empty() && entry.level >= 1;
            let new_node = new_array && entry.level as usize >= node_boundary;
            if new_array {
                let pad = LeafPad::draw(current_array.len(), self.params.min_pad, &mut self.rng);
                current_node.push(LeafArray {
                    entries: std::mem::take(&mut current_array),
                    pad,
                });
            }
            if new_node {
                self.nodes.push(LeafNode {
                    arrays: std::mem::take(&mut current_node),
                });
            }
            self.levels_insert(&entry.key, entry.level);
            current_array.push(entry);
        }
        if !current_array.is_empty() {
            let pad = LeafPad::draw(current_array.len(), self.params.min_pad, &mut self.rng);
            current_node.push(LeafArray {
                entries: current_array,
                pad,
            });
        }
        if !current_node.is_empty() {
            self.nodes.push(LeafNode {
                arrays: current_node,
            });
        }
        // Charge one sequential write of the whole structure.
        let ios: u64 = (0..self.nodes.len())
            .map(|n| self.node_rebuild_cost(n))
            .sum();
        self.counters.add_rebuild(
            self.nodes
                .iter()
                .map(LeafNode::padded_records)
                .sum::<usize>() as u64,
        );
        self.finish_op(ios);
    }

    /// Smallest key ≥ `key`, with its value.
    pub fn successor(&self, key: &K) -> Option<(K, V)> {
        let pos = self.locate(key)?;
        if pos.found {
            let e = &self.nodes[pos.node].arrays[pos.array].entries[pos.entry];
            return Some((e.key.clone(), e.value.clone()));
        }
        // Walk forward from the insertion point.
        let mut node = pos.node;
        let mut array = pos.array;
        let mut entry = pos.entry;
        loop {
            let arrays = &self.nodes[node].arrays;
            if entry < arrays[array].entries.len() {
                let e = &arrays[array].entries[entry];
                if e.key >= *key {
                    return Some((e.key.clone(), e.value.clone()));
                }
                entry += 1;
            } else if array + 1 < arrays.len() {
                array += 1;
                entry = 0;
            } else if node + 1 < self.nodes.len() {
                node += 1;
                array = 0;
                entry = 0;
            } else {
                return None;
            }
        }
    }

    /// Largest key ≤ `key`, with its value.
    pub fn predecessor(&self, key: &K) -> Option<(K, V)> {
        let pos = self.locate(key)?;
        if pos.found {
            let e = &self.nodes[pos.node].arrays[pos.array].entries[pos.entry];
            return Some((e.key.clone(), e.value.clone()));
        }
        // The insertion point's predecessor is the previous entry.
        let (mut node, mut array, entry) = (pos.node, pos.array, pos.entry);
        if entry > 0 {
            let e = &self.nodes[node].arrays[array].entries[entry - 1];
            if e.key <= *key {
                return Some((e.key.clone(), e.value.clone()));
            }
        }
        // Step backwards across array / node boundaries.
        loop {
            if array > 0 {
                array -= 1;
            } else if node > 0 {
                node -= 1;
                array = self.nodes[node].arrays.len() - 1;
            } else {
                return None;
            }
            if let Some(e) = self.nodes[node].arrays[array].entries.last() {
                if e.key <= *key {
                    return Some((e.key.clone(), e.value.clone()));
                }
            }
        }
    }

    /// Collects the whole dictionary in ascending key order.
    pub fn to_sorted_vec(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        for node in &self.nodes {
            for array in &node.arrays {
                for e in &array.entries {
                    out.push((e.key.clone(), e.value.clone()));
                }
            }
        }
        out
    }

    /// Per-leaf-array element counts (used by the distributional tests).
    pub fn leaf_array_lengths(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .flat_map(|n| n.arrays.iter().map(LeafArray::len))
            .collect()
    }

    /// Verifies the structural invariants: global sortedness, array and node
    /// boundaries aligned with promotion levels, legal padded sizes, and the
    /// `levels` index consistent with the entries. Intended for tests.
    pub fn check_invariants(&self) {
        let mut prev_key: Option<&K> = None;
        let mut global_first = true;
        let mut count = 0usize;
        let node_boundary_level = if self.params.group_leaf_nodes { 2 } else { 1 };
        for node in &self.nodes {
            assert!(!node.arrays.is_empty(), "empty leaf node");
            assert!(node.element_count() > 0, "leaf node with no elements");
            for (ai, array) in node.arrays.iter().enumerate() {
                assert!(!array.entries.is_empty(), "empty leaf array");
                assert!(
                    array.pad.is_legal(array.len(), self.params.min_pad),
                    "illegal pad {} for {} elements",
                    array.pad.padded(),
                    array.len()
                );
                for (ei, e) in array.entries.iter().enumerate() {
                    if let Some(p) = prev_key {
                        assert!(
                            p < &e.key,
                            "keys out of order or duplicated across the structure"
                        );
                    }
                    prev_key = Some(&e.key);
                    count += 1;
                    let is_array_head = ei == 0;
                    let is_node_head = ei == 0 && ai == 0;
                    if !global_first {
                        if is_node_head {
                            assert!(
                                e.level as usize >= node_boundary_level,
                                "node head must be promoted {node_boundary_level}×"
                            );
                        } else if is_array_head {
                            assert!(e.level >= 1, "array head must be promoted");
                        } else {
                            assert!(e.level == 0, "promoted element not at an array head");
                        }
                    }
                    // `levels` agrees with the entry's level.
                    for l in 1..self.levels.len() {
                        let present = self.levels[l].binary_search(&e.key).is_ok();
                        assert_eq!(
                            present,
                            (e.level as usize) >= l,
                            "levels index inconsistent at level {l}"
                        );
                    }
                    global_first = false;
                }
            }
        }
        assert_eq!(count, self.len, "stored element count disagrees with len");
    }
}

/// Lazy in-order traversal of an [`ExternalSkipList`]'s leaf level.
///
/// Walks the `(node, array, entry)` index triple forward; each leaf node is
/// charged its padded size to the list's I/O ledger when entered, mirroring
/// the eager range query's accounting.
struct SkipIter<'a, K: Ord + Clone, V: Clone> {
    list: &'a ExternalSkipList<K, V>,
    node: usize,
    array: usize,
    entry: usize,
}

impl<'a, K: Ord + Clone, V: Clone> SkipIter<'a, K, V> {
    /// Positions the iterator at the first entry satisfying `start`.
    fn seek(list: &'a ExternalSkipList<K, V>, start: &Bound<K>) -> Self {
        let (node, array, entry) = match start {
            Bound::Unbounded => (0, 0, 0),
            Bound::Included(k) | Bound::Excluded(k) => {
                list.charge_append(list.upper_search_cost(k));
                match list.locate(k) {
                    Some(pos) => {
                        let skip_match = pos.found && matches!(start, Bound::Excluded(_));
                        (pos.node, pos.array, pos.entry + usize::from(skip_match))
                    }
                    None => (list.nodes.len(), 0, 0),
                }
            }
        };
        if node < list.nodes.len() {
            list.charge_append(list.node_rebuild_cost(node));
        }
        Self {
            list,
            node,
            array,
            entry,
        }
    }
}

impl<'a, K: Ord + Clone, V: Clone> Iterator for SkipIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            let node = self.list.nodes.get(self.node)?;
            if self.array >= node.arrays.len() {
                self.node += 1;
                self.array = 0;
                self.entry = 0;
                if self.node < self.list.nodes.len() {
                    self.list
                        .charge_append(self.list.node_rebuild_cost(self.node));
                }
                continue;
            }
            let entries = &node.arrays[self.array].entries;
            if self.entry >= entries.len() {
                self.array += 1;
                self.entry = 0;
                continue;
            }
            let e = &entries[self.entry];
            self.entry += 1;
            return Some((&e.key, &e.value));
        }
    }
}

impl<K: Ord + Clone, V: Clone> Dictionary for ExternalSkipList<K, V> {
    type Key = K;
    type Value = V;

    fn len(&self) -> usize {
        ExternalSkipList::len(self)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        ExternalSkipList::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        ExternalSkipList::remove(self, key)
    }

    fn get_ref(&self, key: &K) -> Option<&V> {
        ExternalSkipList::get_ref(self, key)
    }

    fn get(&self, key: &K) -> Option<V> {
        ExternalSkipList::get(self, key)
    }

    fn range_iter<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        ExternalSkipList::range_iter(self, range)
    }

    fn successor(&self, key: &K) -> Option<(K, V)> {
        ExternalSkipList::successor(self, key)
    }

    fn predecessor(&self, key: &K) -> Option<(K, V)> {
        ExternalSkipList::predecessor(self, key)
    }

    fn to_sorted_vec(&self) -> Vec<(K, V)> {
        ExternalSkipList::to_sorted_vec(self)
    }

    fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (K, V)>, seed: u64) {
        ExternalSkipList::bulk_load(self, pairs, seed)
    }
}

/// Ordering helper kept for documentation symmetry with the paper's Figure 3
/// (unused variants are future-proofing for custom comparators).
#[allow(dead_code, reason = "kept for symmetry with the paper's Figure 3")]
fn compare<K: Ord>(a: &K, b: &K) -> Ordering {
    a.cmp(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn hi_list(seed: u64) -> ExternalSkipList<u64, u64> {
        ExternalSkipList::history_independent(16, 0.5, seed)
    }

    #[test]
    fn empty_list() {
        let l = hi_list(0);
        assert!(l.is_empty());
        assert_eq!(l.get(&5), None);
        assert_eq!(l.range(&0, &100), vec![]);
        assert_eq!(l.successor(&3), None);
        assert_eq!(l.predecessor(&3), None);
        l.check_invariants();
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut l = hi_list(1);
        for k in 0..500u64 {
            assert_eq!(l.insert(k * 3, k), None);
        }
        assert_eq!(l.len(), 500);
        for k in 0..500u64 {
            assert_eq!(l.get(&(k * 3)), Some(k));
            assert_eq!(l.get(&(k * 3 + 1)), None);
        }
        l.check_invariants();
    }

    #[test]
    fn insert_replaces_existing() {
        let mut l = hi_list(2);
        assert_eq!(l.insert(7, 1), None);
        assert_eq!(l.insert(7, 2), Some(1));
        assert_eq!(l.len(), 1);
        assert_eq!(l.get(&7), Some(2));
    }

    #[test]
    fn remove_works() {
        let mut l = hi_list(3);
        for k in 0..300u64 {
            l.insert(k, k);
        }
        for k in (0..300u64).step_by(3) {
            assert_eq!(l.remove(&k), Some(k));
        }
        assert_eq!(l.len(), 200);
        for k in 0..300u64 {
            let expected = if k % 3 == 0 { None } else { Some(k) };
            assert_eq!(l.get(&k), expected, "key {k}");
        }
        assert_eq!(l.remove(&0), None);
        l.check_invariants();
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        for (variant, mut list) in [
            (
                "hi",
                ExternalSkipList::<u64, u64>::history_independent(16, 0.5, 11),
            ),
            ("folklore", ExternalSkipList::<u64, u64>::folklore_b(16, 12)),
            ("memory", ExternalSkipList::<u64, u64>::in_memory(13)),
        ] {
            let mut rng = StdRng::seed_from_u64(100);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for step in 0..4000u64 {
                let key = rng.gen_range(0..800);
                match rng.gen_range(0..10) {
                    0..=5 => {
                        assert_eq!(
                            list.insert(key, step),
                            model.insert(key, step),
                            "{variant} insert at step {step}"
                        );
                    }
                    6..=8 => {
                        assert_eq!(
                            list.remove(&key),
                            model.remove(&key),
                            "{variant} remove at step {step}"
                        );
                    }
                    _ => {
                        assert_eq!(
                            list.get(&key),
                            model.get(&key).copied(),
                            "{variant} get at step {step}"
                        );
                    }
                }
                if step % 1000 == 0 {
                    list.check_invariants();
                }
            }
            list.check_invariants();
            let got = list.to_sorted_vec();
            let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expected, "{variant} final contents");
        }
    }

    #[test]
    fn range_queries_match_model() {
        let mut l = hi_list(21);
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..2000 {
            let k = rng.gen_range(0..5000u64);
            l.insert(k, k * 2);
            model.insert(k, k * 2);
        }
        for _ in 0..50 {
            let a = rng.gen_range(0..5000u64);
            let b = rng.gen_range(a..5000u64);
            let got = l.range(&a, &b);
            let expected: Vec<(u64, u64)> = model.range(a..=b).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn successor_and_predecessor() {
        let mut l = hi_list(31);
        for k in (10..100u64).step_by(10) {
            l.insert(k, k);
        }
        assert_eq!(l.successor(&10), Some((10, 10)));
        assert_eq!(l.successor(&11), Some((20, 20)));
        assert_eq!(l.successor(&95), None);
        assert_eq!(l.predecessor(&10), Some((10, 10)));
        assert_eq!(l.predecessor(&19), Some((10, 10)));
        assert_eq!(l.predecessor(&9), None);
        assert_eq!(l.predecessor(&1000), Some((90, 90)));
    }

    #[test]
    fn io_costs_are_recorded() {
        let mut l = hi_list(41);
        for k in 0..1000u64 {
            l.insert(k, k);
        }
        assert!(l.total_ios() > 0);
        let before = l.total_ios();
        l.get(&500);
        assert!(l.last_op_ios() >= 1);
        assert_eq!(l.total_ios(), before + l.last_op_ios());
    }

    #[test]
    fn hi_searches_are_cheaper_than_in_memory() {
        // Theorem 3 vs an in-memory skip list on disk: with B = 64 the HI
        // structure should need far fewer I/Os per search.
        let n = 5000u64;
        let mut hi = ExternalSkipList::<u64, u64>::history_independent(64, 0.5, 51);
        let mut mem = ExternalSkipList::<u64, u64>::in_memory(52);
        for k in 0..n {
            hi.insert(k, k);
            mem.insert(k, k);
        }
        let mut hi_cost = 0u64;
        let mut mem_cost = 0u64;
        for k in (0..n).step_by(97) {
            hi.get(&k);
            hi_cost += hi.last_op_ios();
            mem.get(&k);
            mem_cost += mem.last_op_ios();
        }
        assert!(
            hi_cost * 2 < mem_cost,
            "HI searches ({hi_cost}) should be far cheaper than in-memory-on-disk ({mem_cost})"
        );
    }

    #[test]
    fn space_is_linear() {
        let mut l = hi_list(61);
        let n = 4000u64;
        for k in 0..n {
            l.insert(k, k);
        }
        let records = l.space_records();
        assert!(records >= n as usize);
        assert!(
            records <= 8 * n as usize,
            "space {records} not linear in N = {n}"
        );
    }

    #[test]
    fn leaf_arrays_respect_min_pad() {
        let mut l = hi_list(71);
        for k in 0..2000u64 {
            l.insert(k, k);
        }
        let min_pad = l.params().min_pad;
        for node in &l.nodes {
            for array in &node.arrays {
                assert!(array.pad.padded() >= min_pad);
                assert!(array.pad.padded() >= array.len());
            }
        }
    }

    #[test]
    fn height_is_logarithmic() {
        let mut l = ExternalSkipList::<u64, u64>::history_independent(64, 0.5, 81);
        for k in 0..20_000u64 {
            l.insert(k, k);
        }
        // log base B^γ (=~ 23) of 20 000 is ~3.2; allow generous slack for
        // the whp bound.
        assert!(l.height() <= 10, "height {} too large", l.height());
    }

    #[test]
    fn delete_everything_leaves_empty_structure() {
        let mut l = hi_list(91);
        for k in 0..500u64 {
            l.insert(k, k);
        }
        for k in 0..500u64 {
            assert_eq!(l.remove(&k), Some(k));
        }
        assert!(l.is_empty());
        assert_eq!(l.leaf_node_count(), 0);
        assert_eq!(l.height(), 0);
        l.check_invariants();
        // Structure remains usable.
        l.insert(1, 1);
        assert_eq!(l.get(&1), Some(1));
    }

    #[test]
    fn bulk_load_builds_a_valid_structure() {
        for (name, mut l) in [
            (
                "hi",
                ExternalSkipList::<u64, u64>::history_independent(16, 0.5, 1),
            ),
            ("folk", ExternalSkipList::<u64, u64>::folklore_b(16, 2)),
            ("mem", ExternalSkipList::<u64, u64>::in_memory(3)),
        ] {
            // Unsorted input with a duplicate: last write wins.
            let mut pairs: Vec<(u64, u64)> = (0..800u64).rev().map(|k| (k, k)).collect();
            pairs.push((5, 999));
            l.bulk_load(pairs, 0xB17);
            assert_eq!(l.len(), 800, "{name}");
            assert_eq!(l.get(&5), Some(999), "{name}: duplicate last-write-wins");
            assert_eq!(l.get(&7), Some(7), "{name}");
            l.check_invariants();
        }
    }

    #[test]
    fn bulk_load_is_a_function_of_contents_and_seed() {
        let build = |input_order_reversed: bool, seed: u64| {
            // Start from different pre-existing contents to prove the old
            // state is fully discarded.
            let mut l = ExternalSkipList::<u64, u64>::history_independent(16, 0.5, 77);
            if input_order_reversed {
                for k in 0..50u64 {
                    l.insert(k * 11, k);
                }
            }
            let mut pairs: Vec<(u64, u64)> = (0..600u64).map(|k| (k * 2, k)).collect();
            if input_order_reversed {
                pairs.reverse();
            }
            l.bulk_load(pairs, seed);
            l
        };
        let a = build(false, 42);
        let b = build(true, 42);
        assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
        assert_eq!(
            a.leaf_array_lengths(),
            b.leaf_array_lengths(),
            "same contents + seed must give a bit-identical layout regardless of load order"
        );
        assert_eq!(a.space_records(), b.space_records());
        let c = build(false, 43);
        assert_ne!(
            a.leaf_array_lengths(),
            c.leaf_array_lengths(),
            "a different seed should give a different layout"
        );
    }

    #[test]
    fn range_iter_agrees_with_range() {
        let mut l = hi_list(55);
        for k in 0..500u64 {
            l.insert(k * 3, k);
        }
        let eager = l.range(&100, &900);
        let lazy: Vec<(u64, u64)> = l.range_iter(100..=900).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(eager, lazy);
        assert_eq!(l.iter().count(), 500);
        assert_eq!(l.range_iter(100..900).map(|(k, _)| *k).max(), Some(897));
        assert_eq!(l.get_ref(&3), Some(&1));
        assert_eq!(l.get_ref(&4), None);
    }

    #[test]
    fn dictionary_trait_object_usable() {
        fn exercise<D: Dictionary<Key = u64, Value = u64>>(d: &mut D) {
            d.insert(5, 50);
            d.insert(1, 10);
            d.insert(9, 90);
            assert_eq!(d.get(&5), Some(50));
            assert_eq!(d.to_sorted_vec(), vec![(1, 10), (5, 50), (9, 90)]);
            assert_eq!(d.range(&2, &9), vec![(5, 50), (9, 90)]);
            assert_eq!(d.remove(&5), Some(50));
            assert_eq!(d.len(), 2);
        }
        exercise(&mut ExternalSkipList::<u64, u64>::history_independent(
            16, 0.5, 3,
        ));
        exercise(&mut ExternalSkipList::<u64, u64>::folklore_b(16, 4));
        exercise(&mut ExternalSkipList::<u64, u64>::in_memory(5));
    }

    #[test]
    fn apply_batch_is_bit_identical_to_per_op_application() {
        use hi_common::batch::BatchOp;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // A batch is the per-op loop, so the coin stream (promotion levels,
        // pad redraws) and therefore the whole leaf layout must be identical
        // however the stream is cut.
        for (b, e) in [(16usize, 0.5f64), (4, 0.25)] {
            let mut rng = StdRng::seed_from_u64(0x5EED ^ b as u64);
            let mut per_op = ExternalSkipList::<u64, u64>::history_independent(b, e, 77);
            let mut batched = ExternalSkipList::<u64, u64>::history_independent(b, e, 77);
            for round in 0..5 {
                let ops: Vec<BatchOp<u64, u64>> = (0..600)
                    .map(|i| {
                        let key = match round % 3 {
                            0 => (round * 10_000 + i * 2) as u64,
                            1 => rng.gen_range(0..4_000u64),
                            _ => rng.gen_range(0..48u64),
                        };
                        if rng.gen_bool(0.3) {
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
                assert_eq!(
                    batched.apply_batch(ops),
                    expected_removed,
                    "B={b} round {round}"
                );
                assert_eq!(per_op.to_sorted_vec(), batched.to_sorted_vec());
                assert_eq!(per_op.height(), batched.height(), "B={b} round {round}");
                assert_eq!(
                    per_op.leaf_array_lengths(),
                    batched.leaf_array_lengths(),
                    "B={b} round {round}: leaf layout diverged"
                );
                assert_eq!(per_op.space_records(), batched.space_records());
                batched.check_invariants();
            }
            let probes: Vec<u64> = (0..300).map(|_| rng.gen_range(0..4_100u64)).collect();
            let expected: Vec<Option<u64>> = probes.iter().map(|k| batched.get(k)).collect();
            assert_eq!(batched.get_many(&probes), expected);
        }
    }
}
