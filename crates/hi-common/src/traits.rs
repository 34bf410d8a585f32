//! Core abstractions shared by every structure in the workspace.
//!
//! The paper works with two kinds of interfaces:
//!
//! * a **ranked sequence** (the PMA, paper §3): elements are addressed by
//!   *rank* — `Insert(i, x)`, `Delete(i)`, `Query(i, j)`;
//! * a **dictionary** (the cache-oblivious B-tree of §5, the skip lists of
//!   §6, and the baseline B-tree): elements are addressed by *key* —
//!   insert/delete/search/range-query.
//!
//! Defining these as traits lets the integration tests and benchmark
//! harnesses run the same workload against every structure and cross-check
//! the results, and lets downstream users swap a history-independent
//! dictionary for a conventional one without touching call sites.
//!
//! # Zero-copy query surface
//!
//! Both traits are organised around **borrowing** accessors: the required
//! methods hand out references (`get_ref`) and lazy iterators (`iter`,
//! `range_iter`), and the historical `Vec`-returning methods (`get`,
//! `range`, `query`, `to_sorted_vec`, …) are thin provided wrappers that
//! clone out of the lazy surface. Implementations therefore write the
//! allocation-free path once and get the convenience API for free, while
//! hot loops (benchmarks, servers) consume the iterators directly without
//! materialising a `Vec` per query.
//!
//! # Error contract for `Query(i, j)`
//!
//! Rank-addressed range queries distinguish two conditions uniformly across
//! every implementation:
//!
//! * **empty range** (`i > j`): not an error — the query returns no
//!   elements (`Ok` with an empty iterator/vector), mirroring how keyed
//!   `range(low, high)` treats `low > high`;
//! * **out of bounds** (`j ≥ len`): a [`RankError`] carrying the offending
//!   rank `j` and the current length.
//!
//! # Batch operations
//!
//! [`Dictionary::extend`] and [`Dictionary::bulk_load`] (and their
//! [`RankedSequence`] counterparts) load many elements at once.
//! `bulk_load(items, seed)` additionally **draws fresh coins** from `seed`:
//! a history-independent implementation rebuilds its entire layout from the
//! new randomness, so the resulting representation is a function of
//! *(contents, seed)* only — independent of the order the items arrive in
//! and of everything the structure did before. The provided defaults fall
//! back to element-at-a-time insertion, which preserves the same
//! distributional guarantee for WHI structures (their per-op coins already
//! make the layout history independent) at `O(n log² n)` instead of `O(n)`
//! cost.

use std::cell::Cell;
use std::fmt;
use std::ops::{Bound, RangeBounds};

/// Error returned by rank-addressed operations when the rank is out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankError {
    /// The offending rank.
    pub rank: usize,
    /// The number of elements at the time of the call.
    pub len: usize,
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} out of bounds for length {}",
            self.rank, self.len
        )
    }
}

impl std::error::Error for RankError {}

/// Clones the bounds of a `RangeBounds<K>` into owned [`Bound`]s, so a lazy
/// iterator can carry them past the borrow of the range expression itself.
pub fn cloned_bounds<K: Clone, R: RangeBounds<K>>(range: &R) -> (Bound<K>, Bound<K>) {
    (range.start_bound().cloned(), range.end_bound().cloned())
}

/// Where `key` lies against an owned start bound, as a keyed search reads
/// it: `Less` while `key` is below the bound, `Equal` or `Greater` once it
/// is in range.
pub fn start_bound_cmp<K: Ord>(key: &K, start: &Bound<K>) -> std::cmp::Ordering {
    match start {
        Bound::Included(low) => key.cmp(low),
        Bound::Excluded(low) if key <= low => std::cmp::Ordering::Less,
        Bound::Excluded(_) | Bound::Unbounded => std::cmp::Ordering::Greater,
    }
}

/// Returns `true` when `key` satisfies an owned end bound.
pub fn below_end_bound<K: Ord>(key: &K, end: &Bound<K>) -> bool {
    match end {
        Bound::Included(high) => key <= high,
        Bound::Excluded(high) => key < high,
        Bound::Unbounded => true,
    }
}

/// A dynamic sequence addressed by rank, in the style of the paper's PMA API
/// (§3): `Query(i, j)`, `Insert(i, x)`, `Delete(i)`.
///
/// A caller that keeps the sequence sorted under some order also gets keyed
/// access, in two forms. [`Self::lower_bound_ref_by`] returns the rank and
/// the element, for writes that go on to address the sequence by rank.
/// [`Self::iter_from_by`] returns only the elements, for reads, and so may
/// skip the rank bookkeeping altogether (the HI PMA's does).
pub trait RankedSequence {
    /// Element type stored in the sequence.
    type Item: Clone;

    /// Number of elements currently stored.
    fn len(&self) -> usize;

    /// Returns `true` when the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `item` as the `rank`-th element (`0 ≤ rank ≤ len`). Elements
    /// with rank `rank..len` before the insert have rank `rank+1..len+1`
    /// afterwards.
    fn insert_at(&mut self, rank: usize, item: Self::Item) -> Result<(), RankError>;

    /// Deletes and returns the `rank`-th element (`0 ≤ rank < len`).
    fn delete_at(&mut self, rank: usize) -> Result<Self::Item, RankError>;

    /// Borrows the `rank`-th element without copying it.
    fn get_ref(&self, rank: usize) -> Option<&Self::Item>;

    /// Rank of the first element `e` for which `f(e)` is not
    /// [`Less`](std::cmp::Ordering::Less), assuming the caller keeps the
    /// sequence sorted with respect to `f` (`len()` when every element
    /// compares `Less`).
    ///
    /// The provided default binary-searches over [`Self::get_ref`] —
    /// `O(log n)` probes, each potentially a full rank descent.
    /// Implementations with an internal search index override this with a
    /// single descent (the HI PMA routes it through its augmented value
    /// tree, the paper's §5 keyed search, summing the rank tree on the way
    /// down), which is what makes the [`RankedDict`] adapter's keyed writes
    /// competitive with native rank addressing.
    fn lower_bound_by<F>(&self, f: F) -> usize
    where
        F: Fn(&Self::Item) -> std::cmp::Ordering,
    {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            #[expect(
                clippy::expect_used,
                reason = "mid < len: the binary-search bounds maintain lo <= mid < hi <= len"
            )]
            let probe = self.get_ref(mid).expect("mid < len");
            if f(probe) == std::cmp::Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// [`Self::lower_bound_by`] fused with a borrow of the element at the
    /// returned rank (`None` when the rank is `len()`), so keyed callers
    /// inspect the search result without paying a second rank descent.
    fn lower_bound_ref_by<F>(&self, f: F) -> (usize, Option<&Self::Item>)
    where
        F: Fn(&Self::Item) -> std::cmp::Ordering,
    {
        let rank = self.lower_bound_by(f);
        (rank, self.get_ref(rank))
    }

    /// [`Self::lower_bound_ref_by`] with a resumable
    /// [`SeekFinger`](crate::batch::SeekFinger): callers probing an
    /// *ascending* run of bounds pass the same finger so the search can
    /// resume from the previous probe's leaf instead of restarting at the
    /// root. The finger is only meaningful between mutations.
    ///
    /// The provided default ignores the finger; positional engines (the
    /// PMAs) override it with a left-to-right leaf walk. Its one caller is
    /// the sorted read path, [`get_many_keyed`](crate::batch::get_many_keyed).
    fn lower_bound_seek_by<F>(
        &self,
        finger: &mut crate::batch::SeekFinger,
        f: F,
    ) -> (usize, Option<&Self::Item>)
    where
        F: Fn(&Self::Item) -> std::cmp::Ordering,
    {
        let _ = finger;
        self.lower_bound_ref_by(f)
    }

    /// Lazily yields the elements from the first one `e` for which `f(e)`
    /// is not [`Less`](std::cmp::Ordering::Less), in rank order: the keyed
    /// read of a sequence kept sorted under `f`, for callers that want
    /// elements, not ranks (a point lookup takes the first, a successor the
    /// first, a range scan the prefix its end bound admits).
    ///
    /// The provided default is [`Self::lower_bound_by`] followed by
    /// [`Self::range_iter`], so it counts what `range_iter` counts. Keyed
    /// callers count the read themselves, so a sequence whose `range_iter`
    /// counts queries overrides this with an uncounted scan, as both PMAs
    /// do. The HI PMA's override descends its value tree alone, reading no
    /// rank, and its scan walks on past the landing leaf with no second
    /// descent.
    #[expect(
        clippy::expect_used,
        reason = "ranks are the canonical empty pair or from..len-1 with from < len"
    )]
    fn iter_from_by<F>(&self, f: F) -> impl Iterator<Item = &Self::Item>
    where
        F: Fn(&Self::Item) -> std::cmp::Ordering,
    {
        let from = self.lower_bound_by(f);
        let (i, j) = if from < self.len() {
            (from, self.len() - 1)
        } else {
            (1, 0)
        };
        self.range_iter(i, j).expect("clamped range is valid")
    }

    /// Returns a clone of the `rank`-th element.
    fn get(&self, rank: usize) -> Option<Self::Item> {
        self.get_ref(rank).cloned()
    }

    /// Lazily yields the `i`-th through `j`-th elements inclusive without
    /// allocating — the zero-copy form of the paper's `Query(i, j)`.
    ///
    /// Per the uniform error contract: `i > j` yields an empty iterator
    /// (`Ok`), while `j ≥ len` (with `i ≤ j`) is a [`RankError`].
    fn range_iter(
        &self,
        i: usize,
        j: usize,
    ) -> Result<impl Iterator<Item = &Self::Item>, RankError>;

    /// Borrows every element in rank order.
    #[expect(
        clippy::expect_used,
        reason = "empty sequences take the explicit empty-range branch; otherwise 0..len-1 is valid"
    )]
    fn iter(&self) -> impl Iterator<Item = &Self::Item> {
        // The full range is always valid (empty sequences take the `i > j`
        // empty-range branch via `0 > len - 1 == usize::MAX` wrap-around
        // being avoided by the explicit guard below).
        let last = self.len().saturating_sub(1);
        self.range_iter(usize::from(self.is_empty()), last)
            .expect("full range is valid")
    }

    /// Returns clones of the `i`-th through `j`-th elements inclusive, the
    /// paper's `Query(i, j)`. Provided wrapper over [`Self::range_iter`];
    /// follows the same error contract.
    fn query(&self, i: usize, j: usize) -> Result<Vec<Self::Item>, RankError> {
        Ok(self.range_iter(i, j)?.cloned().collect())
    }

    /// Collects the whole sequence in rank order. Intended for tests and
    /// small examples; cost is `Θ(len)`.
    fn to_vec(&self) -> Vec<Self::Item> {
        self.iter().cloned().collect()
    }

    /// Appends every item of `items` at the end of the sequence.
    fn extend_back(&mut self, items: impl IntoIterator<Item = Self::Item>) {
        for item in items {
            let len = self.len();
            #[expect(
                clippy::expect_used,
                reason = "insert at rank == len is the always-valid append form"
            )]
            self.insert_at(len, item)
                .expect("insert at len is always valid");
        }
    }

    /// Replaces the entire contents with `items` (in the given rank order),
    /// drawing fresh coins from `seed` where the implementation is
    /// randomized.
    ///
    /// History-independent implementations override this so the resulting
    /// layout is a pure function of *(items, seed)* — same items and seed
    /// give a bit-identical layout no matter what the structure held before.
    /// The provided default drains the sequence and re-inserts one element
    /// at a time (ignoring `seed`), which is correct but `O(n log² n)`.
    fn bulk_load(&mut self, items: impl IntoIterator<Item = Self::Item>, seed: u64) {
        let _ = seed;
        while !self.is_empty() {
            let last = self.len() - 1;
            #[expect(
                clippy::expect_used,
                reason = "last = len - 1 under the !is_empty loop guard"
            )]
            self.delete_at(last).expect("last rank is valid");
        }
        self.extend_back(items);
    }
}

/// A key–value pair, the unit stored by the dictionary structures.
pub type KeyValue<K, V> = (K, V);

/// A structure whose memory representation is (or embeds) a slot-occupancy
/// map — the fingerprint the history-independence definitions quantify over.
///
/// Implementations write the packed occupancy words into a caller's buffer —
/// the HI-PMA computes them from its leaf counts, the classic PMA copies its
/// [`bitmap`](crate::bitmap::Bitmap) — so the statistical tests, the
/// secure-delete audits and a flush can compare or commit layouts without
/// per-slot probing, and a caller that reuses its buffer allocates nothing.
/// The provided methods derive the other representations from the words.
pub trait Occupancy {
    /// Number of slots in the backing array.
    fn slot_count(&self) -> usize;

    /// Replaces the contents of `words` with the packed occupancy words, 64
    /// slots per `u64`, low bit = low slot: `⌈slot_count / 64⌉` words, bits
    /// at and beyond [`Self::slot_count`] zero.
    fn occupancy_into(&self, words: &mut Vec<u64>);

    /// The packed occupancy words of [`Self::occupancy_into`], in a new
    /// vector.
    fn occupancy_words(&self) -> Vec<u64> {
        let mut words = Vec::new();
        self.occupancy_into(&mut words);
        words
    }

    /// One `bool` per slot (the historical representation; allocates).
    fn occupancy(&self) -> Vec<bool> {
        let words = self.occupancy_words();
        (0..self.slot_count())
            .map(|i| words[i / 64] & (1u64 << (i % 64)) != 0)
            .collect()
    }

    /// Number of occupied slots, by popcount over the packed words.
    fn occupied_slots(&self) -> usize {
        self.occupancy_words()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// An ordered dictionary: the external-memory B-tree interface the paper's
/// structures implement as history-independent alternatives.
///
/// Implementations provide the borrowing surface ([`Self::get_ref`],
/// [`Self::range_iter`]) plus the mutators and ordered navigation; the
/// owned/`Vec` convenience methods are provided wrappers.
pub trait Dictionary {
    /// Key type (totally ordered).
    type Key: Ord + Clone;
    /// Value type.
    type Value: Clone;

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Returns `true` when the dictionary is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a key–value pair. Returns the previous value if the key was
    /// already present (in which case the pair is replaced).
    fn insert(&mut self, key: Self::Key, value: Self::Value) -> Option<Self::Value>;

    /// Removes a key, returning its value if it was present.
    fn remove(&mut self, key: &Self::Key) -> Option<Self::Value>;

    /// Borrows the value stored under `key`, without copying it.
    fn get_ref(&self, key: &Self::Key) -> Option<&Self::Value>;

    /// Looks up a key, cloning the value. Provided wrapper over
    /// [`Self::get_ref`].
    fn get(&self, key: &Self::Key) -> Option<Self::Value> {
        self.get_ref(key).cloned()
    }

    /// Returns `true` when the key is present.
    fn contains(&self, key: &Self::Key) -> bool {
        self.get_ref(key).is_some()
    }

    /// Lazily yields every pair whose key lies in `range`, in ascending key
    /// order, without materialising a `Vec`. Accepts any range expression
    /// (`..`, `a..`, `a..=b`, `(Bound, Bound)`, …).
    fn range_iter<R: RangeBounds<Self::Key>>(
        &self,
        range: R,
    ) -> impl Iterator<Item = (&Self::Key, &Self::Value)>;

    /// Borrows every pair in ascending key order.
    fn iter(&self) -> impl Iterator<Item = (&Self::Key, &Self::Value)> {
        self.range_iter(..)
    }

    /// Borrows every key in ascending order.
    fn keys(&self) -> impl Iterator<Item = &Self::Key> {
        self.iter().map(|(k, _)| k)
    }

    /// Borrows every value in ascending key order.
    fn values(&self) -> impl Iterator<Item = &Self::Value> {
        self.iter().map(|(_, v)| v)
    }

    /// Returns every pair with `low ≤ key ≤ high`, in ascending key order.
    /// Provided wrapper over [`Self::range_iter`]; `low > high` yields an
    /// empty vector.
    fn range(&self, low: &Self::Key, high: &Self::Key) -> Vec<KeyValue<Self::Key, Self::Value>> {
        self.range_iter((Bound::Included(low), Bound::Included(high)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Returns the smallest key ≥ `key` together with its value.
    fn successor(&self, key: &Self::Key) -> Option<KeyValue<Self::Key, Self::Value>>;

    /// Returns the largest key ≤ `key` together with its value.
    fn predecessor(&self, key: &Self::Key) -> Option<KeyValue<Self::Key, Self::Value>>;

    /// Collects the whole dictionary in ascending key order. Provided
    /// wrapper over [`Self::iter`]; cost is `Θ(len)`.
    fn to_sorted_vec(&self) -> Vec<KeyValue<Self::Key, Self::Value>> {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Inserts every pair of `pairs`, in order (later duplicates overwrite
    /// earlier ones): the same state as one [`Self::insert`] call per pair.
    /// The provided default feeds [`Self::apply_batch`] bounded chunks, for
    /// the engines whose `apply_batch` shares work across a run (the
    /// baseline B-tree and skip list), so a lazy input of any length keeps
    /// constant peak memory; since any partition of a stream composes to
    /// the same state, the chunk boundaries are invisible. Engines whose
    /// `apply_batch` is the per-op loop override this with that loop.
    fn extend(&mut self, pairs: impl IntoIterator<Item = KeyValue<Self::Key, Self::Value>>) {
        const EXTEND_CHUNK: usize = 1 << 16;
        let mut iter = pairs.into_iter();
        loop {
            let chunk: Vec<crate::batch::BatchOp<Self::Key, Self::Value>> = iter
                .by_ref()
                .take(EXTEND_CHUNK)
                .map(|(k, v)| crate::batch::BatchOp::Put(k, v))
                .collect();
            if chunk.is_empty() {
                return;
            }
            self.apply_batch(chunk);
        }
    }

    /// Applies a batch of keyed operations in arrival order, returning the
    /// number of removes that found their key. The promise is the state —
    /// for the history-independent engines the layout, bit for bit — that
    /// the per-op loop below leaves: later duplicates win, a remove-miss is
    /// a no-op, and any partition of one arrival stream into batches
    /// composes to the same state. An override may get there faster (the
    /// baseline B-tree and skip list reuse a descent finger across sorted
    /// runs) but may not change it.
    fn apply_batch(&mut self, ops: Vec<crate::batch::BatchOp<Self::Key, Self::Value>>) -> usize {
        let mut removed = 0;
        for op in ops {
            match op {
                crate::batch::BatchOp::Put(k, v) => {
                    self.insert(k, v);
                }
                crate::batch::BatchOp::Remove(k) => {
                    if self.remove(&k).is_some() {
                        removed += 1;
                    }
                }
            }
        }
        removed
    }

    /// Looks up every key of `keys`, returning the values in input order.
    /// Implementations sort the probes internally and reuse a descent finger
    /// across consecutive keys, restoring the original order through an
    /// index permutation; the provided default is a plain per-key loop.
    fn get_many(&self, keys: &[Self::Key]) -> Vec<Option<Self::Value>> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Replaces the entire contents with `pairs`, drawing fresh coins from
    /// `seed` where the implementation is randomized.
    ///
    /// The input need not be sorted or deduplicated — implementations
    /// normalise it (last write wins for duplicate keys) precisely so that
    /// the resulting layout is a pure function of *(key set, values, seed)*,
    /// independent of arrival order. History-independent implementations
    /// override this with an `O(n)`/`O(n log n)` rebuild; the provided
    /// default drains and re-inserts (ignoring `seed`).
    fn bulk_load(
        &mut self,
        pairs: impl IntoIterator<Item = KeyValue<Self::Key, Self::Value>>,
        seed: u64,
    ) {
        let _ = seed;
        let keys: Vec<Self::Key> = self.keys().cloned().collect();
        for k in keys {
            self.remove(&k);
        }
        self.extend(pairs);
    }
}

/// Sorts `pairs` by key and deduplicates (last write wins), normalising an
/// arbitrary bulk-load input into canonical load order. Shared by every
/// [`Dictionary::bulk_load`] override.
pub fn normalize_pairs<K: Ord, V>(mut pairs: Vec<(K, V)>) -> Vec<(K, V)> {
    // The sort must be stable so duplicate keys stay in arrival order; the
    // forward pass below then overwrites each run's entry in place, leaving
    // the *last* arrival as the winner.
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, V)> = Vec::with_capacity(pairs.len());
    for pair in pairs {
        match out.last_mut() {
            Some(last) if last.0 == pair.0 => *last = pair,
            _ => out.push(pair),
        }
    }
    out
}

/// `probe.cmp(key)`, tallied in `comparisons` (a `Cell`, because the
/// sequences' search closures are `Fn`).
#[inline]
fn counted_cmp<K: Ord>(comparisons: &Cell<u64>, probe: &K, key: &K) -> std::cmp::Ordering {
    comparisons.set(comparisons.get() + 1);
    probe.cmp(key)
}

/// A keyed [`Dictionary`] view over any [`RankedSequence`] of key–value
/// pairs kept in ascending key order.
///
/// This is the paper's observation that a sparse table plus a search
/// structure *is* a dictionary, in adapter form. A read (get, successor, a
/// range scan) takes [`RankedSequence::iter_from_by`]: on the HI PMA one
/// value-tree descent that reads no rank, on the classic one a binary
/// search over `get_ref`. A write finds the key's rank with
/// [`RankedSequence::lower_bound_ref_by`] and delegates to the
/// rank-addressed API. It is how the two PMAs
/// ([`HiPma`](https://docs.rs/pma), `ClassicPma`) join the dictionary
/// conformance suite and the runtime-selectable backend set without bespoke
/// wrappers.
#[derive(Debug, Clone)]
pub struct RankedDict<S, K, V> {
    seq: S,
    /// Keyed-operation ledger. Every keyed read (get, successor,
    /// predecessor, a range scan) is counted here once; a point lookup and
    /// ordered navigation also add the key comparisons their search made.
    /// The sequence counts none of them: [`RankedSequence::iter_from_by`]
    /// and the lower-bound searches are uncounted on both PMAs, so a ledger
    /// shared with the sequence (as the dictionary builder shares it) books
    /// each read once.
    counters: crate::counters::SharedCounters,
    _pairs: std::marker::PhantomData<(K, V)>,
}

impl<S, K, V> RankedDict<S, K, V>
where
    S: RankedSequence<Item = (K, V)>,
    K: Ord + Clone,
    V: Clone,
{
    /// Wraps an empty (or key-sorted) ranked sequence.
    pub fn new(seq: S) -> Self {
        Self::with_counters(seq, crate::counters::SharedCounters::new())
    }

    /// Wraps a sequence and reports keyed queries into an existing ledger
    /// (typically the same one the sequence itself was built with).
    pub fn with_counters(seq: S, counters: crate::counters::SharedCounters) -> Self {
        Self {
            seq,
            counters,
            _pairs: std::marker::PhantomData,
        }
    }

    /// The underlying ranked sequence.
    pub fn seq(&self) -> &S {
        &self.seq
    }

    /// The keyed-operation ledger.
    pub fn counters(&self) -> &crate::counters::SharedCounters {
        &self.counters
    }

    /// Consumes the adapter, returning the underlying sequence.
    pub fn into_inner(self) -> S {
        self.seq
    }

    /// Rank of the first pair whose key is > `key` (or `len` if none),
    /// tallying the key comparisons made. `Equal` probes are mapped to
    /// `Less`, turning the lower-bound descent into an upper bound.
    fn upper_bound(&self, key: &K, comparisons: &Cell<u64>) -> usize {
        self.seq
            .lower_bound_by(|pair| match counted_cmp(comparisons, &pair.0, key) {
                std::cmp::Ordering::Greater => std::cmp::Ordering::Greater,
                _ => std::cmp::Ordering::Less,
            })
    }

    /// The one ledger update of a keyed query: the query itself and the key
    /// comparisons its probe closure tallied — no second lock on the read
    /// path.
    fn record_query(&self, comparisons: &Cell<u64>) {
        self.counters.update(|c| {
            c.queries += 1;
            c.comparisons += comparisons.get();
        });
    }

    /// The first pair whose key is ≥ `key`: one keyed read of the
    /// sequence, counted once with its comparisons.
    fn first_at_or_after(&self, key: &K) -> Option<&(K, V)> {
        let comparisons = Cell::new(0);
        let first = self
            .seq
            .iter_from_by(|pair| counted_cmp(&comparisons, &pair.0, key))
            .next();
        self.record_query(&comparisons);
        first
    }
}

impl<S, K, V> Dictionary for RankedDict<S, K, V>
where
    S: RankedSequence<Item = (K, V)>,
    K: Ord + Clone,
    V: Clone,
{
    type Key = K;
    type Value = V;

    fn len(&self) -> usize {
        self.seq.len()
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (rank, probe) = self.seq.lower_bound_ref_by(|pair| pair.0.cmp(&key));
        let hit = matches!(probe, Some((existing, _)) if *existing == key);
        if hit {
            // Overwrite as delete + reinsert at the same rank, the
            // HI-preserving replace: the layout distribution stays a
            // function of the key set only, at the cost of two rank updates
            // for a value change.
            #[expect(
                clippy::expect_used,
                reason = "delete at the rank the probe just returned"
            )]
            let (_, old) = self.seq.delete_at(rank).expect("rank just observed");
            #[expect(
                clippy::expect_used,
                reason = "reinsert at the rank the delete just vacated"
            )]
            self.seq
                .insert_at(rank, (key, value))
                .expect("rank still valid");
            return Some(old);
        }
        #[expect(
            clippy::expect_used,
            reason = "lower_bound returns a rank <= len, the valid insertion range"
        )]
        self.seq
            .insert_at(rank, (key, value))
            .expect("lower bound is a valid insertion rank");
        None
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let (rank, probe) = self.seq.lower_bound_ref_by(|pair| pair.0.cmp(key));
        let hit = matches!(probe, Some((existing, _)) if existing == key);
        if hit {
            #[expect(
                clippy::expect_used,
                reason = "delete at the rank the probe just returned"
            )]
            let (_, v) = self.seq.delete_at(rank).expect("rank just observed");
            Some(v)
        } else {
            None
        }
    }

    fn get_ref(&self, key: &K) -> Option<&V> {
        match self.first_at_or_after(key) {
            Some((existing, v)) if existing == key => Some(v),
            _ => None,
        }
    }

    fn range_iter<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> {
        let (start, end) = cloned_bounds(&range);
        self.counters.add_query();
        self.seq
            .iter_from_by(move |pair| start_bound_cmp(&pair.0, &start))
            .take_while(move |(k, _)| below_end_bound(k, &end))
            .map(|(k, v)| (k, v))
    }

    fn successor(&self, key: &K) -> Option<(K, V)> {
        self.first_at_or_after(key).cloned()
    }

    fn predecessor(&self, key: &K) -> Option<(K, V)> {
        let comparisons = Cell::new(0);
        let rank = self.upper_bound(key, &comparisons);
        self.record_query(&comparisons);
        if rank == 0 {
            None
        } else {
            self.seq.get(rank - 1)
        }
    }

    fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (K, V)>, seed: u64) {
        let pairs = normalize_pairs(pairs.into_iter().collect());
        self.seq.bulk_load(pairs, seed);
    }

    fn extend(&mut self, pairs: impl IntoIterator<Item = (K, V)>) {
        for (key, value) in pairs {
            self.insert(key, value);
        }
    }

    fn get_many(&self, keys: &[K]) -> Vec<Option<V>> {
        crate::batch::get_many_keyed(&self.seq, keys, || self.counters.add_query())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial `Vec`-backed ranked sequence used to exercise the trait's
    /// default methods (and reused as a reference model elsewhere).
    struct VecSeq(Vec<u32>);

    impl RankedSequence for VecSeq {
        type Item = u32;

        fn len(&self) -> usize {
            self.0.len()
        }

        fn insert_at(&mut self, rank: usize, item: u32) -> Result<(), RankError> {
            if rank > self.0.len() {
                return Err(RankError {
                    rank,
                    len: self.0.len(),
                });
            }
            self.0.insert(rank, item);
            Ok(())
        }

        fn delete_at(&mut self, rank: usize) -> Result<u32, RankError> {
            if rank >= self.0.len() {
                return Err(RankError {
                    rank,
                    len: self.0.len(),
                });
            }
            Ok(self.0.remove(rank))
        }

        fn get_ref(&self, rank: usize) -> Option<&u32> {
            self.0.get(rank)
        }

        fn range_iter(&self, i: usize, j: usize) -> Result<impl Iterator<Item = &u32>, RankError> {
            if i > j {
                return Ok(self.0[0..0].iter());
            }
            if j >= self.0.len() {
                return Err(RankError {
                    rank: j,
                    len: self.0.len(),
                });
            }
            Ok(self.0[i..=j].iter())
        }
    }

    #[test]
    fn default_methods_work() {
        let mut s = VecSeq(vec![]);
        assert!(s.is_empty());
        s.insert_at(0, 5).unwrap();
        s.insert_at(1, 9).unwrap();
        s.insert_at(1, 7).unwrap();
        assert_eq!(s.to_vec(), vec![5, 7, 9]);
        assert_eq!(s.get(1), Some(7));
        assert_eq!(s.get_ref(1), Some(&7));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![5, 7, 9]);
        assert_eq!(s.delete_at(0).unwrap(), 5);
        assert_eq!(s.to_vec(), vec![7, 9]);
    }

    #[test]
    fn rank_error_display() {
        let e = RankError { rank: 9, len: 3 };
        assert_eq!(e.to_string(), "rank 9 out of bounds for length 3");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut s = VecSeq(vec![1, 2, 3]);
        assert!(s.insert_at(5, 0).is_err());
        assert!(s.delete_at(3).is_err());
        assert!(s.query(1, 3).is_err());
    }

    #[test]
    fn empty_range_is_ok_not_error() {
        let s = VecSeq(vec![1, 2, 3]);
        // i > j is an empty range, uniformly — even at out-of-bounds ranks.
        assert_eq!(s.query(2, 1).unwrap(), Vec::<u32>::new());
        assert_eq!(s.query(7, 3).unwrap(), Vec::<u32>::new());
        let empty = VecSeq(vec![]);
        assert_eq!(empty.query(1, 0).unwrap(), Vec::<u32>::new());
        assert_eq!(empty.to_vec(), Vec::<u32>::new());
    }

    #[test]
    fn seq_bulk_load_default_replaces_contents() {
        let mut s = VecSeq(vec![9, 8]);
        s.bulk_load([1, 2, 3], 42);
        assert_eq!(s.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn normalize_pairs_sorts_and_keeps_last_duplicate() {
        let pairs = vec![(3u32, 'c'), (1, 'a'), (3, 'z'), (2, 'b')];
        assert_eq!(normalize_pairs(pairs), vec![(1, 'a'), (2, 'b'), (3, 'z')]);
    }

    #[test]
    fn ranked_dict_behaves_like_a_dictionary() {
        struct PairSeq(Vec<(u64, u64)>);
        impl RankedSequence for PairSeq {
            type Item = (u64, u64);
            fn len(&self) -> usize {
                self.0.len()
            }
            fn insert_at(&mut self, rank: usize, item: (u64, u64)) -> Result<(), RankError> {
                if rank > self.0.len() {
                    return Err(RankError {
                        rank,
                        len: self.0.len(),
                    });
                }
                self.0.insert(rank, item);
                Ok(())
            }
            fn delete_at(&mut self, rank: usize) -> Result<(u64, u64), RankError> {
                if rank >= self.0.len() {
                    return Err(RankError {
                        rank,
                        len: self.0.len(),
                    });
                }
                Ok(self.0.remove(rank))
            }
            fn get_ref(&self, rank: usize) -> Option<&(u64, u64)> {
                self.0.get(rank)
            }
            fn range_iter(
                &self,
                i: usize,
                j: usize,
            ) -> Result<impl Iterator<Item = &(u64, u64)>, RankError> {
                if i > j {
                    return Ok(self.0[0..0].iter());
                }
                if j >= self.0.len() {
                    return Err(RankError {
                        rank: j,
                        len: self.0.len(),
                    });
                }
                Ok(self.0[i..=j].iter())
            }
        }

        let mut d = RankedDict::new(PairSeq(Vec::new()));
        assert_eq!(d.insert(5, 50), None);
        assert_eq!(d.insert(1, 10), None);
        assert_eq!(d.insert(9, 90), None);
        assert_eq!(d.insert(5, 55), Some(50));
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(&5), Some(55));
        assert_eq!(d.get_ref(&1), Some(&10));
        assert_eq!(d.to_sorted_vec(), vec![(1, 10), (5, 55), (9, 90)]);
        assert_eq!(d.range(&2, &9), vec![(5, 55), (9, 90)]);
        assert_eq!(d.range(&9, &2), vec![]);
        let before = d.counters().snapshot();
        assert_eq!(d.successor(&6), Some((9, 90)));
        assert_eq!(d.predecessor(&6), Some((5, 55)));
        assert_eq!(d.predecessor(&0), None);
        assert_eq!(d.get_ref(&9), Some(&90));
        // Every keyed query is counted once, with at least the comparison
        // that settles it and at most a binary search's worth per probe.
        let queried = d.counters().snapshot().since(&before);
        assert_eq!(queried.queries, 4);
        assert!(
            (4..=4 * 3).contains(&queried.comparisons),
            "{} comparisons for 4 queries over 3 keys",
            queried.comparisons
        );
        assert_eq!(d.remove(&5), Some(55));
        assert_eq!(d.remove(&5), None);
        assert_eq!(d.keys().copied().collect::<Vec<_>>(), vec![1, 9]);
        d.bulk_load(vec![(4, 40), (2, 20), (4, 44)], 7);
        assert_eq!(d.to_sorted_vec(), vec![(2, 20), (4, 44)]);
    }
}
