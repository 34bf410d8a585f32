//! Sharded concurrent dictionary service.
//!
//! The paper proves that a *single* dictionary's memory representation can
//! be a pure function of its contents and secret coins. A deployment that
//! serves heavy traffic does not run a single dictionary — it hash-partitions
//! the key space across `S` independent shards and works on them from many
//! threads. This crate shows (and the workspace's test battery verifies)
//! that the guarantee survives that scale-out: a [`ShardedDict`]'s complete
//! observable state — which shard each key lives on, plus every shard's
//! layout — remains a pure function of `(contents, seed, S)`.
//!
//! Three properties make that work, and each is load-bearing:
//!
//! 1. **Seeded routing** ([`router::ShardRouter`]): shard assignment derives
//!    from `(key, seed, S)` only — never from load, arrival order, or any
//!    other history-dependent signal.
//! 2. **Independent per-shard coins**: every shard's engine is seeded by a
//!    pure function of the root seed and the shard index
//!    ([`router::ShardRouter::shard_seed`]), so no randomness is shared and
//!    no cross-shard draw order exists for thread scheduling to perturb.
//! 3. **Order-preserving batching**: the batched writes
//!    ([`ShardedDict::multi_put`], [`ShardedDict::multi_remove`],
//!    [`ShardedDict::multi_apply`]) hand each operation straight to its
//!    shard, in arrival order. A shard therefore observes exactly the
//!    subsequence of operations routed to it, regardless of how the caller
//!    split the stream into batches — so the final layout is bit-identical
//!    across every split (`tests/determinism.rs` pins this;
//!    `tests/shard_history_independence.rs` holds every shard to Lemma 9's
//!    representation after every batch). No write is buffered on the way,
//!    so no buffer of this layer keeps the key of a record it deletes.
//!
//! There is one batch path: a batch runs on the calling thread, each
//! operation under [`std::panic::catch_unwind`]; [`ShardedDict::multi_get`]
//! groups its probes by shard.
//! Concurrency comes from the callers — the service is `Send + Sync`, and
//! readers share it — not from worker threads inside a batch. Global range
//! scans k-way-merge the shards' lazy iterators without allocating
//! ([`merge::KWayMerge`]); a full export from shards that expose sorted runs
//! merges the runs instead ([`merge::RunMerge`]).
//! Per-shard instrumentation rolls up through the [`Instrumented`] trait.
//!
//! ## Graceful degradation
//!
//! A service front-end must survive one shard going bad without dropping the
//! other `S − 1`. Two failure sources exist at this layer: an engine panic
//! (a bug or a poisoned invariant surfacing mid-batch) and a
//! shard-local storage error reported by the owner of that shard's
//! persistence (the facade's `PersistentDict`). Either one **quarantines**
//! the shard: it is taken out of every read and write path, the service
//! keeps answering from the healthy shards, and the failure is available as
//! a typed [`ShardError::Degraded`] through the fallible surface
//! ([`ShardedDict::try_get`], [`ShardedDict::try_insert`],
//! [`ShardedDict::try_remove`], [`ShardedDict::health`]). The infallible
//! [`Dictionary`] surface degrades by omission — a quarantined shard's keys
//! read as absent and writes routed to it are dropped — which is the
//! documented trade for keeping the trait's signatures. A quarantined shard
//! rejoins after its contents are rebuilt ([`Dictionary::bulk_load`]
//! re-admits every shard it rebuilds successfully) or after an explicit
//! [`ShardedDict::restore_shard`] by a caller that repaired the underlying
//! storage.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod merge;
pub mod router;

use std::fmt;
use std::hash::Hash;
use std::ops::RangeBounds;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use hi_common::batch::BatchOp;
use hi_common::counters::OpCounters;
use hi_common::sync::{locked, panic_message};
use hi_common::traits::{cloned_bounds, Dictionary, KeyValue};
use io_sim::IoStats;

pub use merge::{KWayMerge, RunMerge};
pub use router::{derive_seed, SeededHasher, ShardRouter, MAX_SHARDS};

/// A typed failure from the sharded service's fallible surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The shard the operation routed to is quarantined: its engine panicked
    /// or its storage failed, and it has not been restored since.
    /// The healthy shards are unaffected.
    Degraded {
        /// Index of the quarantined shard.
        shard: usize,
        /// Why it was quarantined (panic message or storage error text).
        reason: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Degraded { shard, reason } => {
                write!(f, "shard {shard} is quarantined: {reason}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Result of a fallible navigation probe ([`ShardedDict::try_successor`] /
/// [`ShardedDict::try_predecessor`]): the merged entry when it is provably
/// complete, or the first quarantined shard's error when that shard could
/// own the true answer.
pub type NavResult<K, V> = Result<Option<KeyValue<K, V>>, ShardError>;

/// Interior-mutable per-shard quarantine ledger. Lives behind a [`Mutex`]
/// because read-only entry points (`multi_get` takes `&self`) must be able
/// to quarantine a shard whose engine panicked; the lock guards a plain
/// `Vec<Option<String>>` that is consistent after every single mutation, so
/// the workspace's poisoned-lock recovery policy ([`locked`]) applies.
#[derive(Debug)]
struct Quarantine {
    down: Mutex<Vec<Option<String>>>,
}

impl Quarantine {
    fn new(shards: usize) -> Self {
        Self {
            down: Mutex::new(vec![None; shards]),
        }
    }

    fn reason(&self, shard: usize) -> Option<String> {
        locked(&self.down)[shard].clone()
    }

    fn is_down(&self, shard: usize) -> bool {
        locked(&self.down)[shard].is_some()
    }

    /// Records the first failure; later failures on an already-down shard
    /// keep the original reason (the root cause, not the cascade).
    fn put_down(&self, shard: usize, reason: String) {
        let mut down = locked(&self.down);
        down[shard].get_or_insert(reason);
    }

    fn restore(&self, shard: usize) {
        locked(&self.down)[shard] = None;
    }

    fn snapshot(&self) -> Vec<Option<String>> {
        locked(&self.down).clone()
    }
}

impl Clone for Quarantine {
    fn clone(&self) -> Self {
        Self {
            down: Mutex::new(self.snapshot()),
        }
    }
}

/// Read access to the per-engine instrumentation ledgers, so a sharded
/// service can report one aggregated [`IoStats`] / [`OpCounters`] view.
///
/// Implemented by the workspace's `DynDict` facade; any engine wrapper that
/// carries a tracer and a counter ledger can join.
pub trait Instrumented {
    /// Block-transfer totals recorded by the engine's tracer.
    fn io_stats(&self) -> IoStats;
    /// Operation totals recorded by the engine's counter ledger.
    fn op_counters(&self) -> OpCounters;
}

/// A dictionary hash-partitioned across `S` independent shards.
///
/// Implements the whole [`Dictionary`] surface (single-key operations route
/// through the seeded router; ordered navigation and range scans merge
/// across shards), and adds the batched operations a service front-end
/// actually calls.
#[derive(Debug, Clone)]
pub struct ShardedDict<D> {
    router: ShardRouter,
    shards: Vec<D>,
    quarantine: Quarantine,
}

impl<D: Dictionary> ShardedDict<D>
where
    D::Key: Hash,
{
    /// Wraps pre-built shards. `shards.len()` must match the router's count.
    pub fn from_shards(router: ShardRouter, shards: Vec<D>) -> Self {
        assert_eq!(
            shards.len(),
            router.shard_count(),
            "shard vector length must match the router's shard count"
        );
        let quarantine = Quarantine::new(shards.len());
        Self {
            router,
            shards,
            quarantine,
        }
    }

    /// Builds `router.shard_count()` shards by calling
    /// `build(index, derived_seed)` — the derived seed is
    /// [`ShardRouter::shard_seed`], so the whole structure's randomness
    /// stems from the router's root seed.
    pub fn build_with(router: ShardRouter, mut build: impl FnMut(usize, u64) -> D) -> Self {
        let shards = (0..router.shard_count())
            .map(|i| build(i, router.shard_seed(i)))
            .collect();
        Self::from_shards(router, shards)
    }

    /// The seeded router partitioning the key space.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in index order — read-only access for audits and layout
    /// fingerprinting (each shard's occupancy is part of the observable
    /// state the history-independence tests quantify over).
    pub fn shards(&self) -> &[D] {
        &self.shards
    }

    /// The shard `key` routes to.
    pub fn shard_of(&self, key: &D::Key) -> usize {
        self.router.route(key)
    }

    /// Per-shard health: `None` for a serving shard, `Some(error)` for a
    /// quarantined one.
    pub fn health(&self) -> Vec<Option<ShardError>> {
        let mut out = Vec::with_capacity(self.shards.len());
        self.health_into(&mut out);
        out
    }

    /// [`Self::health`] into a caller-owned vector (cleared first): one
    /// lock round trip for all shards, and no allocation once `out` has
    /// held a snapshot and every shard serves.
    pub fn health_into(&self, out: &mut Vec<Option<ShardError>>) {
        let down = locked(&self.quarantine.down);
        out.clear();
        out.extend(down.iter().enumerate().map(|(shard, reason)| {
            let reason = reason.clone()?;
            Some(ShardError::Degraded { shard, reason })
        }));
    }

    /// Number of quarantined shards (0 = fully healthy).
    pub fn degraded_count(&self) -> usize {
        self.quarantine
            .snapshot()
            .iter()
            .filter(|r| r.is_some())
            .count()
    }

    /// The typed error for `shard` if it is quarantined.
    pub fn shard_status(&self, shard: usize) -> Option<ShardError> {
        self.quarantine
            .reason(shard)
            .map(|reason| ShardError::Degraded { shard, reason })
    }

    /// Quarantines `shard` by hand — the hook for shard-local *storage*
    /// failures, which surface at whatever layer owns the shard's
    /// persistence (this crate's engines are storage-agnostic). A shard
    /// already down keeps its original reason.
    pub fn quarantine_shard(&self, shard: usize, reason: impl Into<String>) {
        assert!(shard < self.shards.len(), "shard index out of range");
        self.quarantine.put_down(shard, reason.into());
    }

    /// Returns `shard` to service. Takes `&self`, matching
    /// [`Self::quarantine_shard`]: both are transitions of the interior-
    /// mutable quarantine ledger (a `Mutex`-guarded vector that is consistent
    /// after every single mutation), not of shard *data*. Repairing the data
    /// still requires `&mut self` (via [`Dictionary::bulk_load`], which
    /// restores automatically) or goes through the persistence owner outside
    /// this type; by the time `restore_shard` is called the shard's contents
    /// are valid by contract, so a reader racing the restore observes either
    /// a typed refusal (pre-restore) or a correct answer from the repaired
    /// shard (post-restore) — never torn state. The symmetric `&self`
    /// contract is what lets a server's health-management thread re-admit a
    /// repaired shard through a shared reference while batch traffic keeps
    /// draining, instead of demanding exclusive ownership of the whole
    /// service (see `DESIGN.md` §network front-end).
    pub fn restore_shard(&self, shard: usize) {
        assert!(shard < self.shards.len(), "shard index out of range");
        self.quarantine.restore(shard);
    }

    /// The lowest-indexed quarantined shard's typed error, if any shard is
    /// down — the refusal the fallible navigation surface reports when a
    /// quarantined shard could own an answer.
    fn first_degraded(&self) -> Option<ShardError> {
        self.quarantine
            .snapshot()
            .into_iter()
            .enumerate()
            .find_map(|(shard, reason)| reason.map(|reason| ShardError::Degraded { shard, reason }))
    }

    /// Fallible [`Dictionary::successor`]: refuses with
    /// `Err(ShardError::Degraded)` when a quarantined shard *could* own the
    /// answer, instead of the infallible surface's silent omission.
    ///
    /// The healthy shards' merged answer is provably complete in exactly one
    /// case: it is the probe key itself. Every key lives on exactly one
    /// shard, and no key can be strictly closer to `key` from above than
    /// `key`, so an exact hit cannot be beaten by anything a quarantined
    /// shard holds. In every other case the quarantined shard's keys —
    /// arbitrary under seeded hashing — could include one strictly between
    /// `key` and the best healthy answer, and the service refuses rather
    /// than return a silently wrong successor.
    pub fn try_successor(&self, key: &D::Key) -> NavResult<D::Key, D::Value> {
        let answer = self.successor(key);
        match self.first_degraded() {
            Some(err) => match &answer {
                Some((k, _)) if k == key => Ok(answer),
                _ => Err(err),
            },
            None => Ok(answer),
        }
    }

    /// Fallible [`Dictionary::predecessor`]: refuses with
    /// `Err(ShardError::Degraded)` when a quarantined shard could own the
    /// answer (see [`Self::try_successor`] — the exact-hit argument is
    /// symmetric from below).
    pub fn try_predecessor(&self, key: &D::Key) -> NavResult<D::Key, D::Value> {
        let answer = self.predecessor(key);
        match self.first_degraded() {
            Some(err) => match &answer {
                Some((k, _)) if k == key => Ok(answer),
                _ => Err(err),
            },
            None => Ok(answer),
        }
    }

    /// Fallible lookup: `Err(ShardError::Degraded)` when the key routes to a
    /// quarantined shard, instead of the infallible surface's silent `None`.
    pub fn try_get(&self, key: &D::Key) -> Result<Option<D::Value>, ShardError> {
        let shard = self.router.route(key);
        match self.quarantine.reason(shard) {
            Some(reason) => Err(ShardError::Degraded { shard, reason }),
            None => Ok(self.shards[shard].get(key)),
        }
    }

    /// Fallible insert: refuses (typed) instead of dropping the write when
    /// the key routes to a quarantined shard.
    pub fn try_insert(
        &mut self,
        key: D::Key,
        value: D::Value,
    ) -> Result<Option<D::Value>, ShardError> {
        let shard = self.router.route(&key);
        match self.quarantine.reason(shard) {
            Some(reason) => Err(ShardError::Degraded { shard, reason }),
            None => Ok(self.shards[shard].insert(key, value)),
        }
    }

    /// Fallible remove: refuses (typed) instead of silently missing when the
    /// key routes to a quarantined shard.
    pub fn try_remove(&mut self, key: &D::Key) -> Result<Option<D::Value>, ShardError> {
        let shard = self.router.route(key);
        match self.quarantine.reason(shard) {
            Some(reason) => Err(ShardError::Degraded { shard, reason }),
            None => Ok(self.shards[shard].remove(key)),
        }
    }

    /// Groups `pairs` by destination shard, preserving relative order.
    fn partition_pairs(
        &self,
        pairs: impl IntoIterator<Item = KeyValue<D::Key, D::Value>>,
    ) -> Vec<Vec<KeyValue<D::Key, D::Value>>> {
        let mut parts: Vec<Vec<KeyValue<D::Key, D::Value>>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (k, v) in pairs {
            parts[self.router.route(&k)].push((k, v));
        }
        parts
    }

    /// Inserts every pair, batched per shard. Semantically identical to
    /// calling [`Dictionary::insert`] per pair in order: pairs routed to the
    /// same shard are applied in their batch order, so later duplicates win,
    /// and the resulting layout is bit-identical no matter how the caller
    /// split the stream into batches — per-shard subsequences are invariant
    /// under batch partitioning.
    pub fn multi_put(&mut self, pairs: impl IntoIterator<Item = KeyValue<D::Key, D::Value>>) {
        self.multi_apply(pairs.into_iter().map(|(k, v)| BatchOp::Put(k, v)));
    }

    /// Removes every key in `keys`, batched per shard. Returns how many were
    /// present.
    pub fn multi_remove(&mut self, keys: impl IntoIterator<Item = D::Key>) -> usize {
        self.multi_apply(keys.into_iter().map(BatchOp::Remove))
    }

    /// Applies a mixed batch of keyed operations: each one goes straight
    /// to its shard's [`Dictionary::insert`] or [`Dictionary::remove`], in
    /// arrival order, on the calling thread, so any cut of a stream into
    /// batches leaves the same shards. Nothing is buffered, so no buffer
    /// outlives a removed key. Returns how many removes found their key.
    /// The service's own [`Dictionary::apply_batch`] is this call.
    pub fn multi_apply(
        &mut self,
        ops: impl IntoIterator<Item = BatchOp<D::Key, D::Value>>,
    ) -> usize {
        // `&mut self`: the quarantine ledger needs no lock round trip.
        let down = self
            .quarantine
            .down
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut hits = 0;
        for op in ops {
            let i = self.router.route(op.key());
            if down[i].is_some() {
                continue;
            }
            let shard = &mut self.shards[i];
            // A panicking engine is contained, not propagated: the shard is
            // quarantined and the rest of the batch runs.
            match catch_unwind(AssertUnwindSafe(|| match op {
                BatchOp::Put(k, v) => drop(shard.insert(k, v)),
                BatchOp::Remove(k) => hits += usize::from(shard.remove(&k).is_some()),
            })) {
                Ok(()) => {}
                Err(payload) => down[i] = Some(panic_message(payload.as_ref())),
            }
        }
        hits
    }

    /// Looks up every key of `keys`, batched per shard, returning the values
    /// in input order. Each shard receives its probes as one
    /// [`Dictionary::get_many`] call, which sorts them and reuses a descent
    /// finger across consecutive keys instead of restarting at the root per
    /// probe; the original order is restored by scattering through the
    /// recorded index permutation. Read-only: shards are shared (`&self`),
    /// so callers can run `multi_get` from many threads concurrently. The
    /// service's own [`Dictionary::get_many`] is this call.
    pub fn multi_get(&self, keys: &[D::Key]) -> Vec<Option<D::Value>> {
        let mut parts: Vec<Vec<usize>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, k) in keys.iter().enumerate() {
            parts[self.router.route(k)].push(i);
        }
        let mut out: Vec<Option<D::Value>> = (0..keys.len()).map(|_| None).collect();
        for (i, (shard, part)) in self.shards.iter().zip(&parts).enumerate() {
            if part.is_empty() || self.quarantine.is_down(i) {
                continue;
            }
            let probe: Vec<D::Key> = part.iter().map(|&i| keys[i].clone()).collect();
            // Contain a panicking engine: its probes stay `None`, the shard
            // is quarantined, the rest of the scatter proceeds.
            match catch_unwind(AssertUnwindSafe(|| shard.get_many(&probe))) {
                Ok(values) => {
                    for (&i, v) in part.iter().zip(values) {
                        out[i] = v;
                    }
                }
                Err(payload) => self.quarantine.put_down(i, panic_message(payload.as_ref())),
            }
        }
        out
    }
}

impl<D: Dictionary> Dictionary for ShardedDict<D>
where
    D::Key: Hash,
{
    type Key = D::Key;
    type Value = D::Value;

    /// Sums the *serving* shards; a quarantined shard's keys read as absent
    /// on the infallible surface (see the module docs on degradation).
    fn len(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantine.is_down(*i))
            .map(|(_, s)| s.len())
            .sum()
    }

    /// Writes routed to a quarantined shard are dropped (returning `None`);
    /// [`ShardedDict::try_insert`] is the refusing, typed form.
    fn insert(&mut self, key: D::Key, value: D::Value) -> Option<D::Value> {
        let shard = self.router.route(&key);
        if self.quarantine.is_down(shard) {
            return None;
        }
        self.shards[shard].insert(key, value)
    }

    /// Removes routed to a quarantined shard are dropped (returning `None`);
    /// [`ShardedDict::try_remove`] is the refusing, typed form.
    fn remove(&mut self, key: &D::Key) -> Option<D::Value> {
        let shard = self.router.route(key);
        if self.quarantine.is_down(shard) {
            return None;
        }
        self.shards[shard].remove(key)
    }

    /// Keys on a quarantined shard read as absent;
    /// [`ShardedDict::try_get`] is the refusing, typed form.
    fn get_ref(&self, key: &D::Key) -> Option<&D::Value> {
        let shard = self.router.route(key);
        if self.quarantine.is_down(shard) {
            return None;
        }
        self.shards[shard].get_ref(key)
    }

    /// Merges the *serving* shards' lazy range iterators into one ascending
    /// stream — allocation-free after the iterator is constructed, and
    /// snapshot consistent (the `&self` borrow excludes writers for the
    /// scan's whole lifetime). Quarantined shards' keys are omitted.
    fn range_iter<R: RangeBounds<D::Key>>(
        &self,
        range: R,
    ) -> impl Iterator<Item = (&D::Key, &D::Value)> {
        let (start, end) = cloned_bounds(&range);
        let quarantine = &self.quarantine;
        KWayMerge::new(
            self.shards
                .iter()
                .enumerate()
                .filter(move |(i, _)| !quarantine.is_down(*i))
                .map(move |(_, s)| s.range_iter((start.clone(), end.clone()))),
            |a: &(&D::Key, &D::Value), b: &(&D::Key, &D::Value)| a.0.cmp(b.0),
        )
    }

    fn successor(&self, key: &D::Key) -> Option<KeyValue<D::Key, D::Value>> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantine.is_down(*i))
            .filter_map(|(_, s)| s.successor(key))
            .min_by(|a, b| a.0.cmp(&b.0))
    }

    fn predecessor(&self, key: &D::Key) -> Option<KeyValue<D::Key, D::Value>> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantine.is_down(*i))
            .filter_map(|(_, s)| s.predecessor(key))
            .max_by(|a, b| a.0.cmp(&b.0))
    }

    /// Partitions `pairs` by shard and bulk-loads each shard with coins
    /// derived from `(seed, shard index)` — the layout becomes a pure
    /// function of `(contents, seed, S)`, independent of arrival order and
    /// of everything the structure held before.
    ///
    /// A rebuild replaces each shard's state wholesale, so every shard that
    /// loads successfully returns to service; a shard whose rebuild panics
    /// is (re-)quarantined and the others still load.
    fn bulk_load(
        &mut self,
        pairs: impl IntoIterator<Item = KeyValue<D::Key, D::Value>>,
        seed: u64,
    ) {
        let parts = self.partition_pairs(pairs);
        for (i, (shard, part)) in self.shards.iter_mut().zip(parts).enumerate() {
            match catch_unwind(AssertUnwindSafe(|| {
                shard.bulk_load(part, derive_seed(seed, i))
            })) {
                Ok(()) => self.quarantine.restore(i),
                Err(payload) => self.quarantine.put_down(i, panic_message(payload.as_ref())),
            }
        }
    }

    /// Calls [`ShardedDict::multi_put`], which streams `pairs` through the
    /// one batch body, so a panicking shard is contained here too.
    fn extend(&mut self, pairs: impl IntoIterator<Item = KeyValue<D::Key, D::Value>>) {
        self.multi_put(pairs)
    }

    /// Calls [`ShardedDict::multi_apply`], the one batch body.
    fn apply_batch(&mut self, ops: Vec<BatchOp<D::Key, D::Value>>) -> usize {
        self.multi_apply(ops)
    }

    /// Calls [`ShardedDict::multi_get`], the one batch body.
    fn get_many(&self, keys: &[D::Key]) -> Vec<Option<D::Value>> {
        self.multi_get(keys)
    }
}

impl<D: Dictionary + Instrumented> ShardedDict<D>
where
    D::Key: Hash,
{
    /// Aggregated block-transfer totals across every shard's tracer.
    pub fn io_stats(&self) -> IoStats {
        self.shards
            .iter()
            .map(Instrumented::io_stats)
            .fold(IoStats::default(), |acc, s| IoStats {
                reads: acc.reads + s.reads,
                writes: acc.writes + s.writes,
                accesses: acc.accesses + s.accesses,
            })
    }

    /// Aggregated operation totals across every shard's counter ledger.
    pub fn op_counters(&self) -> OpCounters {
        let mut total = OpCounters::new();
        for shard in &self.shards {
            total.absorb(&shard.op_counters());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::thread;

    /// A trivial shard engine for exercising the service layer in
    /// isolation from the real engines (those are covered by the root
    /// integration batteries).
    #[derive(Debug, Default, Clone)]
    struct MapDict {
        map: BTreeMap<u64, u64>,
        loads: usize,
        last_seed: u64,
    }

    impl Dictionary for MapDict {
        type Key = u64;
        type Value = u64;

        fn len(&self) -> usize {
            self.map.len()
        }

        fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
            self.map.insert(key, value)
        }

        fn remove(&mut self, key: &u64) -> Option<u64> {
            self.map.remove(key)
        }

        fn get_ref(&self, key: &u64) -> Option<&u64> {
            self.map.get(key)
        }

        fn range_iter<R: RangeBounds<u64>>(&self, range: R) -> impl Iterator<Item = (&u64, &u64)> {
            // The workspace's engines treat inverted ranges as empty;
            // BTreeMap::range panics on them, so normalise first.
            use std::ops::Bound;
            let (s, e) = cloned_bounds(&range);
            let inverted = match (&s, &e) {
                (Bound::Included(a), Bound::Included(b)) => a > b,
                (Bound::Included(a), Bound::Excluded(b))
                | (Bound::Excluded(a), Bound::Included(b))
                | (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
                _ => false,
            };
            let bounds = if inverted {
                (Bound::Excluded(u64::MAX), Bound::Unbounded)
            } else {
                (s, e)
            };
            self.map.range(bounds)
        }

        fn successor(&self, key: &u64) -> Option<(u64, u64)> {
            self.map.range(*key..).next().map(|(k, v)| (*k, *v))
        }

        fn predecessor(&self, key: &u64) -> Option<(u64, u64)> {
            self.map.range(..=*key).next_back().map(|(k, v)| (*k, *v))
        }

        fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (u64, u64)>, seed: u64) {
            self.map = pairs.into_iter().collect();
            self.loads += 1;
            self.last_seed = seed;
        }
    }

    impl Instrumented for MapDict {
        fn io_stats(&self) -> IoStats {
            IoStats {
                reads: self.map.len() as u64,
                writes: 1,
                accesses: 2,
            }
        }

        fn op_counters(&self) -> OpCounters {
            let mut c = OpCounters::new();
            c.inserts = self.map.len() as u64;
            c
        }
    }

    fn sharded(shards: usize) -> ShardedDict<MapDict> {
        ShardedDict::build_with(ShardRouter::new(0xFACADE, shards), |_, _| {
            MapDict::default()
        })
    }

    /// An engine with a seeded bug: touching the poison key panics — the
    /// stand-in for a shard-local invariant violation surfacing mid-batch.
    #[derive(Debug, Clone)]
    struct FlakyDict {
        inner: MapDict,
        poison: u64,
    }

    impl FlakyDict {
        fn new(poison: u64) -> Self {
            Self {
                inner: MapDict::default(),
                poison,
            }
        }
    }

    impl Dictionary for FlakyDict {
        type Key = u64;
        type Value = u64;

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
            if key == self.poison {
                panic!("engine bug: poison key {key}");
            }
            self.inner.insert(key, value)
        }

        fn remove(&mut self, key: &u64) -> Option<u64> {
            self.inner.remove(key)
        }

        fn get_ref(&self, key: &u64) -> Option<&u64> {
            if *key == self.poison {
                panic!("engine bug: poison probe {key}");
            }
            self.inner.get_ref(key)
        }

        fn range_iter<R: RangeBounds<u64>>(&self, range: R) -> impl Iterator<Item = (&u64, &u64)> {
            self.inner.range_iter(range)
        }

        fn successor(&self, key: &u64) -> Option<(u64, u64)> {
            self.inner.successor(key)
        }

        fn predecessor(&self, key: &u64) -> Option<(u64, u64)> {
            self.inner.predecessor(key)
        }

        fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (u64, u64)>, seed: u64) {
            let pairs: Vec<(u64, u64)> = pairs.into_iter().collect();
            if pairs.iter().any(|(k, _)| *k == self.poison) {
                panic!("engine bug: poison key in bulk load");
            }
            self.inner.bulk_load(pairs, seed);
        }
    }

    const POISON: u64 = 666;

    fn flaky(shards: usize) -> ShardedDict<FlakyDict> {
        ShardedDict::build_with(ShardRouter::new(0xFACADE, shards), |_, _| {
            FlakyDict::new(POISON)
        })
    }

    #[test]
    fn a_worker_panic_quarantines_only_its_shard() {
        // The batch runs on the caller's thread, one shard after another; a
        // panic in one shard's slice quarantines that shard and no other.
        let mut d = flaky(4);
        let bad = d.shard_of(&POISON);
        // The poison sits mid-batch: keys on the healthy shards on either
        // side of it still land.
        let mut batch: Vec<(u64, u64)> = (0..400u64).map(|k| (k, k + 1)).collect();
        batch.insert(200, (POISON, 0));
        d.multi_put(batch);

        assert_eq!(d.degraded_count(), 1);
        match d.shard_status(bad) {
            Some(ShardError::Degraded { shard, reason }) => {
                assert_eq!(shard, bad);
                assert!(reason.contains("engine bug"), "{reason}");
            }
            None => panic!("poisoned shard must be quarantined"),
        }
        // The healthy shards keep serving; the degraded shard's keys read
        // as absent on the infallible surface.
        for k in 0..400u64 {
            if d.shard_of(&k) == bad {
                assert_eq!(d.get(&k), None, "key {k}");
            } else {
                assert_eq!(d.get(&k), Some(k + 1), "key {k}");
            }
        }
        // …and as a typed error on the fallible one.
        match d.try_get(&POISON) {
            Err(ShardError::Degraded { shard, .. }) => assert_eq!(shard, bad),
            other => panic!("expected Degraded, got {other:?}"),
        }
        // Aggregates quantify over serving shards only.
        let healthy: Vec<u64> = (0..400u64).filter(|k| d.shard_of(k) != bad).collect();
        assert_eq!(d.len(), healthy.len());
        let scanned: Vec<u64> = d.range_iter(..).map(|(k, _)| *k).collect();
        assert_eq!(scanned, healthy);
    }

    #[test]
    fn an_inline_batch_panic_is_contained_too() {
        // A batch of three is contained the same way as a large one, and so
        // is the trait's `extend`.
        for extend in [false, true] {
            let mut d = flaky(4);
            let bad = d.shard_of(&POISON);
            let pairs = [(1, 10), (POISON, 0), (2, 20)];
            if extend {
                Dictionary::extend(&mut d, pairs);
            } else {
                d.multi_put(pairs);
            }
            assert_eq!(d.degraded_count(), 1, "extend {extend}");
            assert!(d.shard_status(bad).is_some());
            for (k, v) in [(1u64, 10u64), (2, 20)] {
                if d.shard_of(&k) != bad {
                    assert_eq!(d.get(&k), Some(v));
                }
            }
        }
    }

    #[test]
    fn a_reader_panic_degrades_its_probes_to_none() {
        // Both batched read doors contain the panic: the inherent
        // `multi_get` and the trait's `get_many`.
        type Probe = fn(&ShardedDict<FlakyDict>, &[u64]) -> Vec<Option<u64>>;
        let doors: [(&str, Probe); 2] = [
            ("multi_get", |d, keys| d.multi_get(keys)),
            ("get_many", |d, keys| d.get_many(keys)),
        ];
        for (door, probe) in doors {
            let mut d = flaky(4);
            d.multi_put((0..100u64).map(|k| (k, k * 2)));
            assert_eq!(d.degraded_count(), 0);
            let bad = d.shard_of(&POISON);
            let keys: Vec<u64> = vec![1, 2, POISON, 3];
            let got = probe(&d, &keys);
            assert_eq!(d.degraded_count(), 1, "{door}");
            for (k, v) in keys.iter().zip(got) {
                if d.shard_of(k) == bad {
                    assert_eq!(v, None, "{door}: probe {k} rode the panicked shard");
                } else {
                    assert_eq!(v, Some(k * 2), "{door}: probe {k} on a healthy shard");
                }
            }
        }
    }

    #[test]
    fn bulk_load_readmits_a_quarantined_shard() {
        let mut d = flaky(4);
        d.multi_put(vec![(POISON, 0)]);
        assert_eq!(d.degraded_count(), 1);
        // A wholesale rebuild with clean contents re-validates every shard.
        d.bulk_load((0..100u64).map(|k| (k, k)), 9);
        assert_eq!(d.degraded_count(), 0);
        assert_eq!(d.len(), 100);
    }

    #[test]
    fn manual_quarantine_refuses_typed_and_restore_readmits() {
        let mut d = sharded(3);
        d.multi_put((0..30u64).map(|k| (k, k)));
        d.quarantine_shard(1, "storage: checksum mismatch at block 7");
        let k = (0..30u64)
            .find(|k| d.shard_of(k) == 1)
            .expect("some key routes to shard 1");
        let err = d
            .try_insert(k, 99)
            .expect_err("quarantined shard must refuse");
        assert_eq!(
            err,
            ShardError::Degraded {
                shard: 1,
                reason: "storage: checksum mismatch at block 7".into()
            }
        );
        assert_eq!(
            err.to_string(),
            "shard 1 is quarantined: storage: checksum mismatch at block 7"
        );
        assert!(d.try_get(&k).is_err());
        assert!(d.try_remove(&k).is_err());
        // The infallible surface drops instead of refusing.
        assert_eq!(d.insert(k, 99), None);
        assert_eq!(d.get(&k), None);
        d.restore_shard(1);
        assert_eq!(d.degraded_count(), 0);
        // The dropped write really was dropped; the pre-quarantine value
        // survives untouched.
        assert_eq!(d.get(&k), Some(k));
        assert_eq!(d.try_insert(k, 7).expect("restored shard serves"), Some(k));
    }

    #[test]
    fn try_navigation_refuses_when_a_quarantined_shard_could_answer() {
        let mut d = sharded(4);
        d.multi_put((0..400u64).map(|k| (k, k * 10)));
        // Healthy service: the fallible surface agrees with the infallible
        // one everywhere.
        for k in [0u64, 7, 199, 399, 400, 1_000] {
            assert_eq!(d.try_successor(&k).expect("healthy"), d.successor(&k));
            assert_eq!(d.try_predecessor(&k).expect("healthy"), d.predecessor(&k));
        }
        d.quarantine_shard(2, "injected: scrub failure");
        let expected = ShardError::Degraded {
            shard: 2,
            reason: "injected: scrub failure".into(),
        };
        // An exact hit on a healthy shard is provably complete — keys live
        // on exactly one shard, and nothing can be strictly closer to k
        // than k itself.
        let healthy_key = (0..400u64)
            .find(|k| d.shard_of(k) != 2)
            .expect("some key routes to a healthy shard");
        assert_eq!(
            d.try_successor(&healthy_key).expect("exact hit is safe"),
            Some((healthy_key, healthy_key * 10))
        );
        assert_eq!(
            d.try_predecessor(&healthy_key).expect("exact hit is safe"),
            Some((healthy_key, healthy_key * 10))
        );
        // A probe whose exact key lives on the down shard can't produce an
        // exact hit, so it must refuse rather than return the silently
        // wrong neighbour the infallible surface yields.
        let down_key = (0..400u64)
            .find(|k| d.shard_of(k) == 2)
            .expect("some key routes to shard 2");
        assert_eq!(d.try_successor(&down_key).expect_err("refuses"), expected);
        assert_eq!(d.try_predecessor(&down_key).expect_err("refuses"), expected);
        // Probes past both ends miss every shard — the down shard could
        // still own the answer from the probe's perspective, so refuse.
        assert_eq!(d.try_successor(&10_000).expect_err("refuses"), expected);
        assert_eq!(d.try_predecessor(&10_000), Err(expected.clone()));
        // Restoring through a shared reference re-admits the shard: the
        // ledger is interior-mutable, symmetric with quarantine_shard.
        let shared: &ShardedDict<MapDict> = &d;
        shared.restore_shard(2);
        assert_eq!(
            d.try_successor(&down_key).expect("healthy again"),
            Some((down_key, down_key * 10))
        );
        assert_eq!(
            d.try_predecessor(&down_key).expect("healthy again"),
            Some((down_key, down_key * 10))
        );
    }

    #[test]
    fn a_cloned_service_carries_the_quarantine_ledger() {
        let mut d = flaky(4);
        d.multi_put(vec![(POISON, 0)]);
        let cloned = d.clone();
        assert_eq!(cloned.degraded_count(), 1);
        assert_eq!(
            cloned.shard_status(d.shard_of(&POISON)),
            d.shard_status(d.shard_of(&POISON))
        );
    }

    #[test]
    fn sharded_dict_is_send_and_sync() {
        // Compile-time audit: the whole point of the service layer.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedDict<MapDict>>();
    }

    #[test]
    fn single_key_operations_match_a_flat_map() {
        let mut d = sharded(5);
        let mut oracle = BTreeMap::new();
        for i in 0..2_000u64 {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 512;
            assert_eq!(d.insert(k, i), oracle.insert(k, i), "insert {k}");
        }
        assert_eq!(d.len(), oracle.len());
        for k in 0..512u64 {
            assert_eq!(d.get_ref(&k), oracle.get(&k), "get {k}");
            assert_eq!(
                d.successor(&k),
                oracle.range(k..).next().map(|(a, b)| (*a, *b)),
                "succ {k}"
            );
            assert_eq!(
                d.predecessor(&k),
                oracle.range(..=k).next_back().map(|(a, b)| (*a, *b)),
                "pred {k}"
            );
        }
        for k in (0..512u64).step_by(3) {
            assert_eq!(d.remove(&k), oracle.remove(&k), "remove {k}");
        }
        assert_eq!(
            d.to_sorted_vec(),
            oracle.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_iter_merges_across_shards_in_order() {
        let mut d = sharded(7);
        for k in 0..1_000u64 {
            d.insert(k, k * 2);
        }
        let all: Vec<u64> = d.range_iter(..).map(|(k, _)| *k).collect();
        assert_eq!(all, (0..1_000).collect::<Vec<_>>());
        let window: Vec<u64> = d.range_iter(250..=260).map(|(k, _)| *k).collect();
        assert_eq!(window, (250..=260).collect::<Vec<_>>());
        // Inverted bounds yield an empty scan, matching the engines'
        // uniform contract.
        #[allow(
            clippy::reversed_empty_ranges,
            reason = "the inverted range is the case under test"
        )]
        let inverted = 600..300;
        assert_eq!(d.range_iter(inverted).count(), 0);
    }

    #[test]
    fn batched_ops_match_sequential_ops_bit_for_bit() {
        // Same stream, four splits: per-op, small batches, one giant batch,
        // and the trait's `extend` (`multi_put`, streamed).
        // Shard states must be identical — the per-shard subsequence is
        // invariant under batch partitioning.
        let stream: Vec<(u64, u64)> = (0..3_000u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 997, i))
            .collect();

        let mut per_op = sharded(6);
        for (k, v) in &stream {
            per_op.insert(*k, *v);
        }

        let mut batched = sharded(6);
        for chunk in stream.chunks(113) {
            batched.multi_put(chunk.to_vec());
        }

        let mut single_batch = sharded(6);
        single_batch.multi_put(stream.clone());

        let mut extended = sharded(6);
        Dictionary::extend(&mut extended, stream.iter().copied());

        for (label, d) in [
            ("batches of 113", &batched),
            ("one batch", &single_batch),
            ("extend", &extended),
        ] {
            for i in 0..6 {
                assert_eq!(
                    per_op.shards()[i].map,
                    d.shards()[i].map,
                    "{label}: shard {i}"
                );
            }
        }
    }

    #[test]
    fn multi_get_returns_values_in_input_order() {
        let mut d = sharded(4);
        d.multi_put((0..500u64).map(|k| (k, k + 1)));
        let keys: Vec<u64> = vec![499, 3, 1_000, 0, 77, 2_000];
        let expected: Vec<Option<u64>> = vec![Some(500), Some(4), None, Some(1), Some(78), None];
        assert_eq!(d.multi_get(&keys), expected);
        assert_eq!(d.get_many(&keys), expected);
    }

    #[test]
    fn multi_remove_counts_hits() {
        let mut d = sharded(3);
        d.multi_put((0..100u64).map(|k| (k, k)));
        assert_eq!(d.multi_remove(vec![1, 2, 3, 500]), 3);
        assert_eq!(d.len(), 97);
        assert_eq!(d.multi_remove((0..200u64).collect::<Vec<_>>()), 97);
        assert!(d.is_empty());
    }

    #[test]
    fn bulk_load_partitions_and_derives_per_shard_seeds() {
        let mut d = sharded(4);
        d.insert(424242, 1); // must be discarded by the load
        d.bulk_load((0..400u64).map(|k| (k, k)), 0xB01D);
        assert_eq!(d.len(), 400);
        assert_eq!(d.get(&424242), None);
        let seeds: Vec<u64> = d.shards().iter().map(|s| s.last_seed).collect();
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, derive_seed(0xB01D, i), "shard {i} seed");
            assert_eq!(d.shards()[i].loads, 1);
        }

        // Reversed arrival order loads bit-identical shards.
        let mut p = sharded(4);
        p.bulk_load((0..400u64).rev().map(|k| (k, k)), 0xB01D);
        for i in 0..4 {
            assert_eq!(d.shards()[i].map, p.shards()[i].map, "shard {i}");
            assert_eq!(d.shards()[i].last_seed, p.shards()[i].last_seed);
        }
    }

    #[test]
    fn instrumentation_rolls_up_across_shards() {
        let mut d = sharded(3);
        d.multi_put((0..90u64).map(|k| (k, k)));
        let io = d.io_stats();
        assert_eq!(io.reads, 90);
        assert_eq!(io.writes, 3);
        assert_eq!(io.accesses, 6);
        assert_eq!(d.op_counters().inserts, 90);
    }

    #[test]
    fn concurrent_readers_share_the_service() {
        let mut d = sharded(4);
        d.multi_put((0..2_000u64).map(|k| (k, k * 3)));
        thread::scope(|s| {
            for t in 0..4 {
                let d = &d;
                s.spawn(move || {
                    let keys: Vec<u64> = (0..500u64).map(|i| i * 4 + t).collect();
                    let got = d.multi_get(&keys);
                    for (k, v) in keys.iter().zip(got) {
                        assert_eq!(v, Some(k * 3));
                    }
                    assert_eq!(d.range_iter(100..200).count(), 100);
                });
            }
        });
    }
}
