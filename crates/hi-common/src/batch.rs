//! Batches of keyed operations and sorted multi-key lookups.
//!
//! A history-independent structure's layout is a pure function of
//! *(contents, coins)*, and its coins are drawn in a canonical per-operation
//! order, so a batch of updates ([`BatchOp`]) is applied one operation at a
//! time, in arrival order: [`Dictionary::apply_batch`](crate::traits::Dictionary::apply_batch)
//! is that loop, and any partition of an arrival stream into batches leaves
//! the same state. Replaying the coins per operation while deferring the
//! element moves measured slower than the loop on served traffic (DESIGN.md
//! "Group commit"), so nothing is deferred.
//!
//! Reads have no coins to respect: [`get_many_keyed`] sorts the probe keys
//! and serves them with one shared left-to-right descent — a [`SeekFinger`]
//! resumes from the previous key's leaf instead of restarting at the root
//! ([`RankedSequence::lower_bound_seek_by`]).

use crate::traits::RankedSequence;

/// One keyed operation of a batch: an upsert or a removal.
///
/// A batch is an ordered sequence of these; duplicates are allowed and mean
/// exactly what the per-op loop would do (later writes win, a remove after a
/// put deletes the freshly written key, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp<K, V> {
    /// Insert or overwrite `key` with `value`.
    Put(K, V),
    /// Remove `key` if present.
    Remove(K),
}

impl<K, V> BatchOp<K, V> {
    /// The key the operation addresses.
    pub fn key(&self) -> &K {
        match self {
            BatchOp::Put(k, _) => k,
            BatchOp::Remove(k) => k,
        }
    }

    /// Returns `true` for [`BatchOp::Put`].
    pub fn is_put(&self) -> bool {
        matches!(self, BatchOp::Put(..))
    }
}

/// A resumable position for ascending ordered probes.
///
/// Engines interpret the fields themselves (`group` is a leaf/segment index,
/// `base_rank` the rank of its first element). A finger is only meaningful
/// between mutations: create a fresh one per read-only probe run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeekFinger {
    /// Engine-defined group (leaf / segment) the previous probe landed in.
    pub group: usize,
    /// Rank of the first element of that group at probe time.
    pub base_rank: usize,
    /// Whether the finger holds a position at all.
    pub valid: bool,
}

impl SeekFinger {
    /// A fresh, invalid finger.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Looks up every key of `keys` against a key-sorted [`RankedSequence`] of
/// pairs, returning cloned values in input order: the probes are sorted and
/// served by one resumable [`SeekFinger`], and the original order is
/// restored through the index permutation. `on_probe` fires once per key
/// (the keyed adapters hook their query counters in).
pub fn get_many_keyed<S, K, V>(seq: &S, keys: &[K], mut on_probe: impl FnMut()) -> Vec<Option<V>>
where
    S: RankedSequence<Item = (K, V)>,
    K: Ord + Clone,
    V: Clone,
{
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    let mut out: Vec<Option<V>> = (0..keys.len()).map(|_| None).collect();
    let mut finger = SeekFinger::new();
    for &i in &order {
        let key = &keys[i as usize];
        on_probe();
        let (_, probe) = seq.lower_bound_seek_by(&mut finger, |pair| pair.0.cmp(key));
        out[i as usize] = match probe {
            Some((k, v)) if k == key => Some(v.clone()),
            _ => None,
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::RankError;

    /// Trivial Vec-backed pair sequence (defaults = per-op application).
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

    #[test]
    fn batch_matches_per_op_loop() {
        use crate::traits::{Dictionary, RankedDict};
        let ops: Vec<BatchOp<u64, u64>> = vec![
            BatchOp::Put(5, 50),
            BatchOp::Put(1, 10),
            BatchOp::Put(5, 55),
            BatchOp::Remove(9),
            BatchOp::Put(9, 90),
            BatchOp::Remove(1),
            BatchOp::Put(3, 30),
            BatchOp::Remove(3),
            BatchOp::Put(3, 33),
        ];
        let mut dict = RankedDict::new(PairSeq(vec![(2, 20), (9, 99)]));
        let removed = dict.apply_batch(ops);
        assert_eq!(removed, 3);
        assert_eq!(dict.seq().0, vec![(2, 20), (3, 33), (5, 55), (9, 90)]);
        assert_eq!(
            dict.get_many(&[9, 1, 3, 2, 7]),
            vec![Some(90), None, Some(33), Some(20), None]
        );
    }
}
