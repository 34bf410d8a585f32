//! Reservoir sampling with deletes (paper §3.2).
//!
//! The PMA keeps one *balance element* per range, and Invariant 6 requires
//! the balance element to be uniformly distributed over the range's candidate
//! set after every operation. The paper maintains this with a reservoir of
//! size one extended to handle deletions:
//!
//! * when a new element joins the candidate set of current size `m`, it
//!   becomes the leader with probability `1/m`;
//! * when the leader leaves the candidate set (either because it was deleted
//!   or because the set's window slid past it), a new leader is drawn
//!   uniformly from the remaining candidates;
//! * when a non-leader leaves, nothing happens.
//!
//! [`ReservoirLeader`] implements exactly this game over an abstract universe
//! of candidate identifiers. The PMA uses it with *ranks relative to the
//! candidate window*, but the module is generic so the tests can exercise the
//! distributional guarantee (Lemma 5) in isolation.

use rand::Rng;

/// Decision returned by the reservoir when the candidate set changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaderChange {
    /// The previous leader remains the leader.
    Unchanged,
    /// A new leader was chosen; the payload is its index in the *current*
    /// candidate set (0-based).
    Elected(usize),
}

impl LeaderChange {
    /// Returns `true` when the leader changed.
    pub fn changed(&self) -> bool {
        matches!(self, LeaderChange::Elected(_))
    }
}

/// A size-one reservoir sampler over a dynamic candidate set, tracked by the
/// leader's 0-based index within the set.
///
/// The caller is responsible for describing how the candidate set evolves
/// (who enters, who leaves, how indices shift); the reservoir only decides
/// *who leads*. This mirrors how the PMA uses it: the candidate set is an
/// implicit window of ranks, and the PMA knows how an insert or delete shifts
/// that window.
///
/// # Examples
///
/// ```
/// use hi_common::reservoir::ReservoirLeader;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // A candidate set of 8 elements, leader drawn uniformly.
/// let mut res = ReservoirLeader::elect(8, &mut rng);
/// assert!(res.leader_index() < 8);
/// // A new element replaces the candidate at index 3 (set size unchanged).
/// res.candidate_replaced(3, &mut rng);
/// assert!(res.leader_index() < 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservoirLeader {
    size: usize,
    leader: usize,
}

impl ReservoirLeader {
    /// Elects an initial leader uniformly from a candidate set of `size`
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn elect<R: Rng + ?Sized>(size: usize, rng: &mut R) -> Self {
        assert!(size > 0, "candidate set must be non-empty");
        Self {
            size,
            leader: rng.gen_range(0..size),
        }
    }

    /// Creates a reservoir with a known leader (used when rebuilding a range
    /// re-elects leaders for all sub-ranges in one pass).
    ///
    /// # Panics
    ///
    /// Panics if `leader >= size`.
    pub fn with_leader(size: usize, leader: usize) -> Self {
        assert!(leader < size, "leader index out of bounds");
        Self { size, leader }
    }

    /// Size of the candidate set.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Returns `true` if the candidate set is empty (never true for a
    /// constructed reservoir; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Current leader's index within the candidate set.
    pub fn leader_index(&self) -> usize {
        self.leader
    }

    /// A brand-new element arrives at index `pos` and the element previously
    /// at the *other* end leaves, keeping the set size constant. This is the
    /// PMA's common case: the candidate window slides by one.
    ///
    /// `departed` is the index (before the shift) of the element that left.
    /// Indices of surviving elements shift accordingly; the new element is
    /// offered the leadership with probability `1/size` (standard reservoir
    /// step). If the departing element *was* the leader, a fresh leader is
    /// drawn uniformly from the survivors plus the newcomer.
    pub fn slide<R: Rng + ?Sized>(
        &mut self,
        departed: usize,
        arrived: usize,
        rng: &mut R,
    ) -> LeaderChange {
        debug_assert!(departed < self.size);
        debug_assert!(arrived < self.size);
        if self.leader == departed {
            // Leader left: re-elect uniformly over the new candidate set.
            self.leader = rng.gen_range(0..self.size);
            return LeaderChange::Elected(self.leader);
        }
        // Shift the surviving leader's index to account for the departure
        // and arrival. The window slides by one position, so a leader between
        // the two endpoints moves by one slot.
        if departed < arrived {
            // Window slid right: survivors shift left by one.
            if self.leader > departed {
                self.leader -= 1;
            }
        } else if departed > arrived {
            // Window slid left: survivors shift right by one.
            if self.leader < departed {
                self.leader += 1;
            }
        }
        // Reservoir step for the newcomer.
        if rng.gen_range(0..self.size) == 0 {
            self.leader = arrived;
            LeaderChange::Elected(arrived)
        } else {
            LeaderChange::Unchanged
        }
    }

    /// The candidate at index `pos` is replaced in place by a new element
    /// (e.g. a delete immediately followed by the window absorbing a
    /// neighbour at the same position). The newcomer is offered leadership
    /// with probability `1/size`; if the replaced candidate was the leader a
    /// fresh leader is drawn uniformly.
    pub fn candidate_replaced<R: Rng + ?Sized>(&mut self, pos: usize, rng: &mut R) -> LeaderChange {
        debug_assert!(pos < self.size);
        if self.leader == pos {
            self.leader = rng.gen_range(0..self.size);
            return LeaderChange::Elected(self.leader);
        }
        if rng.gen_range(0..self.size) == 0 {
            self.leader = pos;
            LeaderChange::Elected(pos)
        } else {
            LeaderChange::Unchanged
        }
    }

    /// Forces a uniform re-election (used after a range rebuild).
    pub fn reelect<R: Rng + ?Sized>(&mut self, rng: &mut R) -> LeaderChange {
        self.leader = rng.gen_range(0..self.size);
        LeaderChange::Elected(self.leader)
    }
}

/// Reference implementation of reservoir sampling with deletes over an
/// explicit set, used by tests and by the statistics harness to validate the
/// windowed version above.
///
/// Elements are arbitrary `u64` identifiers. The structure maintains a
/// uniformly random leader under arbitrary interleavings of `insert` and
/// `remove` (Lemma 5).
#[derive(Debug, Clone)]
pub struct ExplicitReservoir {
    members: Vec<u64>,
    leader: Option<usize>,
}

impl ExplicitReservoir {
    /// Creates an empty reservoir.
    pub fn new() -> Self {
        Self {
            members: Vec::new(),
            leader: None,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when the reservoir has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Current leader, if any.
    pub fn leader(&self) -> Option<u64> {
        self.leader.map(|i| self.members[i])
    }

    /// Adds a member; it becomes leader with probability `1/len`.
    pub fn insert<R: Rng + ?Sized>(&mut self, id: u64, rng: &mut R) {
        self.members.push(id);
        let n = self.members.len();
        if self.leader.is_none() || rng.gen_range(0..n) == 0 {
            self.leader = Some(n - 1);
        }
    }

    /// Removes a member (no-op if absent). If the leader is removed a new
    /// leader is elected uniformly from the remaining members.
    pub fn remove<R: Rng + ?Sized>(&mut self, id: u64, rng: &mut R) {
        let Some(pos) = self.members.iter().position(|&m| m == id) else {
            return;
        };
        let was_leader = self.leader == Some(pos);
        self.members.swap_remove(pos);
        match self.leader {
            Some(l) if l == self.members.len() => {
                // The former last element was the leader and has been moved
                // into `pos` by swap_remove.
                self.leader = Some(pos);
            }
            _ => {}
        }
        if self.members.is_empty() {
            self.leader = None;
        } else if was_leader {
            self.leader = Some(rng.gen_range(0..self.members.len()));
        }
    }
}

impl Default for ExplicitReservoir {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chi2_uniform(counts: &[usize]) -> f64 {
        let total: usize = counts.iter().sum();
        let expected = total as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    #[test]
    fn elect_is_in_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        for size in 1..64 {
            let r = ReservoirLeader::elect(size, &mut rng);
            assert!(r.leader_index() < size);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn elect_empty_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        ReservoirLeader::elect(0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn with_leader_out_of_bounds_panics() {
        ReservoirLeader::with_leader(4, 4);
    }

    #[test]
    fn initial_election_is_uniform() {
        let size = 10;
        let trials = 20_000;
        let mut counts = vec![0usize; size];
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(t as u64);
            let r = ReservoirLeader::elect(size, &mut rng);
            counts[r.leader_index()] += 1;
        }
        // 9 dof, 99.9% quantile ≈ 27.9.
        assert!(chi2_uniform(&counts) < 27.9, "counts = {counts:?}");
    }

    #[test]
    fn slide_keeps_leader_uniform() {
        // Slide the window right many times; the leader should remain
        // uniform over the 8 window positions.
        let size = 8;
        let trials = 16_000;
        let slides = 40;
        let mut counts = vec![0usize; size];
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(900_000 + t as u64);
            let mut r = ReservoirLeader::elect(size, &mut rng);
            for _ in 0..slides {
                // Window slides right: index 0 departs, newcomer lands at the
                // last index.
                r.slide(0, size - 1, &mut rng);
            }
            counts[r.leader_index()] += 1;
        }
        // 7 dof, 99.9% quantile ≈ 24.3.
        assert!(chi2_uniform(&counts) < 24.3, "counts = {counts:?}");
    }

    #[test]
    fn slide_left_keeps_leader_uniform() {
        let size = 8;
        let trials = 16_000;
        let slides = 40;
        let mut counts = vec![0usize; size];
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(300_000 + t as u64);
            let mut r = ReservoirLeader::elect(size, &mut rng);
            for _ in 0..slides {
                // Window slides left: last index departs, newcomer at 0.
                r.slide(size - 1, 0, &mut rng);
            }
            counts[r.leader_index()] += 1;
        }
        assert!(chi2_uniform(&counts) < 24.3, "counts = {counts:?}");
    }

    #[test]
    fn replaced_keeps_leader_uniform() {
        let size = 6;
        let trials = 12_000;
        let mut counts = vec![0usize; size];
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(77_000 + t as u64);
            let mut r = ReservoirLeader::elect(size, &mut rng);
            for step in 0..30 {
                r.candidate_replaced(step % size, &mut rng);
            }
            counts[r.leader_index()] += 1;
        }
        // 5 dof, 99.9% quantile ≈ 20.5.
        assert!(chi2_uniform(&counts) < 20.5, "counts = {counts:?}");
    }

    #[test]
    fn explicit_reservoir_uniform_under_deletes() {
        // Insert 0..12, delete the evens, check leader uniform over odds.
        let trials = 12_000;
        let mut counts = std::collections::BTreeMap::new();
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(40_000 + t as u64);
            let mut res = ExplicitReservoir::new();
            for id in 0..12u64 {
                res.insert(id, &mut rng);
            }
            for id in (0..12u64).filter(|x| x % 2 == 0) {
                res.remove(id, &mut rng);
            }
            *counts.entry(res.leader().unwrap()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 6);
        let vec: Vec<usize> = (0..12u64)
            .filter(|x| x % 2 == 1)
            .map(|k| counts[&k])
            .collect();
        assert!(chi2_uniform(&vec) < 20.5, "counts = {vec:?}");
    }

    #[test]
    fn explicit_reservoir_empty_after_removing_all() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut res = ExplicitReservoir::new();
        for id in 0..5 {
            res.insert(id, &mut rng);
        }
        for id in 0..5 {
            res.remove(id, &mut rng);
        }
        assert!(res.is_empty());
        assert_eq!(res.leader(), None);
    }

    #[test]
    fn explicit_reservoir_remove_absent_is_noop() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut res = ExplicitReservoir::new();
        res.insert(1, &mut rng);
        res.remove(42, &mut rng);
        assert_eq!(res.len(), 1);
        assert_eq!(res.leader(), Some(1));
    }

    #[test]
    fn reelect_changes_are_in_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut r = ReservoirLeader::elect(5, &mut rng);
        for _ in 0..100 {
            let ev = r.reelect(&mut rng);
            assert!(ev.changed());
            assert!(r.leader_index() < 5);
        }
    }
}
