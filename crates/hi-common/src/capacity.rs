//! The weakly history-independent dynamic-array capacity rule.
//!
//! Paper §2.1 (following Hartline et al.): a weakly history-independent
//! dynamic array storing `n` elements keeps its *capacity parameter*
//! `N̂` **uniformly distributed over `{n, …, 2n−1}`**, and resizes with
//! probability `Θ(1/N̂)` after each insert or delete. The PMA (paper §3.3)
//! reuses exactly this rule to pick its own size parameter `N̂`, from which
//! the slot count `N_S` is derived; the external-memory skip list reuses it
//! for its array sizes (Invariant 16 generalizes it with a lower bound).
//!
//! [`HiCapacity`] maintains the invariant *exactly* (not just asymptotically):
//! after every update the capacity parameter is uniform over the fresh range,
//! and the probability that an update forces a rebuild is `O(1/n)`, giving
//! `O(1)` amortized rebuild work. The incremental transition rule and the
//! proof sketch are documented on [`HiCapacity::on_insert`] and
//! [`HiCapacity::on_delete`].
//!
//! [`ShiCanonicalCapacity`] is the strongly-history-independent strawman used
//! by Observation 1: a canonical (deterministic) capacity per `n`. The
//! alternating adversary of Observation 1 forces it into an `Ω(n)` resize on
//! every operation; the `obs1` anchor of `ap_bench::paper` measures the separation.

use rand::Rng;

/// Outcome of notifying a capacity rule about an insert or delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityEvent {
    /// The capacity parameter is unchanged; the caller keeps its layout.
    Unchanged,
    /// The capacity parameter changed; the caller must rebuild its layout
    /// from scratch using the new parameter.
    Rebuild {
        /// The new capacity parameter `N̂`.
        new_n_hat: usize,
    },
}

impl CapacityEvent {
    /// Returns `true` when the event requires a rebuild.
    pub fn is_rebuild(&self) -> bool {
        matches!(self, CapacityEvent::Rebuild { .. })
    }
}

/// Weakly history-independent capacity parameter `N̂ ∈ {n, …, 2n−1}`.
///
/// # Examples
///
/// ```
/// use hi_common::capacity::HiCapacity;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut cap = HiCapacity::new();
/// for _ in 0..100 {
///     cap.on_insert(&mut rng);
/// }
/// assert_eq!(cap.len(), 100);
/// assert!(cap.n_hat() >= 100 && cap.n_hat() <= 199);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HiCapacity {
    n: usize,
    n_hat: usize,
}

impl HiCapacity {
    /// Creates an empty capacity tracker (`n = 0`, `N̂ = 0`).
    pub fn new() -> Self {
        Self { n: 0, n_hat: 0 }
    }

    /// Creates a tracker for `n` pre-existing elements, drawing `N̂`
    /// uniformly from `{n, …, 2n−1}`.
    pub fn with_len<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let n_hat = if n == 0 { 0 } else { rng.gen_range(n..2 * n) };
        Self { n, n_hat }
    }

    /// Number of elements currently tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when no elements are tracked.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current capacity parameter `N̂` (0 when empty).
    pub fn n_hat(&self) -> usize {
        self.n_hat
    }

    /// Re-draws `N̂` uniformly from the current legal range.
    ///
    /// Used when the owning structure rebuilds for an unrelated reason and
    /// wants fresh randomness; re-drawing from the same distribution
    /// preserves the invariant trivially.
    pub fn redraw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> CapacityEvent {
        if self.n == 0 {
            self.n_hat = 0;
            return CapacityEvent::Rebuild { new_n_hat: 0 };
        }
        self.n_hat = rng.gen_range(self.n..2 * self.n);
        CapacityEvent::Rebuild {
            new_n_hat: self.n_hat,
        }
    }

    /// Registers an insert (`n → n+1`) and reports whether a rebuild is due.
    ///
    /// Transition rule (`n` is the count *before* the insert, `n' = n+1`):
    ///
    /// * `n = 0`: the only legal value is `N̂ = 1`; rebuild.
    /// * `N̂ = n` (now below the legal range): rebuild with `N̂` uniform over
    ///   `{n', …, 2n'−1}`.
    /// * otherwise, with probability `2/n'` rebuild with `N̂` uniform over the
    ///   two newly legal top values `{2n'−2, 2n'−1}`; with the remaining
    ///   probability keep `N̂`.
    ///
    /// A short calculation shows every value of `{n', …, 2n'−1}` ends up with
    /// probability exactly `1/n'`, so the invariant is maintained exactly; the
    /// rebuild probability is at most `1/n + 2/(n+1) = O(1/n)`.
    pub fn on_insert<R: Rng + ?Sized>(&mut self, rng: &mut R) -> CapacityEvent {
        let n_new = self.n + 1;
        let event = if self.n == 0 {
            self.n_hat = 1;
            CapacityEvent::Rebuild { new_n_hat: 1 }
        } else if self.n_hat < n_new {
            // Forced: the old value fell out of the legal range.
            self.n_hat = rng.gen_range(n_new..2 * n_new);
            CapacityEvent::Rebuild {
                new_n_hat: self.n_hat,
            }
        } else if rng.gen_range(0..n_new) < 2 {
            // Lottery: move to one of the two newly legal top values.
            self.n_hat = 2 * n_new - 2 + rng.gen_range(0..2usize);
            CapacityEvent::Rebuild {
                new_n_hat: self.n_hat,
            }
        } else {
            CapacityEvent::Unchanged
        };
        self.n = n_new;
        event
    }

    /// Registers a delete (`n → n−1`) and reports whether a rebuild is due.
    ///
    /// Transition rule (`n` is the count *before* the delete, `n' = n−1`):
    ///
    /// * `n = 1`: the structure becomes empty; `N̂ = 0`.
    /// * `N̂ > 2n'−1` (now above the legal range): rebuild with `N̂` uniform
    ///   over `{n', …, 2n'−1}`.
    /// * otherwise, with probability `1/n'` rebuild with `N̂ = n'` (the newly
    ///   legal bottom value); with the remaining probability keep `N̂`.
    ///
    /// As with inserts, every value of the new range ends up with probability
    /// exactly `1/n'`.
    ///
    /// # Panics
    ///
    /// Panics if called on an empty tracker.
    pub fn on_delete<R: Rng + ?Sized>(&mut self, rng: &mut R) -> CapacityEvent {
        assert!(self.n > 0, "on_delete called on an empty HiCapacity");
        let n_new = self.n - 1;
        let event = if n_new == 0 {
            self.n_hat = 0;
            CapacityEvent::Rebuild { new_n_hat: 0 }
        } else if self.n_hat > 2 * n_new - 1 {
            self.n_hat = rng.gen_range(n_new..2 * n_new);
            CapacityEvent::Rebuild {
                new_n_hat: self.n_hat,
            }
        } else if rng.gen_range(0..n_new) == 0 {
            self.n_hat = n_new;
            CapacityEvent::Rebuild {
                new_n_hat: self.n_hat,
            }
        } else {
            CapacityEvent::Unchanged
        };
        self.n = n_new;
        event
    }
}

impl Default for HiCapacity {
    fn default() -> Self {
        Self::new()
    }
}

/// Strongly-history-independent (canonical) capacity rule — the Observation 1
/// strawman.
///
/// The capacity of an `n`-element array is the canonical value
/// `2^⌈log₂(n+1)⌉` (smallest power of two that keeps the array at most 50%
/// full is *not* required here; any fixed canonical function exhibits the
/// same lower bound). Every time the canonical value changes the array must
/// be rebuilt, so an adversary alternating inserts and deletes across a
/// power-of-two boundary forces an `Ω(n)`-cost rebuild on every operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShiCanonicalCapacity {
    n: usize,
}

impl ShiCanonicalCapacity {
    /// Creates an empty canonical-capacity tracker.
    pub fn new() -> Self {
        Self { n: 0 }
    }

    /// Creates a tracker for `n` pre-existing elements.
    pub fn with_len(n: usize) -> Self {
        Self { n }
    }

    /// Number of elements currently tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when no elements are tracked.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The canonical capacity for the current element count.
    pub fn capacity(&self) -> usize {
        Self::canonical(self.n)
    }

    /// The canonical capacity for `n` elements.
    pub fn canonical(n: usize) -> usize {
        if n == 0 {
            0
        } else {
            n.next_power_of_two()
        }
    }

    /// Registers an insert; returns a rebuild event when the canonical
    /// capacity changes.
    pub fn on_insert(&mut self) -> CapacityEvent {
        let before = self.capacity();
        self.n += 1;
        let after = self.capacity();
        if before == after {
            CapacityEvent::Unchanged
        } else {
            CapacityEvent::Rebuild { new_n_hat: after }
        }
    }

    /// Registers a delete; returns a rebuild event when the canonical
    /// capacity changes.
    ///
    /// # Panics
    ///
    /// Panics if called on an empty tracker.
    pub fn on_delete(&mut self) -> CapacityEvent {
        assert!(self.n > 0, "on_delete called on an empty tracker");
        let before = self.capacity();
        self.n -= 1;
        let after = self.capacity();
        if before == after {
            CapacityEvent::Unchanged
        } else {
            CapacityEvent::Rebuild { new_n_hat: after }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn starts_empty() {
        let cap = HiCapacity::new();
        assert_eq!(cap.len(), 0);
        assert_eq!(cap.n_hat(), 0);
        assert!(cap.is_empty());
    }

    #[test]
    fn first_insert_forces_one() {
        let mut cap = HiCapacity::new();
        let ev = cap.on_insert(&mut rng(0));
        assert_eq!(ev, CapacityEvent::Rebuild { new_n_hat: 1 });
        assert_eq!(cap.len(), 1);
        assert_eq!(cap.n_hat(), 1);
    }

    #[test]
    fn invariant_holds_under_random_ops() {
        let mut r = rng(3);
        let mut cap = HiCapacity::new();
        for step in 0..20_000u32 {
            let insert = cap.is_empty() || (step % 3 != 0);
            if insert {
                cap.on_insert(&mut r);
            } else {
                cap.on_delete(&mut r);
            }
            if !cap.is_empty() {
                assert!(cap.n_hat() >= cap.len(), "n_hat below range");
                assert!(cap.n_hat() < 2 * cap.len(), "n_hat above range");
            } else {
                assert_eq!(cap.n_hat(), 0);
            }
        }
    }

    #[test]
    fn delete_to_empty_resets() {
        let mut r = rng(5);
        let mut cap = HiCapacity::new();
        cap.on_insert(&mut r);
        let ev = cap.on_delete(&mut r);
        assert_eq!(ev, CapacityEvent::Rebuild { new_n_hat: 0 });
        assert!(cap.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn delete_on_empty_panics() {
        let mut r = rng(5);
        HiCapacity::new().on_delete(&mut r);
    }

    #[test]
    fn rebuild_probability_is_low() {
        // With n around 1000, per-op rebuild probability should be ~3/n.
        let mut r = rng(11);
        let mut cap = HiCapacity::new();
        for _ in 0..1000 {
            cap.on_insert(&mut r);
        }
        let mut rebuilds = 0usize;
        let trials = 20_000usize;
        for i in 0..trials {
            let ev = if i % 2 == 0 {
                cap.on_insert(&mut r)
            } else {
                cap.on_delete(&mut r)
            };
            if ev.is_rebuild() {
                rebuilds += 1;
            }
        }
        // Expectation is roughly trials * 3/1000 = 60; allow generous slack.
        assert!(rebuilds < 300, "too many rebuilds: {rebuilds}");
    }

    #[test]
    fn n_hat_distribution_is_uniform() {
        // Build to n = 8 many times with i.i.d. randomness and χ²-test the
        // resulting N̂ against uniform over {8..15}.
        let n = 8usize;
        let trials = 16_000usize;
        let mut counts = vec![0usize; n];
        for t in 0..trials {
            let mut r = rng(1_000 + t as u64);
            let mut cap = HiCapacity::new();
            for _ in 0..n {
                cap.on_insert(&mut r);
            }
            counts[cap.n_hat() - n] += 1;
        }
        let expected = trials as f64 / n as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 7 degrees of freedom; the 99.9% quantile is ~24.3.
        assert!(chi2 < 24.3, "chi2 = {chi2}, counts = {counts:?}");
    }

    #[test]
    fn n_hat_distribution_uniform_after_mixed_ops() {
        // Same test but reaching n = 6 via a mixed insert/delete history.
        let n = 6usize;
        let trials = 12_000usize;
        let mut counts = vec![0usize; n];
        for t in 0..trials {
            let mut r = rng(7_000 + t as u64);
            let mut cap = HiCapacity::new();
            for _ in 0..10 {
                cap.on_insert(&mut r);
            }
            for _ in 0..4 {
                cap.on_delete(&mut r);
            }
            counts[cap.n_hat() - n] += 1;
        }
        let expected = trials as f64 / n as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 5 degrees of freedom; 99.9% quantile ~20.5.
        assert!(chi2 < 20.5, "chi2 = {chi2}, counts = {counts:?}");
    }

    #[test]
    fn with_len_draws_in_range() {
        let mut r = rng(2);
        for n in 1..200usize {
            let cap = HiCapacity::with_len(n, &mut r);
            assert!(cap.n_hat() >= n && cap.n_hat() < 2 * n);
        }
    }

    #[test]
    fn canonical_capacity_values() {
        assert_eq!(ShiCanonicalCapacity::canonical(0), 0);
        assert_eq!(ShiCanonicalCapacity::canonical(1), 1);
        assert_eq!(ShiCanonicalCapacity::canonical(2), 2);
        assert_eq!(ShiCanonicalCapacity::canonical(3), 4);
        assert_eq!(ShiCanonicalCapacity::canonical(5), 8);
        assert_eq!(ShiCanonicalCapacity::canonical(1025), 2048);
    }

    #[test]
    fn canonical_adversary_forces_rebuilds() {
        // Alternate across the 1024/1025 boundary: every op rebuilds.
        let mut cap = ShiCanonicalCapacity::with_len(1024);
        let mut rebuilds = 0;
        for i in 0..100 {
            let ev = if i % 2 == 0 {
                cap.on_insert()
            } else {
                cap.on_delete()
            };
            if ev.is_rebuild() {
                rebuilds += 1;
            }
        }
        assert_eq!(rebuilds, 100);
    }

    #[test]
    fn redraw_stays_in_range() {
        let mut r = rng(4);
        let mut cap = HiCapacity::with_len(100, &mut r);
        for _ in 0..100 {
            cap.redraw(&mut r);
            assert!(cap.n_hat() >= 100 && cap.n_hat() < 200);
        }
    }
}
