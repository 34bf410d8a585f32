//! The pooled uniformity test of the HI-PMA's coins (paper §3.3, §4.3).
//!
//! Invariant 6 says every balance element is uniform over its candidate set,
//! and §2.1 says the capacity parameter `N̂` is uniform over `{n, …, 2n−1}`.
//! [`Pooled`] maps every draw `k` of a uniform set of `m` values to
//! `u = (k + V)/m`, `V` uniform on `[0, 1)` from its own RNG. Under the
//! paper every `u` is U(0, 1) whatever the set, so balances from every
//! range, depth, trial and history pool into one 20-bin χ² test.
//!
//! The paper's §4.3 instead runs one χ² per candidate set and then a second
//! χ² over the p-values (p = 0.47 over n = 148 sets). A per-set histogram
//! needs a set that recurs with the same geometry across trials; at test
//! scale none does. The second stage survives as [`uniformity_of_p_values`],
//! which checks the pooled test's own calibration over many seeds.

use super::chi2::{chi2_gof_uniform, Chi2Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Bins of every pooled χ² test.
const BINS: usize = 20;

/// Samples a sub-test needs to run: five expected per bin.
const MIN_SAMPLES: u64 = 5 * BINS as u64;

/// Balance elements and capacity parameters pooled under the randomized
/// probability-integral transform (see the module docs).
#[derive(Debug)]
pub struct Pooled {
    rng: StdRng,
    by_depth: Vec<[u64; BINS]>,
    capacity: [u64; BINS],
}

impl Pooled {
    /// An empty pool whose `V` draws come from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            by_depth: Vec::new(),
            capacity: [0; BINS],
        }
    }

    /// The bin of `u = (k + V)/m` for a draw `k` from `{0, …, m−1}`.
    fn bin(&mut self, k: usize, m: usize) -> usize {
        assert!(k < m, "draw {k} outside a set of {m}");
        let u = (k as f64 + self.rng.gen::<f64>()) / m as f64;
        ((u * BINS as f64) as usize).min(BINS - 1)
    }

    /// Adds the balance of a range at `depth` that sits at `offset` of its
    /// candidate window of `window` elements.
    pub fn balance(&mut self, depth: usize, window: usize, offset: usize) {
        let bin = self.bin(offset, window);
        if self.by_depth.len() <= depth {
            self.by_depth.resize(depth + 1, [0; BINS]);
        }
        self.by_depth[depth][bin] += 1;
    }

    /// Adds the capacity parameter `n_hat` of a structure holding `n ≥ 1`
    /// elements: `n_hat − n` should be uniform on `{0, …, n−1}`.
    pub fn capacity(&mut self, n: usize, n_hat: usize) {
        assert!(n_hat >= n, "N̂ = {n_hat} below n = {n}");
        let bin = self.bin(n_hat - n, n);
        self.capacity[bin] += 1;
    }

    /// Runs every sub-test with at least five expected samples per bin:
    /// all balances, the balances of each depth, and the capacities.
    pub fn report(&self) -> Report {
        let mut all = [0u64; BINS];
        for row in &self.by_depth {
            for (a, b) in all.iter_mut().zip(row) {
                *a += b;
            }
        }
        let depths = self.by_depth.iter().enumerate();
        let tests = std::iter::once(("all balances".to_string(), &all))
            .chain(depths.map(|(d, row)| (format!("depth {d}"), row)))
            .chain(std::iter::once(("N̂ − n".to_string(), &self.capacity)))
            .filter_map(|(name, row)| {
                let samples = row.iter().sum::<u64>();
                (samples >= MIN_SAMPLES).then(|| (name, samples, chi2_gof_uniform(row).p_value))
            })
            .collect();
        Report {
            balances: all.iter().sum(),
            tests,
        }
    }
}

/// The outcome of [`Pooled::report`].
#[derive(Debug)]
pub struct Report {
    /// Balance elements pooled.
    pub balances: u64,
    /// `(name, samples, p)` of every sub-test that ran.
    pub tests: Vec<(String, u64, f64)>,
}

impl Report {
    /// Whether the family rejects uniformity at level `alpha`, Bonferroni
    /// corrected: some sub-test has `p < alpha / (number of sub-tests)`.
    pub fn rejects(&self, alpha: f64) -> bool {
        let bound = alpha / self.tests.len().max(1) as f64;
        self.tests.iter().any(|&(_, _, p)| p < bound)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} balances pooled", self.balances)?;
        for (name, samples, p) in &self.tests {
            write!(f, "\n  {name:<14} {samples:>8} samples  p = {p:.4}")?;
        }
        Ok(())
    }
}

/// Minimum expected count per bucket of [`uniformity_of_p_values`] (the
/// paper uses ten).
pub const MIN_EXPECTED_PER_BUCKET: f64 = 10.0;

/// Are these p-values uniform on `[0, 1]`? The paper's second stage: the
/// p-values are binned into `bins` equal-width buckets and χ²-tested against
/// uniform. Returns `None` when too few p-values reach
/// [`MIN_EXPECTED_PER_BUCKET`] per bucket.
pub fn uniformity_of_p_values(p_values: &[f64], bins: usize) -> Option<Chi2Outcome> {
    assert!(bins >= 2, "need at least two bins");
    if (p_values.len() as f64) / (bins as f64) < MIN_EXPECTED_PER_BUCKET {
        return None;
    }
    let mut counts = vec![0u64; bins];
    for &p in p_values {
        assert!((0.0..=1.0).contains(&p), "p-value {p} outside [0, 1]");
        let idx = ((p * bins as f64) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    Some(chi2_gof_uniform(&counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `draws` uniform draws from sets of 1–39 values, spread over three
    /// depths, each passed through `skew` before it is pooled.
    fn pool(seed: u64, draws: usize, skew: impl Fn(usize, usize) -> usize) -> Report {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pooled = Pooled::new(seed ^ 1);
        for _ in 0..draws {
            let m = rng.gen_range(1..40usize);
            let k = rng.gen_range(0..m);
            pooled.balance(m % 3, m, skew(m, k));
            pooled.capacity(m, m + k);
        }
        pooled.report()
    }

    #[test]
    fn uniform_counts_pass() {
        let report = pool(3, 20_000, |_, k| k);
        assert_eq!(report.balances, 20_000);
        assert_eq!(report.tests.len(), 5, "{report}");
        assert!(!report.rejects(0.01), "{report}");
    }

    #[test]
    fn skewed_counts_fail() {
        // Every draw at the middle of its set.
        let report = pool(3, 20_000, |m, _| m / 2);
        assert!(report.rejects(0.01), "{report}");
        assert_eq!(report.tests[0].0, "all balances");
        assert!(report.tests[0].2 < 1e-6, "{report}");
    }

    #[test]
    fn biased_sets_are_detected() {
        // A subtler bias: each set's last value folded onto its first.
        let report = pool(3, 20_000, |m, k| if k + 1 == m { 0 } else { k });
        assert!(report.rejects(0.01), "{report}");
    }

    #[test]
    fn small_samples_rejected() {
        // Below five expected per bin a sub-test does not run.
        let mut pooled = Pooled::new(2);
        for k in 0..MIN_SAMPLES as usize - 1 {
            pooled.balance(0, 7, k % 7);
        }
        assert!(pooled.report().tests.is_empty());
        assert!(!pooled.report().rejects(0.01));
        pooled.balance(0, 7, 0);
        assert_eq!(pooled.report().tests.len(), 2, "all balances and depth 0");
    }

    #[test]
    fn p_values_from_uniform_samples_are_uniform() {
        // The pooled test is calibrated: over many seeds of uniform draws its
        // p-values are themselves uniform (the paper's second stage).
        let p_values: Vec<f64> = (0..200)
            .map(|seed| {
                let report = pool(seed, 2_000, |_, k| k);
                report.tests[0].2
            })
            .collect();
        let meta = uniformity_of_p_values(&p_values, 10).expect("200 p-values in 10 bins");
        assert!(meta.p_value > 0.001, "meta p = {}", meta.p_value);
    }

    #[test]
    fn meta_test_needs_enough_p_values() {
        assert!(uniformity_of_p_values(&[0.5; 30], 10).is_none());
        assert!(uniformity_of_p_values(&[0.5; 200], 10).is_some());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_p_value_panics() {
        uniformity_of_p_values(&[1.5; 200], 10);
    }

    #[test]
    #[should_panic(expected = "outside a set of 4")]
    fn a_draw_outside_its_set_is_refused() {
        Pooled::new(0).balance(3, 4, 4);
    }
}
