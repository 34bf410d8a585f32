//! Percentile summaries of sample distributions.
//!
//! Lemma 15 is a statement about the *tail* of the per-element search cost in
//! the folklore B-skip list; the corresponding experiment (E8) reports
//! median, p99 and maximum I/O counts. [`Summary`] computes those from a
//! vector of samples.

/// Mean / percentile summary of a set of `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Computes a summary of `samples`. Returns `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        #[expect(
            clippy::expect_used,
            reason = "a NaN sample is a harness bug; aborting the summary beats silently skewing the stats"
        )]
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / count as f64;
        Some(Self {
            count,
            mean,
            min: sorted[0],
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            max: sorted[count - 1],
            std_dev: var.sqrt(),
        })
    }

    /// Computes a summary of integer samples.
    pub fn of_counts(samples: &[u64]) -> Option<Self> {
        let floats: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Self::of(&floats)
    }
}

/// Nearest-rank percentile of a pre-sorted slice, `q` in `[0, 1]`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 4.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn known_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 51.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
    }

    #[test]
    fn unsorted_input_handled() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
    }

    #[test]
    fn counts_variant() {
        let s = Summary::of_counts(&[2, 4, 6]).unwrap();
        assert!((s.mean - 4.0).abs() < 1e-12);
    }
}
