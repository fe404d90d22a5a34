//! Empirical histograms over a bounded integer support `0..=max`.
//!
//! The behavior tests turn a transaction history into window counts
//! `G_1, …, G_k ∈ {0, …, m}` and compare their empirical distribution to a
//! binomial pmf. [`Histogram`] is that empirical distribution, with O(1)
//! incremental insertion/removal so the multi-test can slide over suffixes
//! in linear total time.

use crate::error::StatsError;

/// An empirical distribution of integer samples in `0..=max`.
///
/// Supports O(1) incremental updates, which the optimized multi-test relies
/// on: removing the windows of the oldest `k` transactions and re-testing is
/// O(k/m) instead of O(n/m).
///
/// # Examples
///
/// ```
/// use hp_stats::Histogram;
///
/// let mut h = Histogram::new(10)?;
/// h.add(9)?;
/// h.add(10)?;
/// h.add(9)?;
/// assert_eq!(h.len(), 3);
/// assert!((h.pmf(9) - 2.0 / 3.0).abs() < 1e-12);
/// h.remove(10)?;
/// assert!((h.pmf(9) - 1.0).abs() < 1e-12);
/// # Ok::<(), hp_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram over the support `0..=max`.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` return keeps the door open for
    /// support-size limits and mirrors the other constructors in this crate.
    pub fn new(max: u32) -> Result<Self, StatsError> {
        Ok(Histogram {
            counts: vec![0; max as usize + 1],
            total: 0,
        })
    }

    /// Builds a histogram from an iterator of samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::OutOfSupport`] if any sample exceeds `max`.
    pub fn from_samples<I>(max: u32, samples: I) -> Result<Self, StatsError>
    where
        I: IntoIterator<Item = u32>,
    {
        let mut h = Histogram::new(max)?;
        for s in samples {
            h.add(s)?;
        }
        Ok(h)
    }

    /// Upper end of the support (inclusive).
    pub fn max_value(&self) -> u32 {
        self.counts.len() as u32 - 1
    }

    /// Number of samples currently recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the histogram holds no samples.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Raw count of samples equal to `value` (0 if out of support).
    pub fn count(&self, value: u32) -> u64 {
        self.counts.get(value as usize).copied().unwrap_or(0)
    }

    /// Raw counts for the whole support.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Empirical probability mass at `value`.
    ///
    /// Returns 0 for an empty histogram.
    pub fn pmf(&self, value: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(value) as f64 / self.total as f64
    }

    /// The full empirical pmf as a vector aligned with the support.
    pub fn pmf_table(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let t = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }

    /// Records one sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::OutOfSupport`] if `value > max`.
    pub fn add(&mut self, value: u32) -> Result<(), StatsError> {
        let max = self.max_value() as u64;
        let slot = self
            .counts
            .get_mut(value as usize)
            .ok_or(StatsError::OutOfSupport {
                value: value as u64,
                max,
            })?;
        *slot += 1;
        self.total += 1;
        Ok(())
    }

    /// Removes one previously recorded sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::OutOfSupport`] if `value > max` or if no sample
    /// with this value is currently recorded (removal must mirror a prior
    /// [`Histogram::add`]).
    pub fn remove(&mut self, value: u32) -> Result<(), StatsError> {
        let max = self.max_value() as u64;
        let slot = self
            .counts
            .get_mut(value as usize)
            .ok_or(StatsError::OutOfSupport {
                value: value as u64,
                max,
            })?;
        if *slot == 0 {
            return Err(StatsError::OutOfSupport {
                value: value as u64,
                max,
            });
        }
        *slot -= 1;
        self.total -= 1;
        Ok(())
    }

    /// Empirical mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum();
        weighted / self.total as f64
    }

    /// Empirical variance (population form; 0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.total < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| {
                let d = v as f64 - mean;
                d * d * c as f64
            })
            .sum();
        ss / self.total as f64
    }

    /// Builds a histogram directly from per-value counts (index = value).
    ///
    /// For callers that already hold bin counts (the calibration kernel's
    /// reference implementation bisects a sorted uniform batch at the cdf
    /// steps): turns them into a histogram without replaying individual
    /// samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty counts vector (a
    /// histogram always has a support).
    pub fn from_counts(counts: Vec<u64>) -> Result<Self, StatsError> {
        if counts.is_empty() {
            return Err(StatsError::EmptyInput { what: "histogram counts" });
        }
        let total = counts.iter().sum();
        Ok(Histogram { counts, total })
    }

    /// Merges another histogram over the same support into this one.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::OutOfSupport`] if supports differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), StatsError> {
        if other.counts.len() != self.counts.len() {
            return Err(StatsError::OutOfSupport {
                value: other.max_value() as u64,
                max: self.max_value() as u64,
            });
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        Ok(())
    }
}

impl Extend<u32> for Histogram {
    /// Extends the histogram; samples outside the support are ignored
    /// silently (use [`Histogram::add`] when strictness matters).
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        for v in iter {
            let _ = self.add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut h = Histogram::new(10).unwrap();
        for v in [0u32, 5, 10, 5, 5] {
            h.add(v).unwrap();
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.count(5), 3);
        h.remove(5).unwrap();
        assert_eq!(h.count(5), 2);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn remove_unrecorded_value_fails() {
        let mut h = Histogram::new(10).unwrap();
        h.add(3).unwrap();
        assert!(h.remove(4).is_err());
        assert!(h.remove(11).is_err());
        assert_eq!(h.len(), 1, "failed removal must not change state");
    }

    #[test]
    fn add_out_of_support_fails() {
        let mut h = Histogram::new(10).unwrap();
        assert!(matches!(
            h.add(11),
            Err(StatsError::OutOfSupport { value: 11, max: 10 })
        ));
        assert!(h.is_empty());
    }

    #[test]
    fn pmf_normalizes() {
        let h = Histogram::from_samples(3, [0u32, 1, 1, 2, 2, 2, 3, 3]).unwrap();
        let table = h.pmf_table();
        let sum: f64 = table.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((h.pmf(2) - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_pmf_is_zero() {
        let h = Histogram::new(5).unwrap();
        assert_eq!(h.pmf(0), 0.0);
        assert_eq!(h.pmf_table(), vec![0.0; 6]);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.variance(), 0.0);
    }

    #[test]
    fn mean_and_variance() {
        let h = Histogram::from_samples(4, [2u32, 4, 4, 2]).unwrap();
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert!((h.variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::from_samples(3, [1u32, 2]).unwrap();
        let b = Histogram::from_samples(3, [2u32, 3]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.count(2), 2);
        let mismatched = Histogram::new(5).unwrap();
        assert!(a.merge(&mismatched).is_err());
    }

    #[test]
    fn extend_ignores_out_of_support() {
        let mut h = Histogram::new(2).unwrap();
        h.extend([0u32, 1, 2, 3, 99]);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn from_counts_matches_sampled_construction() {
        let sampled = Histogram::from_samples(3, [0u32, 1, 1, 2, 2, 2, 3, 3]).unwrap();
        let built = Histogram::from_counts(vec![1, 2, 3, 2]).unwrap();
        assert_eq!(built, sampled);
        assert_eq!(built.len(), 8);
        assert!(Histogram::from_counts(vec![]).is_err());
    }

    #[test]
    fn incremental_matches_batch() {
        // Sliding a window over samples via add/remove must equal rebuilding.
        let samples: Vec<u32> = (0..100u32).map(|i| (i * 7) % 11).collect();
        let window = 30usize;
        let mut sliding = Histogram::from_samples(10, samples[..window].iter().copied()).unwrap();
        for start in 1..(samples.len() - window) {
            sliding.remove(samples[start - 1]).unwrap();
            sliding.add(samples[start + window - 1]).unwrap();
            let batch =
                Histogram::from_samples(10, samples[start..start + window].iter().copied())
                    .unwrap();
            assert_eq!(sliding, batch, "window starting at {start}");
        }
    }
}
