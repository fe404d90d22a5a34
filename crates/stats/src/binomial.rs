//! The binomial distribution `B(n, p)` — the honest-player model.
//!
//! The paper models the number of good transactions inside a transaction
//! window of size `m` as `B(m, p)` where `p` is the server's (unknown, later
//! estimated) trustworthiness. This module provides exact log-space pmf/cdf
//! evaluation, quantiles, and sampling.

use crate::error::StatsError;
use crate::special::ln_choose;
use rand::{Rng, RngExt};

/// A binomial distribution `B(n, p)`.
///
/// # Examples
///
/// ```
/// use hp_stats::Binomial;
///
/// let b = Binomial::new(10, 0.9)?;
/// assert!((b.mean() - 9.0).abs() < 1e-12);
/// assert!((b.pmf(10) - 0.9f64.powi(10)).abs() < 1e-12);
/// # Ok::<(), hp_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u32,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution with `n` trials and success
    /// probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `p ∈ [0, 1]` and is
    /// finite. `n = 0` is allowed (the distribution is then a point mass at
    /// zero), matching the degenerate windows that can arise from very short
    /// transaction histories.
    pub fn new(n: u32, p: f64) -> Result<Self, StatsError> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(StatsError::InvalidProbability { value: p });
        }
        Ok(Binomial { n, p })
    }

    /// Number of trials `n`.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Success probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `n·p·(1-p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Natural log of the probability mass at `k`.
    ///
    /// Returns `f64::NEG_INFINITY` for `k > n` and for values made
    /// impossible by a degenerate `p` (e.g. `k < n` with `p = 1`).
    pub fn ln_pmf(&self, k: u32) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        // Handle the degenerate endpoints exactly: 0.ln() would otherwise
        // produce NaN via 0 * ln 0.
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(self.n as u64, k as u64)
            + k as f64 * self.p.ln()
            + (self.n - k) as f64 * (-self.p).ln_1p()
    }

    /// Probability mass at `k`, `P(X = k)`.
    pub fn pmf(&self, k: u32) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Cumulative distribution `P(X ≤ k)`.
    ///
    /// Exact summation; cost O(min(k, n)+1). Window sizes in reputation
    /// testing are small, so summation beats continued-fraction incomplete
    /// beta evaluation in both simplicity and (here) speed.
    pub fn cdf(&self, k: u32) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        let mut acc = 0.0;
        for j in 0..=k {
            acc += self.pmf(j);
        }
        acc.min(1.0)
    }

    /// Survival function `P(X > k)`.
    pub fn sf(&self, k: u32) -> f64 {
        if k >= self.n {
            return 0.0;
        }
        // Sum the smaller tail for accuracy.
        if (k as f64) < self.mean() {
            1.0 - self.cdf(k)
        } else {
            let mut acc = 0.0;
            for j in (k + 1)..=self.n {
                acc += self.pmf(j);
            }
            acc.min(1.0)
        }
    }

    /// Smallest `k` such that `P(X ≤ k) ≥ q`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidLevel`] unless `q ∈ (0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<u32, StatsError> {
        if !(q > 0.0 && q <= 1.0) {
            return Err(StatsError::InvalidLevel { value: q });
        }
        let mut acc = 0.0;
        for k in 0..=self.n {
            acc += self.pmf(k);
            if acc >= q - 1e-12 {
                return Ok(k);
            }
        }
        Ok(self.n)
    }

    /// The full pmf table `[P(X=0), …, P(X=n)]`.
    ///
    /// This is the reference distribution the behavior tests compare
    /// empirical window-count histograms against.
    pub fn pmf_table(&self) -> Vec<f64> {
        let mut table = Vec::with_capacity(self.n as usize + 1);
        self.fill_pmf(&mut table);
        table
    }

    /// Overwrites `table` with `[P(X=0), …, P(X=n)]`, reusing its
    /// allocation: what a caller that needs one table per tested range
    /// (the multi-test needs thousands per verdict) calls with one buffer.
    ///
    /// Every entry is bit-identical to [`Self::pmf`]: the same expression,
    /// with `ln p` and `ln(1−p)` taken once instead of once per entry.
    pub fn fill_pmf(&self, table: &mut Vec<f64>) {
        table.clear();
        let n = self.n;
        // The degenerate endpoints keep their exact masses, as in
        // `ln_pmf` (0·ln 0 would be NaN).
        if self.p == 0.0 || self.p == 1.0 {
            let at = if self.p == 0.0 { 0 } else { n };
            table.extend((0..=n).map(|k| if k == at { 1.0 } else { 0.0 }));
            return;
        }
        let (ln_p, ln_q) = (self.p.ln(), (-self.p).ln_1p());
        table.extend((0..=n).map(|k| {
            (ln_choose(n as u64, k as u64) + k as f64 * ln_p + (n - k) as f64 * ln_q).exp()
        }));
    }

    /// Draws one sample.
    ///
    /// Uses inverse-transform for small `n` and a sum of Bernoulli draws
    /// otherwise; both are exact. Calibration draws millions of samples with
    /// `n ≈ 10`, where inversion from the cached table is fastest.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        if self.p == 0.0 {
            return 0;
        }
        if self.p == 1.0 {
            return self.n;
        }
        if self.n <= 64 {
            // Inverse transform on the fly (n is tiny in our workloads).
            let u: f64 = rng.random();
            let mut acc = 0.0;
            for k in 0..self.n {
                acc += self.pmf(k);
                if u < acc {
                    return k;
                }
            }
            self.n
        } else {
            let mut count = 0;
            for _ in 0..self.n {
                if rng.random::<f64>() < self.p {
                    count += 1;
                }
            }
            count
        }
    }

    /// Draws `count` samples into a fresh vector.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// A sampler that amortizes the pmf table across many draws.
    ///
    /// Roughly an order of magnitude faster than [`Binomial::sample`] in the
    /// calibration hot loop.
    pub fn table_sampler(&self) -> TableSampler {
        let mut cdf = Vec::with_capacity(self.n as usize + 1);
        let mut acc = 0.0;
        for k in 0..=self.n {
            acc += self.pmf(k);
            cdf.push(acc);
        }
        // Guard against floating point shortfall at the top.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        TableSampler { cdf }
    }
}

/// Amortized inverse-transform sampler built by [`Binomial::table_sampler`].
#[derive(Debug, Clone)]
pub struct TableSampler {
    cdf: Vec<f64>,
}

impl TableSampler {
    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.random();
        // Binary search for the first cdf entry ≥ u.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf entries are finite"))
        {
            Ok(idx) | Err(idx) => idx.min(self.cdf.len() - 1) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(Binomial::new(10, -0.1).is_err());
        assert!(Binomial::new(10, 1.1).is_err());
        assert!(Binomial::new(10, f64::NAN).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[
            (0u32, 0.5),
            (1, 0.3),
            (10, 0.9),
            (10, 0.0),
            (10, 1.0),
            (100, 0.95),
        ] {
            let b = Binomial::new(n, p).unwrap();
            let total: f64 = b.pmf_table().iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "B({n},{p}) sums to {total}");
        }
    }

    #[test]
    fn pmf_matches_hand_computed_values() {
        let b = Binomial::new(10, 0.9).unwrap();
        // P(X=10) = 0.9^10
        assert!((b.pmf(10) - 0.9f64.powi(10)).abs() < 1e-12);
        // P(X=9) = 10 * 0.9^9 * 0.1
        assert!((b.pmf(9) - 10.0 * 0.9f64.powi(9) * 0.1).abs() < 1e-12);
        // P(X=0) = 0.1^10
        assert!((b.pmf(0) - 0.1f64.powi(10)).abs() < 1e-20);
    }

    #[test]
    fn degenerate_p_zero_and_one() {
        let b0 = Binomial::new(10, 0.0).unwrap();
        assert_eq!(b0.pmf(0), 1.0);
        assert_eq!(b0.pmf(1), 0.0);
        assert_eq!(b0.sample(&mut rng(1)), 0);

        let b1 = Binomial::new(10, 1.0).unwrap();
        assert_eq!(b1.pmf(10), 1.0);
        assert_eq!(b1.pmf(9), 0.0);
        assert_eq!(b1.sample(&mut rng(1)), 10);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let b = Binomial::new(20, 0.7).unwrap();
        let mut prev = 0.0;
        for k in 0..=20 {
            let c = b.cdf(k);
            assert!(c >= prev - 1e-12, "cdf must be monotone");
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
        assert!((b.cdf(20) - 1.0).abs() < 1e-12);
        assert!((b.cdf(25) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sf_complements_cdf() {
        let b = Binomial::new(15, 0.4).unwrap();
        for k in 0..=15 {
            assert!((b.cdf(k) + b.sf(k) - 1.0).abs() < 1e-10, "k={k}");
        }
        assert_eq!(b.sf(15), 0.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let b = Binomial::new(10, 0.9).unwrap();
        for q in [0.01, 0.05, 0.5, 0.95, 0.99, 1.0] {
            let k = b.quantile(q).unwrap();
            assert!(b.cdf(k) >= q - 1e-9, "q={q} k={k}");
            if k > 0 {
                assert!(b.cdf(k - 1) < q + 1e-9, "q={q} k={k} not minimal");
            }
        }
        assert!(b.quantile(0.0).is_err());
        assert!(b.quantile(1.5).is_err());
    }

    #[test]
    fn sample_mean_close_to_np() {
        let b = Binomial::new(10, 0.9).unwrap();
        let mut r = rng(42);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| b.sample(&mut r) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 9.0).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn large_n_sampling_path() {
        let b = Binomial::new(200, 0.25).unwrap();
        let mut r = rng(7);
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| b.sample(&mut r) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 50.0).abs() < 1.0, "sample mean {mean}");
    }

    #[test]
    fn table_sampler_matches_distribution() {
        let b = Binomial::new(10, 0.8).unwrap();
        let sampler = b.table_sampler();
        let mut r = rng(11);
        let n = 50_000usize;
        let mut counts = [0u64; 11];
        for _ in 0..n {
            counts[sampler.sample(&mut r) as usize] += 1;
        }
        for k in 0..=10u32 {
            let emp = counts[k as usize] as f64 / n as f64;
            let exp = b.pmf(k);
            assert!(
                (emp - exp).abs() < 0.01,
                "k={k}: empirical {emp} vs pmf {exp}"
            );
        }
    }

    #[test]
    fn zero_trials_point_mass() {
        let b = Binomial::new(0, 0.5).unwrap();
        assert_eq!(b.pmf(0), 1.0);
        assert_eq!(b.sample(&mut rng(3)), 0);
        assert_eq!(b.pmf_table(), vec![1.0]);
    }
}
