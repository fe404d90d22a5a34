//! The Beta distribution — posterior of a Bernoulli trustworthiness.
//!
//! The beta reputation system models a server's unknown trustworthiness
//! `p` as `Beta(α₀ + good, β₀ + bad)`. This module supplies the density,
//! CDF (regularized incomplete beta function), quantiles and sampling
//! needed to put *credible intervals* around trust values.

use crate::error::StatsError;
use crate::special::ln_gamma;
use rand::{Rng, RngExt};

/// A Beta(α, β) distribution.
///
/// # Examples
///
/// ```
/// use hp_stats::BetaDist;
///
/// // Posterior after 90 good / 10 bad with a uniform prior:
/// let post = BetaDist::new(91.0, 11.0)?;
/// assert!((post.mean() - 91.0 / 102.0).abs() < 1e-12);
/// let (lo, hi) = post.credible_interval(0.95)?;
/// assert!(lo < 0.9 && 0.9 < hi);
/// # Ok::<(), hp_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaDist {
    alpha: f64,
    beta: f64,
}

impl BetaDist {
    /// Creates a Beta distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless both shape
    /// parameters are positive and finite.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, StatsError> {
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(StatsError::InvalidProbability { value: alpha });
        }
        if !(beta > 0.0 && beta.is_finite()) {
            return Err(StatsError::InvalidProbability { value: beta });
        }
        Ok(BetaDist { alpha, beta })
    }

    /// Shape parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Shape parameter β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Mean `α / (α + β)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Variance `αβ / ((α+β)²(α+β+1))`.
    pub fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    /// Log-density at `x ∈ (0, 1)` (−∞ outside).
    pub fn ln_pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return f64::NEG_INFINITY;
        }
        if x == 0.0 {
            return if self.alpha < 1.0 {
                f64::INFINITY
            } else if self.alpha == 1.0 {
                (self.beta).ln()
            } else {
                f64::NEG_INFINITY
            };
        }
        if x == 1.0 {
            return if self.beta < 1.0 {
                f64::INFINITY
            } else if self.beta == 1.0 {
                (self.alpha).ln()
            } else {
                f64::NEG_INFINITY
            };
        }
        ln_gamma(self.alpha + self.beta) - ln_gamma(self.alpha) - ln_gamma(self.beta)
            + (self.alpha - 1.0) * x.ln()
            + (self.beta - 1.0) * (1.0 - x).ln()
    }

    /// CDF — the regularized incomplete beta function `I_x(α, β)`,
    /// evaluated with Lentz's continued fraction.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if x >= 1.0 {
            return 1.0;
        }
        let ln_prefactor =
            ln_gamma(self.alpha + self.beta) - ln_gamma(self.alpha) - ln_gamma(self.beta)
                + self.alpha * x.ln()
                + self.beta * (1.0 - x).ln();
        // Use the symmetry relation for faster convergence.
        if x < (self.alpha + 1.0) / (self.alpha + self.beta + 2.0) {
            (ln_prefactor.exp() * beta_cf(self.alpha, self.beta, x) / self.alpha).clamp(0.0, 1.0)
        } else {
            (1.0 - ln_prefactor.exp() * beta_cf(self.beta, self.alpha, 1.0 - x) / self.beta)
                .clamp(0.0, 1.0)
        }
    }

    /// Quantile (inverse CDF) by bisection (the CDF is monotone and
    /// continuous; 60 iterations give ~1e-18 interval width).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidLevel`] unless `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) || !q.is_finite() {
            return Err(StatsError::InvalidLevel { value: q });
        }
        if q == 0.0 {
            return Ok(0.0);
        }
        if q == 1.0 {
            return Ok(1.0);
        }
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// The equal-tailed credible interval at `level` (e.g. 0.95).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidLevel`] unless `level ∈ (0, 1)`.
    pub fn credible_interval(&self, level: f64) -> Result<(f64, f64), StatsError> {
        if !(level > 0.0 && level < 1.0) {
            return Err(StatsError::InvalidLevel { value: level });
        }
        let tail = (1.0 - level) / 2.0;
        Ok((self.quantile(tail)?, self.quantile(1.0 - tail)?))
    }

    /// Draws one sample (via two gamma variates, Marsaglia–Tsang).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = sample_gamma(self.alpha, rng);
        let y = sample_gamma(self.beta, rng);
        if x + y == 0.0 {
            return 0.5;
        }
        x / (x + y)
    }
}

/// Continued-fraction core of the incomplete beta function
/// (Numerical Recipes `betacf`).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 1e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Marsaglia–Tsang gamma sampling (with the α < 1 boost).
fn sample_gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(α) = Gamma(α+1) · U^{1/α}
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(BetaDist::new(0.0, 1.0).is_err());
        assert!(BetaDist::new(1.0, -2.0).is_err());
        assert!(BetaDist::new(f64::NAN, 1.0).is_err());
        assert!(BetaDist::new(2.0, 3.0).is_ok());
    }

    #[test]
    fn uniform_special_case() {
        // Beta(1,1) is Uniform(0,1): cdf(x) = x.
        let u = BetaDist::new(1.0, 1.0).unwrap();
        for x in [0.1, 0.25, 0.5, 0.9] {
            assert!((u.cdf(x) - x).abs() < 1e-12, "cdf({x})");
            assert!((u.quantile(x).unwrap() - x).abs() < 1e-9);
        }
        assert!((u.mean() - 0.5).abs() < 1e-12);
        assert!((u.variance() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_matches_closed_form_beta_2_2() {
        // Beta(2,2): cdf(x) = 3x² − 2x³.
        let b = BetaDist::new(2.0, 2.0).unwrap();
        for x in [0.1, 0.3, 0.5, 0.7, 0.95] {
            let expected = 3.0 * x * x - 2.0 * x * x * x;
            assert!((b.cdf(x) - expected).abs() < 1e-10, "cdf({x})");
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let b = BetaDist::new(91.0, 11.0).unwrap();
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let c = b.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-12 >= prev, "monotone at {x}");
            prev = c;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let b = BetaDist::new(5.0, 2.0).unwrap();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let x = b.quantile(q).unwrap();
            assert!((b.cdf(x) - q).abs() < 1e-9, "q={q}");
        }
        assert!(b.quantile(-0.1).is_err());
    }

    #[test]
    fn credible_interval_covers_mean() {
        let b = BetaDist::new(91.0, 11.0).unwrap();
        let (lo, hi) = b.credible_interval(0.95).unwrap();
        assert!(lo < b.mean() && b.mean() < hi);
        // Tight for this much data: width well under 0.2.
        assert!(hi - lo < 0.2, "width {}", hi - lo);
        let (lo99, hi99) = b.credible_interval(0.99).unwrap();
        assert!(lo99 < lo && hi < hi99, "wider at higher level");
    }

    #[test]
    fn sampling_matches_moments() {
        let b = BetaDist::new(3.0, 7.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let n = 30_000;
        let samples: Vec<f64> = (0..n).map(|_| b.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "sample mean {mean}");
        assert!(samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((var - b.variance()).abs() < 0.005, "sample var {var}");
    }

    #[test]
    fn small_shape_sampling_path() {
        let b = BetaDist::new(0.5, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 20_000;
        let mean = (0..n).map(|_| b.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "arcsine mean {mean}");
    }

    #[test]
    fn ln_pdf_edges() {
        let b = BetaDist::new(2.0, 2.0).unwrap();
        assert_eq!(b.ln_pdf(-0.1), f64::NEG_INFINITY);
        assert_eq!(b.ln_pdf(1.1), f64::NEG_INFINITY);
        assert_eq!(b.ln_pdf(0.0), f64::NEG_INFINITY);
        // Interior value: pdf of Beta(2,2) at 0.5 is 1.5.
        assert!((b.ln_pdf(0.5).exp() - 1.5).abs() < 1e-10);
    }
}
