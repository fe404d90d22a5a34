//! The χ² distribution and the classical goodness-of-fit test.
//!
//! §6 of the paper situates its scheme against classical hypothesis
//! testing: "Most hypothesis testing techniques assume the parameters of
//! the expected distribution are known, which is different from the
//! problem in this paper." This module provides that classical comparator
//! — Pearson's χ² goodness-of-fit test with analytic p-values — so the
//! Monte-Carlo-calibrated L¹ approach can be benchmarked against it (see
//! the distance-metric ablation).

use crate::error::StatsError;
use crate::special::ln_gamma;

/// The χ² distribution with `k` degrees of freedom.
///
/// # Examples
///
/// ```
/// use hp_stats::ChiSquared;
///
/// let chi = ChiSquared::new(3.0)?;
/// assert!((chi.mean() - 3.0).abs() < 1e-12);
/// // Median of χ²(3) ≈ 2.366
/// assert!((chi.cdf(2.366) - 0.5).abs() < 1e-3);
/// # Ok::<(), hp_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    k: f64,
}

impl ChiSquared {
    /// Creates a χ² distribution with `k > 0` degrees of freedom.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `k` is positive
    /// and finite.
    pub fn new(k: f64) -> Result<Self, StatsError> {
        if !(k > 0.0 && k.is_finite()) {
            return Err(StatsError::InvalidProbability { value: k });
        }
        Ok(ChiSquared { k })
    }

    /// Mean (= k).
    pub fn mean(&self) -> f64 {
        self.k
    }

    /// Variance (= 2k).
    pub fn variance(&self) -> f64 {
        2.0 * self.k
    }

    /// CDF: the regularized lower incomplete gamma `P(k/2, x/2)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        regularized_lower_gamma(self.k / 2.0, x / 2.0)
    }

    /// Survival function `P(X > x)` — the p-value of a χ² statistic.
    pub fn sf(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes `gammp`).
pub fn regularized_lower_gamma(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && x >= 0.0);
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum * (-x + a * x.ln() - ln_gamma(a)).exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(a, x); P = 1 − Q.
        const FPMIN: f64 = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / FPMIN;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = b + an / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Pearson's χ² goodness-of-fit test with *known* expected probabilities.
///
/// Returns `(statistic, p_value)` where low p-values reject the null that
/// `counts` were drawn from `expected_probs`. Degrees of freedom are
/// `bins_with_mass − 1` (no parameters estimated — the classical setting
/// the paper contrasts itself with; when `p̂` is estimated from the same
/// data, subtract the estimated-parameter count from the dof yourself).
///
/// # Errors
///
/// * [`StatsError::EmptyInput`] for empty inputs or zero total count.
/// * [`StatsError::OutOfSupport`] if lengths differ.
/// * [`StatsError::UnnormalizedProbabilities`] if `expected_probs` does
///   not sum to 1.
///
/// # Examples
///
/// ```
/// use hp_stats::chisq::chi_square_gof_test;
///
/// // A fair six-sided die, 120 rolls close to uniform:
/// let counts = [18u64, 22, 21, 19, 20, 20];
/// let probs = [1.0 / 6.0; 6];
/// let (stat, p) = chi_square_gof_test(&counts, &probs)?;
/// assert!(stat < 2.0);
/// assert!(p > 0.5, "no reason to reject fairness: p = {p}");
/// # Ok::<(), hp_stats::StatsError>(())
/// ```
pub fn chi_square_gof_test(
    counts: &[u64],
    expected_probs: &[f64],
) -> Result<(f64, f64), StatsError> {
    if counts.is_empty() {
        return Err(StatsError::EmptyInput {
            what: "chi-square counts",
        });
    }
    if counts.len() != expected_probs.len() {
        return Err(StatsError::OutOfSupport {
            value: counts.len() as u64,
            max: expected_probs.len() as u64,
        });
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Err(StatsError::EmptyInput {
            what: "chi-square total count",
        });
    }
    let prob_sum: f64 = expected_probs.iter().sum();
    if (prob_sum - 1.0).abs() > 1e-9 {
        return Err(StatsError::UnnormalizedProbabilities { sum: prob_sum });
    }
    let n = total as f64;
    let mut statistic = 0.0;
    let mut live_bins = 0usize;
    for (&observed, &p) in counts.iter().zip(expected_probs) {
        let expected = n * p;
        if expected <= 0.0 {
            // Mass observed where none is expected: infinite evidence.
            if observed > 0 {
                return Ok((f64::INFINITY, 0.0));
            }
            continue;
        }
        live_bins += 1;
        let d = observed as f64 - expected;
        statistic += d * d / expected;
    }
    if live_bins < 2 {
        // A single live bin cannot discriminate anything.
        return Ok((statistic, 1.0));
    }
    let dist = ChiSquared::new((live_bins - 1) as f64)?;
    Ok((statistic, dist.sf(statistic)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(ChiSquared::new(0.0).is_err());
        assert!(ChiSquared::new(-1.0).is_err());
        assert!(ChiSquared::new(f64::NAN).is_err());
        assert!(ChiSquared::new(2.5).is_ok());
    }

    #[test]
    fn chi2_two_dof_is_exponential() {
        // χ²(2) = Exp(1/2): cdf(x) = 1 − e^{−x/2}.
        let chi = ChiSquared::new(2.0).unwrap();
        for x in [0.5, 1.0, 2.0, 5.0, 10.0] {
            let expected = 1.0 - (-x / 2.0_f64).exp();
            assert!((chi.cdf(x) - expected).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn known_critical_values() {
        // 95th percentile of χ²(1) ≈ 3.841, χ²(5) ≈ 11.070, χ²(10) ≈ 18.307.
        for (k, crit) in [(1.0, 3.841), (5.0, 11.070), (10.0, 18.307)] {
            let chi = ChiSquared::new(k).unwrap();
            assert!(
                (chi.cdf(crit) - 0.95).abs() < 1e-3,
                "k={k}: cdf({crit}) = {}",
                chi.cdf(crit)
            );
        }
    }

    #[test]
    fn cdf_monotone_bounded() {
        let chi = ChiSquared::new(7.0).unwrap();
        let mut prev = 0.0;
        for i in 0..200 {
            let x = i as f64 * 0.25;
            let c = chi.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-12 >= prev);
            prev = c;
        }
        assert_eq!(chi.cdf(-1.0), 0.0);
    }

    #[test]
    fn gof_accepts_matching_sample() {
        let counts = [95u64, 105, 100, 98, 102];
        let probs = [0.2; 5];
        let (stat, p) = chi_square_gof_test(&counts, &probs).unwrap();
        assert!(stat < 2.0, "stat {stat}");
        assert!(p > 0.5, "p {p}");
    }

    #[test]
    fn gof_rejects_skewed_sample() {
        let counts = [400u64, 50, 50, 0, 0];
        let probs = [0.2; 5];
        let (stat, p) = chi_square_gof_test(&counts, &probs).unwrap();
        assert!(stat > 100.0);
        assert!(p < 1e-6, "p {p}");
    }

    #[test]
    fn gof_infinite_evidence_for_impossible_mass() {
        let counts = [10u64, 5];
        let probs = [1.0, 0.0];
        let (stat, p) = chi_square_gof_test(&counts, &probs).unwrap();
        assert!(stat.is_infinite());
        assert_eq!(p, 0.0);
    }

    #[test]
    fn gof_validation() {
        assert!(chi_square_gof_test(&[], &[]).is_err());
        assert!(chi_square_gof_test(&[1], &[0.5, 0.5]).is_err());
        assert!(chi_square_gof_test(&[0, 0], &[0.5, 0.5]).is_err());
        assert!(chi_square_gof_test(&[1, 1], &[0.5, 0.6]).is_err());
    }

    #[test]
    fn gof_single_live_bin_uninformative() {
        let (stat, p) = chi_square_gof_test(&[10, 0], &[1.0, 0.0]).unwrap();
        assert_eq!(stat, 0.0);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn incomplete_gamma_series_and_cf_agree_at_boundary() {
        // Both branches around x = a + 1 must agree.
        for a in [0.5, 2.0, 5.0, 20.0] {
            let below = regularized_lower_gamma(a, a + 0.999);
            let above = regularized_lower_gamma(a, a + 1.001);
            assert!(above >= below, "a={a}");
            assert!(above - below < 0.01, "a={a}: {below} vs {above}");
        }
    }

    #[test]
    fn gof_detects_the_metronome_attacker_with_known_p() {
        // The §6 contrast: *if* p were known (0.9), the classical test
        // also catches the deterministic 9-good-1-bad pattern.
        use crate::Binomial;
        let model = Binomial::new(10, 0.9).unwrap();
        // 40 windows, all with count exactly 9:
        let mut counts = vec![0u64; 11];
        counts[9] = 40;
        let (_, p) = chi_square_gof_test(&counts, &model.pmf_table()).unwrap();
        assert!(p < 1e-6, "metronome must be rejected: p = {p}");
    }
}
