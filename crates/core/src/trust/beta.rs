//! The beta reputation trust function.

use crate::error::CoreError;
use crate::history::HistoryView;
use crate::trust::{TrustFunction, TrustValue};

/// The beta reputation system of Ismail & Jøsang (Bled'02), one of the
/// decay-family baselines the paper cites (§6): trust is the mean of a
/// `Beta(α₀ + good, β₀ + bad)` posterior,
///
/// ```text
/// T = (good + α₀) / (n + α₀ + β₀)
/// ```
///
/// With the default uniform prior `α₀ = β₀ = 1`, an empty history yields
/// the neutral value 0.5 and the estimate is gracefully smoothed for short
/// histories — the property that motivates its use over the raw average.
///
/// # Examples
///
/// ```
/// use hp_core::trust::{BetaTrust, TrustFunction};
/// use hp_core::{ServerId, TransactionHistory};
///
/// let f = BetaTrust::default();
/// let h = TransactionHistory::from_outcomes(ServerId::new(1), [true, true, true]);
/// assert_eq!(f.trust(&h).value(), 0.8); // (3+1)/(3+2)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaTrust {
    alpha0: f64,
    beta0: f64,
}

impl BetaTrust {
    /// Creates a beta trust function with prior pseudo-counts `alpha0`
    /// (good) and `beta0` (bad).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless both priors are
    /// positive and finite.
    pub fn new(alpha0: f64, beta0: f64) -> Result<Self, CoreError> {
        if !(alpha0 > 0.0 && alpha0.is_finite() && beta0 > 0.0 && beta0.is_finite()) {
            return Err(CoreError::InvalidConfig {
                reason: format!("beta priors must be positive, got α₀={alpha0}, β₀={beta0}"),
            });
        }
        Ok(BetaTrust { alpha0, beta0 })
    }

    /// Prior good pseudo-count α₀.
    pub fn alpha0(&self) -> f64 {
        self.alpha0
    }

    /// Prior bad pseudo-count β₀.
    pub fn beta0(&self) -> f64 {
        self.beta0
    }
}

impl Default for BetaTrust {
    /// The uniform prior `Beta(1, 1)`.
    fn default() -> Self {
        BetaTrust {
            alpha0: 1.0,
            beta0: 1.0,
        }
    }
}

impl BetaTrust {
    /// The full posterior `Beta(α₀ + good, β₀ + bad)` for a history —
    /// richer than the point estimate [`TrustFunction::trust`] returns.
    ///
    /// # Errors
    ///
    /// Never fails for a validated `BetaTrust`; the `Result` mirrors the
    /// underlying distribution constructor.
    pub fn posterior(&self, history: &dyn HistoryView) -> Result<hp_stats::BetaDist, CoreError> {
        Ok(hp_stats::BetaDist::new(
            self.alpha0 + history.good_count() as f64,
            self.beta0 + history.bad_count() as f64,
        )?)
    }

    /// Equal-tailed credible interval for the server's trustworthiness.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`]-class errors for a level
    /// outside `(0, 1)` (via [`hp_stats::StatsError`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use hp_core::trust::BetaTrust;
    /// use hp_core::{ServerId, TransactionHistory};
    ///
    /// let h = TransactionHistory::from_outcomes(
    ///     ServerId::new(1),
    ///     (0..100).map(|i| i % 10 != 0),
    /// );
    /// let (lo, hi) = BetaTrust::default().credible_interval(&h, 0.95)?;
    /// assert!(lo < 0.9 && 0.9 < hi);
    /// # Ok::<(), hp_core::CoreError>(())
    /// ```
    pub fn credible_interval(
        &self,
        history: &dyn HistoryView,
        level: f64,
    ) -> Result<(f64, f64), CoreError> {
        Ok(self.posterior(history)?.credible_interval(level)?)
    }
}

impl TrustFunction for BetaTrust {
    fn trust(&self, history: &dyn HistoryView) -> TrustValue {
        let good = history.good_count() as f64;
        let n = history.len() as f64;
        TrustValue::saturating((good + self.alpha0) / (n + self.alpha0 + self.beta0))
    }

    fn name(&self) -> &'static str {
        "beta"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TransactionHistory;
    use crate::id::ServerId;

    #[test]
    fn prior_validation() {
        assert!(BetaTrust::new(0.0, 1.0).is_err());
        assert!(BetaTrust::new(1.0, -1.0).is_err());
        assert!(BetaTrust::new(f64::INFINITY, 1.0).is_err());
        assert!(BetaTrust::new(2.0, 3.0).is_ok());
    }

    #[test]
    fn empty_history_is_prior_mean() {
        let f = BetaTrust::new(2.0, 3.0).unwrap();
        assert!((f.trust(&TransactionHistory::new()).value() - 0.4).abs() < 1e-12);
        assert_eq!(
            BetaTrust::default().trust(&TransactionHistory::new()),
            TrustValue::NEUTRAL
        );
    }

    #[test]
    fn converges_to_average_with_data() {
        let f = BetaTrust::default();
        let avg = crate::trust::AverageTrust::default();
        let outcomes: Vec<bool> = (0..10_000).map(|i| i % 10 != 0).collect();
        let h = TransactionHistory::from_outcomes(ServerId::new(1), outcomes);
        let beta_v = f.trust(&h).value();
        let avg_v = avg.trust(&h).value();
        assert!((beta_v - avg_v).abs() < 1e-3);
    }

    #[test]
    fn credible_interval_narrows_with_data() {
        let f = BetaTrust::default();
        let short =
            TransactionHistory::from_outcomes(ServerId::new(1), (0..20).map(|i| i % 10 != 0));
        let long =
            TransactionHistory::from_outcomes(ServerId::new(1), (0..2000).map(|i| i % 10 != 0));
        let (lo_s, hi_s) = f.credible_interval(&short, 0.95).unwrap();
        let (lo_l, hi_l) = f.credible_interval(&long, 0.95).unwrap();
        assert!(hi_s - lo_s > hi_l - lo_l, "more data, tighter interval");
        assert!(lo_l < 0.9 && 0.9 < hi_l);
        assert!(f.credible_interval(&long, 1.5).is_err());
    }

    #[test]
    fn smoother_than_average_on_short_histories() {
        // One good transaction: average says 1.0, beta hedges.
        let h = TransactionHistory::from_outcomes(ServerId::new(1), [true]);
        let beta_v = BetaTrust::default().trust(&h).value();
        assert!((beta_v - 2.0 / 3.0).abs() < 1e-12);
    }
}
