//! The weighted (EWMA) trust function.

use crate::error::CoreError;
use crate::history::HistoryView;
use crate::trust::{TrustFunction, TrustValue};

/// The exponentially weighted trust function of Fan, Tan & Whinston
/// (TKDE'05), the paper's second baseline (§5.1):
///
/// ```text
/// R_t = λ·f_t + (1 − λ)·R_{t−1}
/// ```
///
/// where `f_t ∈ {0, 1}` is the most recent feedback. Large `λ` makes trust
/// react quickly to recent behavior; the paper's experiments use `λ = 0.5`.
///
/// # Examples
///
/// ```
/// use hp_core::trust::{TrustFunction, WeightedTrust};
/// use hp_core::{ServerId, TransactionHistory};
///
/// let f = WeightedTrust::new(0.5)?;
/// let h = TransactionHistory::from_outcomes(ServerId::new(1), [true, true, false]);
/// // R = 0.5: R1 = 0.75, R2 = 0.875, R3 = 0.4375
/// assert!((f.trust(&h).value() - 0.4375).abs() < 1e-12);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedTrust {
    lambda: f64,
    initial: TrustValue,
}

impl WeightedTrust {
    /// Creates a weighted trust function with mixing factor `lambda` and a
    /// neutral initial value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `lambda ∈ (0, 1]`.
    pub fn new(lambda: f64) -> Result<Self, CoreError> {
        Self::with_initial(lambda, TrustValue::NEUTRAL)
    }

    /// Creates a weighted trust function with an explicit starting value
    /// `R_0` for servers with no history.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `lambda ∈ (0, 1]`.
    pub fn with_initial(lambda: f64, initial: TrustValue) -> Result<Self, CoreError> {
        if !(lambda > 0.0 && lambda <= 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("weighted trust λ must lie in (0, 1], got {lambda}"),
            });
        }
        Ok(WeightedTrust { lambda, initial })
    }

    /// The mixing factor λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The starting value `R_0`.
    pub fn initial(&self) -> TrustValue {
        self.initial
    }
}

impl TrustFunction for WeightedTrust {
    fn trust(&self, history: &dyn HistoryView) -> TrustValue {
        let mut r = self.initial.value();
        for i in 0..history.len() {
            let f = if history.outcome(i) { 1.0 } else { 0.0 };
            r = self.lambda * f + (1.0 - self.lambda) * r;
        }
        TrustValue::saturating(r)
    }

    fn name(&self) -> &'static str {
        "weighted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TransactionHistory;
    use crate::id::ServerId;

    #[test]
    fn lambda_validation() {
        assert!(WeightedTrust::new(0.0).is_err());
        assert!(WeightedTrust::new(1.5).is_err());
        assert!(WeightedTrust::new(1.0).is_ok());
        assert!(WeightedTrust::new(0.5).is_ok());
    }

    #[test]
    fn recurrence_hand_computed() {
        let f = WeightedTrust::new(0.5).unwrap();
        // R0=0.5; after good: 0.75; after bad: 0.375; after good: 0.6875
        let h = TransactionHistory::from_outcomes(ServerId::new(1), [true, false, true]);
        assert!((f.trust(&h).value() - 0.6875).abs() < 1e-12);
    }

    #[test]
    fn empty_history_returns_initial() {
        let f = WeightedTrust::with_initial(0.3, TrustValue::new(0.8).unwrap()).unwrap();
        assert_eq!(f.trust(&TransactionHistory::new()).value(), 0.8);
    }

    #[test]
    fn lambda_one_tracks_last_feedback_only() {
        let f = WeightedTrust::new(1.0).unwrap();
        let good_last = TransactionHistory::from_outcomes(ServerId::new(1), [false, false, true]);
        let bad_last = TransactionHistory::from_outcomes(ServerId::new(1), [true, true, false]);
        assert_eq!(f.trust(&good_last), TrustValue::ONE);
        assert_eq!(f.trust(&bad_last), TrustValue::ZERO);
    }

    #[test]
    fn long_good_run_converges_to_one() {
        let f = WeightedTrust::new(0.5).unwrap();
        let h = TransactionHistory::from_outcomes(ServerId::new(1), vec![true; 60]);
        assert!(f.trust(&h).value() > 0.999_999);
    }

    #[test]
    fn one_bad_transaction_halves_trust_at_half_lambda() {
        // This is the property behind the paper's observation that with
        // λ=0.5 an attacker "can never conduct two consecutive bad
        // transactions" while staying above 0.9.
        let f = WeightedTrust::new(0.5).unwrap();
        let mut h = TransactionHistory::from_outcomes(ServerId::new(1), vec![true; 40]);
        let before = f.trust(&h).value();
        h.push(crate::Feedback::new(
            40,
            ServerId::new(1),
            crate::ClientId::new(0),
            crate::Rating::Negative,
        ));
        let after = f.trust(&h).value();
        assert!((after - before / 2.0).abs() < 1e-9);
        assert!(after < 0.9);
    }
}
