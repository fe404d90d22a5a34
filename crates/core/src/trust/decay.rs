//! The exponential time-decay trust function.

use crate::error::CoreError;
use crate::history::HistoryView;
use crate::trust::{TrustFunction, TrustValue};

/// Time-decay trust: each feedback is weighted by `2^(−age/half_life)`
/// where age is measured from the most recent feedback's timestamp, and
/// trust is the weighted fraction of good transactions.
///
/// This is the "assign time-based weights `w_i` to each feedback such that
/// `Σ w_i = 1`" family the paper surveys in §6 (Ray & Chakraborty, Huynh
/// et al., Selçuk et al.). Unlike [`crate::trust::WeightedTrust`], it uses
/// real timestamps, so a burst of old transactions cannot crowd out recent
/// behavior.
///
/// # Examples
///
/// ```
/// use hp_core::trust::{DecayTrust, TrustFunction};
/// use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
///
/// let f = DecayTrust::new(10.0)?;
/// let mut h = TransactionHistory::new();
/// // An old bad patch followed by recent good service:
/// for t in 0..20 {
///     h.push(Feedback::new(t, ServerId::new(1), ClientId::new(0), Rating::Negative));
/// }
/// for t in 100..120 {
///     h.push(Feedback::new(t, ServerId::new(1), ClientId::new(0), Rating::Positive));
/// }
/// assert!(f.trust(&h).value() > 0.9, "old failures decay away");
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayTrust {
    half_life: f64,
    empty_default: TrustValue,
}

impl DecayTrust {
    /// Creates a decay trust function with the given half-life (in the
    /// same time units as feedback timestamps).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `half_life` is positive
    /// and finite.
    pub fn new(half_life: f64) -> Result<Self, CoreError> {
        if !(half_life > 0.0 && half_life.is_finite()) {
            return Err(CoreError::InvalidConfig {
                reason: format!("decay half-life must be positive, got {half_life}"),
            });
        }
        Ok(DecayTrust {
            half_life,
            empty_default: TrustValue::NEUTRAL,
        })
    }

    /// The configured half-life.
    pub fn half_life(&self) -> f64 {
        self.half_life
    }
}

impl TrustFunction for DecayTrust {
    fn trust(&self, history: &dyn HistoryView) -> TrustValue {
        let n = history.len();
        if n == 0 {
            return self.empty_default;
        }
        // Representations without a timestamp column fall back to the
        // transaction index as the clock.
        let time_at = |i: usize| history.time(i).unwrap_or(i as u64);
        let now = time_at(n - 1);
        let mut weight_sum = 0.0;
        let mut good_sum = 0.0;
        for i in 0..n {
            let age = now.saturating_sub(time_at(i)) as f64;
            let w = (-age / self.half_life * std::f64::consts::LN_2).exp();
            weight_sum += w;
            if history.outcome(i) {
                good_sum += w;
            }
        }
        if weight_sum <= 0.0 {
            return self.empty_default;
        }
        TrustValue::saturating(good_sum / weight_sum)
    }

    fn name(&self) -> &'static str {
        "decay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::{Feedback, Rating};
    use crate::history::TransactionHistory;
    use crate::id::{ClientId, ServerId};

    fn fb(t: u64, good: bool) -> Feedback {
        Feedback::new(
            t,
            ServerId::new(1),
            ClientId::new(0),
            Rating::from_good(good),
        )
    }

    #[test]
    fn half_life_validation() {
        assert!(DecayTrust::new(0.0).is_err());
        assert!(DecayTrust::new(-3.0).is_err());
        assert!(DecayTrust::new(f64::NAN).is_err());
        assert!(DecayTrust::new(5.0).is_ok());
    }

    #[test]
    fn empty_history_neutral() {
        let f = DecayTrust::new(5.0).unwrap();
        assert_eq!(f.trust(&TransactionHistory::new()), TrustValue::NEUTRAL);
    }

    #[test]
    fn uniform_times_equal_average() {
        // All feedback at the same timestamp ⇒ equal weights ⇒ average.
        let f = DecayTrust::new(5.0).unwrap();
        let mut h = TransactionHistory::new();
        for good in [true, true, false, true] {
            h.push(fb(100, good));
        }
        assert!((f.trust(&h).value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn exact_half_life_weighting() {
        // One bad feedback exactly one half-life before one good feedback:
        // weights 0.5 and 1.0 ⇒ trust = 1.0/1.5.
        let f = DecayTrust::new(10.0).unwrap();
        let mut h = TransactionHistory::new();
        h.push(fb(0, false));
        h.push(fb(10, true));
        assert!((f.trust(&h).value() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn recent_behavior_dominates() {
        let f = DecayTrust::new(2.0).unwrap();
        let mut cheat_recent = TransactionHistory::new();
        for t in 0..50 {
            cheat_recent.push(fb(t, true));
        }
        for t in 50..55 {
            cheat_recent.push(fb(t, false));
        }
        assert!(f.trust(&cheat_recent).value() < 0.3);
    }
}
