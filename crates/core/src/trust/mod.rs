//! Trust functions — phase 2 of the two-phase assessment.
//!
//! A trust function maps a transaction history to a [`TrustValue`] in
//! `[0, 1]`, interpreted as the predicted probability that the next
//! transaction with the server will be satisfactory (§2 of the paper).
//!
//! Implementations:
//!
//! * [`AverageTrust`] — good/total ratio (the paper's first baseline; per
//!   Liang & Shi often the most cost-effective choice),
//! * [`WeightedTrust`] — the λ-EWMA of Fan, Tan & Whinston used as the
//!   paper's second baseline (`R_t = λ·f_t + (1-λ)·R_{t-1}`),
//! * [`BetaTrust`] — the beta reputation system of Ismail & Jøsang,
//! * [`DecayTrust`] — exponential time-decay weights,
//! * [`WindowedAverageTrust`] — average over the most recent `l`
//!   transactions only,
//! * [`global::GlobalTrust`] — an EigenRep/EigenTrust-style transitive
//!   trust baseline over the whole rating graph.
//!
//! The [`incremental`] module provides O(1)-per-transaction streaming
//! evaluators for the two baselines, which the simulator's strategic
//! attacker consults on every hypothetical move.

mod average;
mod beta;
mod decay;
pub mod global;
pub mod incremental;
mod weighted;
mod windowed;

pub use average::AverageTrust;
pub use beta::BetaTrust;
pub use decay::DecayTrust;
pub use global::{GlobalTrust, GlobalTrustConfig, RatingGraph};
pub use weighted::WeightedTrust;
pub use windowed::WindowedAverageTrust;

use crate::error::CoreError;
use crate::history::HistoryView;
#[cfg(test)]
use crate::history::TransactionHistory;
use std::fmt;

/// A trust value in `[0, 1]` — the predicted probability of a satisfactory
/// next transaction.
///
/// # Examples
///
/// ```
/// use hp_core::TrustValue;
///
/// let t = TrustValue::new(0.9)?;
/// assert!(t >= TrustValue::new(0.5)?);
/// assert_eq!(t.value(), 0.9);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TrustValue(f64);

impl TrustValue {
    /// Full distrust.
    pub const ZERO: TrustValue = TrustValue(0.0);
    /// Full trust.
    pub const ONE: TrustValue = TrustValue(1.0);
    /// The uninformed prior used where a value is needed for an empty
    /// history.
    pub const NEUTRAL: TrustValue = TrustValue(0.5);

    /// Creates a trust value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTrustValue`] unless `value ∈ [0, 1]`.
    pub fn new(value: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&value) || !value.is_finite() {
            return Err(CoreError::InvalidTrustValue { value });
        }
        Ok(TrustValue(value))
    }

    /// Creates a trust value, clamping out-of-range inputs into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN trust value is always a logic bug.
    pub fn saturating(value: f64) -> Self {
        assert!(!value.is_nan(), "trust value must not be NaN");
        TrustValue(value.clamp(0.0, 1.0))
    }

    /// The inner value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Whether this value meets a client's trust threshold.
    pub fn meets(self, threshold: f64) -> bool {
        self.0 >= threshold
    }
}

impl fmt::Display for TrustValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<TrustValue> for f64 {
    fn from(t: TrustValue) -> f64 {
        t.0
    }
}

/// A trust function: `2^F × V → [0, 1]` in the paper's formalization.
///
/// Implementations must be deterministic and must not mutate shared state;
/// the same history must always produce the same value.
pub trait TrustFunction {
    /// Computes the trust value of the server described by `history`.
    ///
    /// Takes any [`HistoryView`]; the reference and columnar history
    /// representations must yield bit-identical values.
    fn trust(&self, history: &dyn HistoryView) -> TrustValue;

    /// A short stable name for reports and CSV headers.
    fn name(&self) -> &'static str;
}

impl<T: TrustFunction + ?Sized> TrustFunction for &T {
    fn trust(&self, history: &dyn HistoryView) -> TrustValue {
        (**self).trust(history)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<T: TrustFunction + ?Sized> TrustFunction for Box<T> {
    fn trust(&self, history: &dyn HistoryView) -> TrustValue {
        (**self).trust(history)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServerId;

    #[test]
    fn trust_value_validation() {
        assert!(TrustValue::new(0.0).is_ok());
        assert!(TrustValue::new(1.0).is_ok());
        assert!(TrustValue::new(-0.01).is_err());
        assert!(TrustValue::new(1.01).is_err());
        assert!(TrustValue::new(f64::NAN).is_err());
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(TrustValue::saturating(3.0), TrustValue::ONE);
        assert_eq!(TrustValue::saturating(-1.0), TrustValue::ZERO);
        assert_eq!(TrustValue::saturating(0.25).value(), 0.25);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn saturating_rejects_nan() {
        let _ = TrustValue::saturating(f64::NAN);
    }

    #[test]
    fn meets_threshold() {
        let t = TrustValue::new(0.9).unwrap();
        assert!(t.meets(0.9));
        assert!(t.meets(0.5));
        assert!(!t.meets(0.95));
    }

    #[test]
    fn display_rounds_to_four_places() {
        assert_eq!(TrustValue::new(0.123456).unwrap().to_string(), "0.1235");
    }

    #[test]
    fn trait_object_and_reference_forwarding() {
        let avg = AverageTrust::default();
        let h = TransactionHistory::from_outcomes(ServerId::new(1), [true, true, false, true]);
        let direct = avg.trust(&h);
        let via_ref = avg.trust(&h);
        let boxed: Box<dyn TrustFunction> = Box::new(avg);
        assert_eq!(direct, via_ref);
        assert_eq!(direct, boxed.trust(&h));
        assert_eq!(boxed.name(), "average");
    }
}
