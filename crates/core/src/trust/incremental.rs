//! Streaming trust evaluators with O(1) updates and O(1) what-if peeks.
//!
//! The strategic attacker of §5.1 evaluates, before *every* transaction,
//! the trust value the system would assign if it cheated next. Recomputing
//! a trust function from scratch makes that loop quadratic; these states
//! keep it linear.

use crate::error::CoreError;
use crate::history::HistoryView;
use crate::trust::{TrustValue, WeightedTrust};

/// A trust evaluator that can be advanced one rating at a time and asked
/// what a hypothetical next rating would do.
pub trait IncrementalTrust {
    /// Advances the state with one observed rating.
    fn update(&mut self, good: bool);

    /// The current trust value.
    fn current(&self) -> TrustValue;

    /// The trust value that [`IncrementalTrust::update`] with `good` would
    /// produce, without changing the state.
    fn peek(&self, good: bool) -> TrustValue;

    /// Number of ratings observed so far.
    fn transactions(&self) -> u64;
}

/// Streaming counterpart of [`crate::trust::AverageTrust`].
///
/// # Examples
///
/// ```
/// use hp_core::trust::incremental::{AverageTrustState, IncrementalTrust};
///
/// let mut s = AverageTrustState::new();
/// s.update(true);
/// s.update(true);
/// s.update(false);
/// assert!((s.current().value() - 2.0 / 3.0).abs() < 1e-12);
/// assert!((s.peek(false).value() - 0.5).abs() < 1e-12);
/// assert_eq!(s.transactions(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AverageTrustState {
    good: u64,
    total: u64,
}

impl AverageTrustState {
    /// Creates an empty state (neutral trust).
    pub fn new() -> Self {
        AverageTrustState::default()
    }

    /// Initializes the state from an existing history.
    pub fn from_history(history: &dyn HistoryView) -> Self {
        AverageTrustState {
            good: history.good_count(),
            total: history.len() as u64,
        }
    }

    fn value(good: u64, total: u64) -> TrustValue {
        if total == 0 {
            TrustValue::NEUTRAL
        } else {
            TrustValue::saturating(good as f64 / total as f64)
        }
    }

    /// The raw `(good, total)` counters (snapshot payload; round-trips
    /// through [`AverageTrustState::from_raw_parts`]).
    pub fn raw_parts(&self) -> (u64, u64) {
        (self.good, self.total)
    }

    /// Rebuilds a state from its raw counters, or `None` when they are
    /// inconsistent (`good > total` can never arise from updates).
    pub fn from_raw_parts(good: u64, total: u64) -> Option<Self> {
        (good <= total).then_some(AverageTrustState { good, total })
    }
}

impl IncrementalTrust for AverageTrustState {
    fn update(&mut self, good: bool) {
        self.good += u64::from(good);
        self.total += 1;
    }

    fn current(&self) -> TrustValue {
        Self::value(self.good, self.total)
    }

    fn peek(&self, good: bool) -> TrustValue {
        Self::value(self.good + u64::from(good), self.total + 1)
    }

    fn transactions(&self) -> u64 {
        self.total
    }
}

/// Streaming counterpart of [`WeightedTrust`].
///
/// # Examples
///
/// ```
/// use hp_core::trust::incremental::{IncrementalTrust, WeightedTrustState};
///
/// let mut s = WeightedTrustState::new(0.5)?;
/// s.update(true); // 0.75
/// assert!((s.peek(false).value() - 0.375).abs() < 1e-12);
/// assert!((s.current().value() - 0.75).abs() < 1e-12);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedTrustState {
    lambda: f64,
    r: f64,
    count: u64,
}

impl WeightedTrustState {
    /// Creates a state with mixing factor `lambda` and a neutral start.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `lambda ∈ (0, 1]`.
    pub fn new(lambda: f64) -> Result<Self, CoreError> {
        // Reuse WeightedTrust's validation so the rules stay identical.
        let f = WeightedTrust::new(lambda)?;
        Ok(WeightedTrustState {
            lambda: f.lambda(),
            r: f.initial().value(),
            count: 0,
        })
    }

    /// Initializes the state by replaying an existing history.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `lambda ∈ (0, 1]`.
    pub fn from_history(lambda: f64, history: &dyn HistoryView) -> Result<Self, CoreError> {
        let mut s = Self::new(lambda)?;
        for i in 0..history.len() {
            s.update(history.outcome(i));
        }
        Ok(s)
    }

    /// The raw `(lambda, r, count)` fields. Encode the floats via
    /// `to_bits` so a snapshot round-trip through
    /// [`WeightedTrustState::from_raw_parts`] is bit-exact.
    pub fn raw_parts(&self) -> (f64, f64, u64) {
        (self.lambda, self.r, self.count)
    }

    /// Rebuilds a state from its raw fields.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `lambda ∈ (0, 1]` and
    /// `r` is finite — the only values updates can ever produce.
    pub fn from_raw_parts(lambda: f64, r: f64, count: u64) -> Result<Self, CoreError> {
        let _ = WeightedTrust::new(lambda)?;
        if !r.is_finite() {
            return Err(CoreError::InvalidConfig {
                reason: "weighted trust state r must be finite".into(),
            });
        }
        Ok(WeightedTrustState { lambda, r, count })
    }
}

impl IncrementalTrust for WeightedTrustState {
    fn update(&mut self, good: bool) {
        let f = if good { 1.0 } else { 0.0 };
        self.r = self.lambda * f + (1.0 - self.lambda) * self.r;
        self.count += 1;
    }

    fn current(&self) -> TrustValue {
        TrustValue::saturating(self.r)
    }

    fn peek(&self, good: bool) -> TrustValue {
        let f = if good { 1.0 } else { 0.0 };
        TrustValue::saturating(self.lambda * f + (1.0 - self.lambda) * self.r)
    }

    fn transactions(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TransactionHistory;
    use crate::id::ServerId;
    use crate::trust::{AverageTrust, TrustFunction};

    #[test]
    fn average_state_matches_batch_function() {
        let outcomes = [true, false, true, true, false, true, true];
        let mut state = AverageTrustState::new();
        let mut h = TransactionHistory::new();
        let f = AverageTrust::default();
        for (t, &good) in outcomes.iter().enumerate() {
            state.update(good);
            h.push(crate::Feedback::new(
                t as u64,
                ServerId::new(1),
                crate::ClientId::new(0),
                crate::Rating::from_good(good),
            ));
            assert_eq!(state.current(), f.trust(&h), "step {t}");
        }
    }

    #[test]
    fn weighted_state_matches_batch_function() {
        let outcomes = [true, true, false, true, false, false, true];
        let f = WeightedTrust::new(0.5).unwrap();
        let mut state = WeightedTrustState::new(0.5).unwrap();
        let mut h = TransactionHistory::new();
        for (t, &good) in outcomes.iter().enumerate() {
            state.update(good);
            h.push(crate::Feedback::new(
                t as u64,
                ServerId::new(1),
                crate::ClientId::new(0),
                crate::Rating::from_good(good),
            ));
            assert!((state.current().value() - f.trust(&h).value()).abs() < 1e-12);
        }
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut s = AverageTrustState::new();
        s.update(true);
        let before = s.current();
        let _ = s.peek(false);
        let _ = s.peek(true);
        assert_eq!(s.current(), before);
        assert_eq!(s.transactions(), 1);
    }

    #[test]
    fn peek_equals_update_result() {
        let mut a = WeightedTrustState::new(0.3).unwrap();
        a.update(true);
        a.update(false);
        let peeked = a.peek(true);
        let mut b = a;
        b.update(true);
        assert_eq!(peeked, b.current());
    }

    #[test]
    fn from_history_matches_replay() {
        let h = TransactionHistory::from_outcomes(ServerId::new(1), [true, false, true, true]);
        let avg = AverageTrustState::from_history(&h);
        assert_eq!(avg.transactions(), 4);
        assert!((avg.current().value() - 0.75).abs() < 1e-12);
        let w = WeightedTrustState::from_history(0.5, &h).unwrap();
        let batch = WeightedTrust::new(0.5).unwrap().trust(&h);
        assert!((w.current().value() - batch.value()).abs() < 1e-12);
    }

    #[test]
    fn empty_states_are_neutral() {
        assert_eq!(AverageTrustState::new().current(), TrustValue::NEUTRAL);
        assert_eq!(
            WeightedTrustState::new(0.5).unwrap().current(),
            TrustValue::NEUTRAL
        );
    }
}
