//! The windowed average trust function.

use crate::error::CoreError;
use crate::history::HistoryView;
use crate::trust::{TrustFunction, TrustValue};

/// Average over only the most recent `l` transactions.
///
/// §3.3 of the paper discusses this design point explicitly: considering
/// "only the most recent l transactions … will open doors to periodic
/// attacks, since bad transactions are totally discarded once they are
/// outside of the most recent l transactions". It is included as a
/// baseline precisely so that weakness is measurable.
///
/// # Examples
///
/// ```
/// use hp_core::trust::{TrustFunction, WindowedAverageTrust};
/// use hp_core::{ServerId, TransactionHistory};
///
/// let f = WindowedAverageTrust::new(3)?;
/// let h = TransactionHistory::from_outcomes(
///     ServerId::new(1),
///     [false, false, true, true, true],
/// );
/// assert_eq!(f.trust(&h).value(), 1.0); // old failures forgotten
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedAverageTrust {
    window: usize,
}

impl WindowedAverageTrust {
    /// Creates a windowed average over the last `window` transactions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `window == 0`.
    pub fn new(window: usize) -> Result<Self, CoreError> {
        if window == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "window must be positive".into(),
            });
        }
        Ok(WindowedAverageTrust { window })
    }

    /// The window length `l`.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl TrustFunction for WindowedAverageTrust {
    fn trust(&self, history: &dyn HistoryView) -> TrustValue {
        let n = history.len();
        if n == 0 {
            return TrustValue::NEUTRAL;
        }
        let start = n.saturating_sub(self.window);
        let rate = history
            .rate_range(start, n)
            .expect("non-empty range checked above");
        TrustValue::saturating(rate)
    }

    fn name(&self) -> &'static str {
        "windowed-average"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TransactionHistory;
    use crate::id::ServerId;

    #[test]
    fn window_validation() {
        assert!(WindowedAverageTrust::new(0).is_err());
        assert!(WindowedAverageTrust::new(1).is_ok());
    }

    #[test]
    fn uses_only_recent_window() {
        let f = WindowedAverageTrust::new(2).unwrap();
        let h =
            TransactionHistory::from_outcomes(ServerId::new(1), [true, true, true, false, false]);
        assert_eq!(f.trust(&h).value(), 0.0);
    }

    #[test]
    fn short_history_uses_what_exists() {
        let f = WindowedAverageTrust::new(100).unwrap();
        let h = TransactionHistory::from_outcomes(ServerId::new(1), [true, false]);
        assert_eq!(f.trust(&h).value(), 0.5);
    }

    #[test]
    fn empty_history_neutral() {
        let f = WindowedAverageTrust::new(5).unwrap();
        assert_eq!(f.trust(&TransactionHistory::new()), TrustValue::NEUTRAL);
    }

    #[test]
    fn demonstrates_periodic_attack_blindness() {
        // A periodic attacker whose bad patch has just slid out of the
        // window looks perfect — the §3.3 weakness.
        let f = WindowedAverageTrust::new(10).unwrap();
        let mut outcomes = vec![true; 20];
        outcomes.extend(vec![false; 5]); // attack burst
        outcomes.extend(vec![true; 10]); // push it out of the window
        let h = TransactionHistory::from_outcomes(ServerId::new(1), outcomes);
        assert_eq!(f.trust(&h), TrustValue::ONE);
    }
}
