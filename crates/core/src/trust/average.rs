//! The average trust function.

use crate::history::HistoryView;
use crate::trust::{TrustFunction, TrustValue};

/// Trust as the ratio of good transactions over all transactions.
///
/// The paper's primary baseline (§5.1): "compute the trust value as the
/// ratio of the number of good transactions over the total number of
/// transactions". Many published trust functions are refinements of this
/// ratio; Liang & Shi's analysis (cited in §5.1) found it to often be the
/// most cost-effective in dynamic systems.
///
/// # Examples
///
/// ```
/// use hp_core::trust::{AverageTrust, TrustFunction};
/// use hp_core::{ServerId, TransactionHistory};
///
/// let h = TransactionHistory::from_outcomes(ServerId::new(1), [true, true, true, false]);
/// let trust = AverageTrust::default().trust(&h);
/// assert_eq!(trust.value(), 0.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AverageTrust {
    empty_default: TrustValue,
}

impl AverageTrust {
    /// Creates an average trust function that reports `empty_default` for
    /// servers without any transaction history.
    pub fn new(empty_default: TrustValue) -> Self {
        AverageTrust { empty_default }
    }
}

impl Default for AverageTrust {
    /// Uses [`TrustValue::NEUTRAL`] for empty histories.
    fn default() -> Self {
        AverageTrust::new(TrustValue::NEUTRAL)
    }
}

impl TrustFunction for AverageTrust {
    fn trust(&self, history: &dyn HistoryView) -> TrustValue {
        match history.p_hat() {
            Some(p) => TrustValue::saturating(p),
            None => self.empty_default,
        }
    }

    fn name(&self) -> &'static str {
        "average"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TransactionHistory;
    use crate::id::ServerId;

    #[test]
    fn ratio_of_good_transactions() {
        let h =
            TransactionHistory::from_outcomes(ServerId::new(1), [true, false, true, true, false]);
        assert_eq!(AverageTrust::default().trust(&h).value(), 0.6);
    }

    #[test]
    fn empty_history_uses_default() {
        let h = TransactionHistory::new();
        assert_eq!(AverageTrust::default().trust(&h), TrustValue::NEUTRAL);
        let pessimist = AverageTrust::new(TrustValue::ZERO);
        assert_eq!(pessimist.trust(&h), TrustValue::ZERO);
    }

    #[test]
    fn all_good_and_all_bad_extremes() {
        let good = TransactionHistory::from_outcomes(ServerId::new(1), vec![true; 50]);
        let bad = TransactionHistory::from_outcomes(ServerId::new(1), vec![false; 50]);
        let f = AverageTrust::default();
        assert_eq!(f.trust(&good), TrustValue::ONE);
        assert_eq!(f.trust(&bad), TrustValue::ZERO);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(AverageTrust::default().name(), "average");
    }
}
