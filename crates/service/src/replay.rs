//! The offline side of the service's correctness oracle: a
//! [`TwoPhaseAssessor`] built from a service's own configuration.
//!
//! The same feedback stream is (a) ingested online, batch by batch, and
//! (b) assessed offline by [`OfflineReference`]. Because phase-1
//! calibration is deterministic and the streaming trust states are
//! bit-exact counterparts of the batch trust functions, the two paths must
//! agree on every server — the equivalence, chaos and recovery suites and
//! the `online_service` example all assert it.

use crate::config::{ServiceConfig, TrustModel};
use hp_core::testing::MultiBehaviorTest;
use hp_core::trust::{AverageTrust, WeightedTrust};
use hp_core::twophase::{Assessment, TwoPhaseAssessor};
use hp_core::{CoreError, Feedback, ServerId, TransactionHistory};

/// The offline reference wired exactly like a service: the behavior test
/// the service effectively runs (threshold surface and tiering horizon
/// included, hence the same deterministic calibration), same trust model,
/// same short-history policy.
#[derive(Debug)]
pub enum OfflineReference {
    /// Reference for [`TrustModel::Average`].
    Average(TwoPhaseAssessor<MultiBehaviorTest, AverageTrust>),
    /// Reference for [`TrustModel::Weighted`].
    Weighted(TwoPhaseAssessor<MultiBehaviorTest, WeightedTrust>),
}

impl OfflineReference {
    /// Builds the reference assessor for `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the core pipeline.
    pub fn from_config(config: &ServiceConfig) -> Result<Self, CoreError> {
        let test = MultiBehaviorTest::new(config.effective_test())?;
        Ok(match config.trust() {
            TrustModel::Average => OfflineReference::Average(
                TwoPhaseAssessor::new(test, AverageTrust::default())
                    .with_short_history_policy(config.short_history()),
            ),
            TrustModel::Weighted { lambda } => OfflineReference::Weighted(
                TwoPhaseAssessor::new(test, WeightedTrust::new(lambda)?)
                    .with_short_history_policy(config.short_history()),
            ),
        })
    }

    /// Assesses a full history from scratch — every suffix's report
    /// collected — and then summarizes that report, which is the form a
    /// service keeps: `==` against an online verdict compares the verdict,
    /// the trust value, the per-test confidence, both counts and the
    /// binding suffix's p̂, distance and threshold.
    ///
    /// # Errors
    ///
    /// Propagates assessment errors from the core pipeline.
    pub fn assess(&self, history: &TransactionHistory) -> Result<Assessment, CoreError> {
        let full = match self {
            OfflineReference::Average(a) => a.assess(history),
            OfflineReference::Weighted(a) => a.assess(history),
        }?;
        Ok(full.summarized())
    }
}

/// Re-stamps every feedback in `history` onto `server`, preserving order,
/// times, clients and ratings. Workload generators emit all histories
/// under one placeholder server id; a replay needs each history on its own
/// server.
pub fn restamp(history: &TransactionHistory, server: ServerId) -> Vec<Feedback> {
    history
        .iter()
        .map(|f| Feedback::new(f.time, server, f.client, f.rating))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_sim::workload;

    #[test]
    fn restamp_preserves_everything_but_server() {
        let history = workload::honest_history(50, 0.9, 7);
        let restamped = restamp(&history, ServerId::new(42));
        assert_eq!(restamped.len(), 50);
        for (a, b) in history.iter().zip(&restamped) {
            assert_eq!(b.server, ServerId::new(42));
            assert_eq!(a.time, b.time);
            assert_eq!(a.client, b.client);
            assert_eq!(a.rating, b.rating);
        }
    }
}
