//! The two-phase trust assessor — the paper's Fig. 1 pipeline.

use crate::error::CoreError;
use crate::history::HistoryView;
use crate::testing::{BehaviorTest, TestOutcome, TestReport};
use crate::trust::{TrustFunction, TrustValue};

/// What to do with servers whose histories are too short to test
/// statistically.
///
/// The paper's position (§7): short-history servers are "widely considered
/// high-risk groups"; for low-risk transactions "we may relax behavior
/// testing so that we can choose service from new servers".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShortHistoryPolicy {
    /// Hand the history to the trust function anyway, but mark the
    /// assessment as needing review (default — mirrors "prompted to users
    /// for further examination").
    #[default]
    Review,
    /// Trust the phase-2 result unconditionally (for low-risk
    /// transactions).
    Trust,
    /// Reject untestable servers outright (for high-risk transactions).
    Reject,
}

/// The outcome of a two-phase assessment.
#[derive(Debug, Clone, PartialEq)]
pub enum Assessment {
    /// Phase 1 passed; `trust` is the phase-2 trust value.
    Accepted {
        /// The phase-2 trust value.
        trust: TrustValue,
        /// The phase-1 report.
        report: TestReport,
    },
    /// Phase 1 flagged the history as inconsistent with the honest-player
    /// model; no trust value is produced ("Alert … Abort" in Fig. 2).
    Rejected {
        /// The phase-1 report.
        report: TestReport,
    },
    /// The history was too short to test and the policy asks for human
    /// review; `trust` is phase 2's (low-confidence) opinion.
    NeedsReview {
        /// The phase-2 trust value, to be taken with caution.
        trust: TrustValue,
        /// The phase-1 report.
        report: TestReport,
    },
}

impl Assessment {
    /// The assessment a phase-1 `report` leads to under `policy`; `trust`
    /// is phase 2, asked only where a trust value is produced.
    pub fn from_report(
        report: TestReport,
        policy: ShortHistoryPolicy,
        trust: impl FnOnce() -> TrustValue,
    ) -> Assessment {
        match (report.outcome(), policy) {
            (TestOutcome::Suspicious, _)
            | (TestOutcome::Inconclusive, ShortHistoryPolicy::Reject) => {
                Assessment::Rejected { report }
            }
            (TestOutcome::Honest, _) | (TestOutcome::Inconclusive, ShortHistoryPolicy::Trust) => {
                Assessment::Accepted {
                    trust: trust(),
                    report,
                }
            }
            (TestOutcome::Inconclusive, ShortHistoryPolicy::Review) => Assessment::NeedsReview {
                trust: trust(),
                report,
            },
        }
    }

    /// This assessment with its report [`TestReport::summarized`]: what a
    /// service that keeps no per-suffix detail serves for the same
    /// history.
    pub fn summarized(self) -> Assessment {
        match self {
            Assessment::Accepted { trust, report } => Assessment::Accepted {
                trust,
                report: report.summarized(),
            },
            Assessment::Rejected { report } => Assessment::Rejected {
                report: report.summarized(),
            },
            Assessment::NeedsReview { trust, report } => Assessment::NeedsReview {
                trust,
                report: report.summarized(),
            },
        }
    }

    /// Whether the server was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Assessment::Accepted { .. })
    }

    /// Whether the server was rejected as suspicious.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Assessment::Rejected { .. })
    }

    /// The trust value, if one was produced.
    pub fn trust(&self) -> Option<TrustValue> {
        match self {
            Assessment::Accepted { trust, .. } | Assessment::NeedsReview { trust, .. } => {
                Some(*trust)
            }
            Assessment::Rejected { .. } => None,
        }
    }

    /// The phase-1 report.
    pub fn report(&self) -> &TestReport {
        match self {
            Assessment::Accepted { report, .. }
            | Assessment::Rejected { report }
            | Assessment::NeedsReview { report, .. } => report,
        }
    }
}

/// Two-phase trust assessment: behavior screening, then a trust function.
///
/// "Only when the first phase is passed, will we apply existing trust
/// functions to determine whether the server is a good service provider"
/// (§1).
///
/// # Examples
///
/// ```
/// use hp_core::testing::{BehaviorTestConfig, MultiBehaviorTest};
/// use hp_core::trust::WeightedTrust;
/// use hp_core::{ServerId, TransactionHistory, TwoPhaseAssessor};
/// use rand::RngExt;
///
/// let assessor = TwoPhaseAssessor::new(
///     MultiBehaviorTest::new(BehaviorTestConfig::default())?,
///     WeightedTrust::new(0.5)?,
/// );
/// let mut rng = hp_stats::seeded_rng(1);
/// let honest = TransactionHistory::from_outcomes(
///     ServerId::new(7),
///     (0..600).map(|_| rng.random::<f64>() < 0.95),
/// );
/// let assessment = assessor.assess(&honest)?;
/// assert!(assessment.is_accepted());
/// assert!(assessment.trust().unwrap().value() > 0.5);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct TwoPhaseAssessor<B, T> {
    behavior: B,
    trust: T,
    short_history: ShortHistoryPolicy,
}

impl<B: BehaviorTest, T: TrustFunction> TwoPhaseAssessor<B, T> {
    /// Creates an assessor from a behavior test and a trust function, with
    /// the default [`ShortHistoryPolicy::Review`].
    pub fn new(behavior: B, trust: T) -> Self {
        TwoPhaseAssessor {
            behavior,
            trust,
            short_history: ShortHistoryPolicy::default(),
        }
    }

    /// Sets the short-history policy (builder style).
    pub fn with_short_history_policy(mut self, policy: ShortHistoryPolicy) -> Self {
        self.short_history = policy;
        self
    }

    /// The phase-1 behavior test.
    pub fn behavior_test(&self) -> &B {
        &self.behavior
    }

    /// The phase-2 trust function.
    pub fn trust_function(&self) -> &T {
        &self.trust
    }

    /// The short-history policy.
    pub fn short_history_policy(&self) -> ShortHistoryPolicy {
        self.short_history
    }

    /// Runs the full two-phase assessment.
    ///
    /// # Errors
    ///
    /// Propagates behavior-test failures ([`CoreError`]); a suspicious
    /// server is *not* an error and is reported as
    /// [`Assessment::Rejected`].
    pub fn assess(&self, history: &impl HistoryView) -> Result<Assessment, CoreError> {
        let report = self.behavior.evaluate(history)?;
        Ok(Assessment::from_report(report, self.short_history, || {
            self.trust.trust(history)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TransactionHistory;
    use crate::id::ServerId;
    use crate::testing::{BehaviorTestConfig, SingleBehaviorTest};
    use crate::trust::AverageTrust;
    use rand::RngExt;

    fn assessor() -> TwoPhaseAssessor<SingleBehaviorTest, AverageTrust> {
        TwoPhaseAssessor::new(
            SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap(),
            AverageTrust::default(),
        )
    }

    fn honest(n: usize, seed: u64) -> TransactionHistory {
        let mut rng = hp_stats::seeded_rng(seed);
        TransactionHistory::from_outcomes(
            ServerId::new(1),
            (0..n).map(|_| rng.random::<f64>() < 0.9),
        )
    }

    #[test]
    fn honest_server_accepted_with_trust_value() {
        let a = assessor();
        let h = honest(600, 1);
        let assessment = a.assess(&h).unwrap();
        assert!(assessment.is_accepted());
        let t = assessment.trust().unwrap().value();
        assert!((t - 0.9).abs() < 0.05, "trust {t}");
    }

    #[test]
    fn suspicious_server_rejected_without_trust() {
        let a = assessor();
        let h = TransactionHistory::from_outcomes(
            ServerId::new(1),
            (0..400).map(|i| i % 10 != 9), // metronome attacker
        );
        let assessment = a.assess(&h).unwrap();
        assert!(assessment.is_rejected());
        assert_eq!(assessment.trust(), None);
        assert!(assessment.report().is_suspicious());
    }

    #[test]
    fn short_history_policies() {
        let h = honest(30, 2);

        let review = assessor();
        assert!(matches!(
            review.assess(&h).unwrap(),
            Assessment::NeedsReview { .. }
        ));

        let trust = assessor().with_short_history_policy(ShortHistoryPolicy::Trust);
        assert!(trust.assess(&h).unwrap().is_accepted());

        let reject = assessor().with_short_history_policy(ShortHistoryPolicy::Reject);
        assert!(reject.assess(&h).unwrap().is_rejected());
    }

    #[test]
    fn needs_review_still_carries_trust_opinion() {
        let a = assessor();
        let h = honest(30, 3);
        let assessment = a.assess(&h).unwrap();
        assert!(assessment.trust().is_some());
        assert!(!assessment.is_accepted());
        assert!(!assessment.is_rejected());
    }

    #[test]
    fn accessors_expose_components() {
        let a = assessor().with_short_history_policy(ShortHistoryPolicy::Reject);
        assert_eq!(a.behavior_test().name(), "single");
        assert_eq!(a.trust_function().name(), "average");
        assert_eq!(a.short_history_policy(), ShortHistoryPolicy::Reject);
    }
}
