//! Scheme 1: single behavior testing over the whole history.

use crate::error::CoreError;
use crate::history::HistoryView;
use crate::testing::config::BehaviorTestConfig;
use crate::testing::engine::run_range_test;
use crate::testing::report::{TestReport, WindowTestReport};
use crate::testing::{shared_calibrator, BehaviorTest};
use hp_stats::ThresholdCalibrator;
use std::sync::Arc;

/// The paper's single behavior test (Fig. 2): break the whole history into
/// windows of `m` transactions, and check that the window counts of good
/// transactions follow `B(m, p̂)` within the calibrated L¹ threshold.
///
/// # Examples
///
/// ```
/// use hp_core::testing::{BehaviorTest, BehaviorTestConfig, SingleBehaviorTest, TestOutcome};
/// use hp_core::{ServerId, TransactionHistory};
///
/// let test = SingleBehaviorTest::new(BehaviorTestConfig::default())?;
///
/// // A periodic attacker: exactly one bad transaction every 10 — far too
/// // regular to be a Bernoulli process.
/// let outcomes = (0..500).map(|i| i % 10 != 0);
/// let h = TransactionHistory::from_outcomes(ServerId::new(1), outcomes);
/// let report = test.evaluate(&h)?;
/// assert_eq!(report.outcome(), TestOutcome::Suspicious);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct SingleBehaviorTest {
    config: BehaviorTestConfig,
    calibrator: Arc<ThresholdCalibrator>,
}

impl SingleBehaviorTest {
    /// Creates a single behavior test with its own threshold calibrator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: BehaviorTestConfig) -> Result<Self, CoreError> {
        let calibrator = shared_calibrator(&config)?;
        Ok(SingleBehaviorTest { config, calibrator })
    }

    /// Creates a single behavior test sharing an existing calibrator
    /// (recommended when several tests run with the same parameters — the
    /// threshold cache is then shared too).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration.
    pub fn with_calibrator(
        config: BehaviorTestConfig,
        calibrator: Arc<ThresholdCalibrator>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(SingleBehaviorTest { config, calibrator })
    }

    /// The active configuration.
    pub fn config(&self) -> &BehaviorTestConfig {
        &self.config
    }

    /// The shared calibrator.
    pub fn calibrator(&self) -> &Arc<ThresholdCalibrator> {
        &self.calibrator
    }

    /// The full typed report (callers who don't need the [`TestReport`]
    /// wrapper).
    ///
    /// # Errors
    ///
    /// Propagates statistical failures as [`CoreError::Stats`].
    pub fn evaluate_detailed(
        &self,
        history: &dyn HistoryView,
    ) -> Result<WindowTestReport, CoreError> {
        run_range_test(
            history.outcome_prefix(),
            0,
            history.len(),
            &self.config,
            &self.calibrator,
            self.config.confidence(),
            self.config.alignment(),
        )
    }
}

impl BehaviorTest for SingleBehaviorTest {
    fn evaluate(&self, history: &dyn HistoryView) -> Result<TestReport, CoreError> {
        Ok(TestReport::Single(self.evaluate_detailed(history)?))
    }

    fn name(&self) -> &'static str {
        "single"
    }

    fn window_size(&self) -> Option<u32> {
        Some(self.config.window_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::TransactionHistory;
    use crate::id::ServerId;
    use crate::testing::TestOutcome;
    use rand::RngExt;

    fn honest_history(n: usize, p: f64, seed: u64) -> TransactionHistory {
        let mut rng = hp_stats::seeded_rng(seed);
        TransactionHistory::from_outcomes(ServerId::new(1), (0..n).map(|_| rng.random::<f64>() < p))
    }

    #[test]
    fn honest_players_pass_at_high_rate() {
        let test = SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let trials = 200;
        let mut passes = 0;
        for seed in 0..trials {
            let h = honest_history(500, 0.9, seed);
            if test.evaluate_detailed(&h).unwrap().outcome == TestOutcome::Honest {
                passes += 1;
            }
        }
        let rate = passes as f64 / trials as f64;
        assert!(rate > 0.88, "honest pass rate {rate} too low");
    }

    #[test]
    fn deterministic_periodic_pattern_is_flagged() {
        let test = SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        // Exactly 9 good then 1 bad, repeated: every window count is 9.
        let h = TransactionHistory::from_outcomes(ServerId::new(1), (0..400).map(|i| i % 10 != 9));
        let report = test.evaluate_detailed(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Suspicious);
        assert!(report.distance.unwrap() > report.threshold.unwrap());
    }

    #[test]
    fn hibernating_tail_on_short_history_is_flagged() {
        let test = SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let mut h = honest_history(150, 0.95, 7);
        for t in 0..20u64 {
            h.push(crate::Feedback::new(
                150 + t,
                ServerId::new(1),
                crate::ClientId::new(0),
                crate::Rating::Negative,
            ));
        }
        let report = test.evaluate_detailed(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Suspicious);
    }

    #[test]
    fn short_history_is_inconclusive() {
        let test = SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let h = honest_history(40, 0.9, 3);
        let report = test.evaluate_detailed(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Inconclusive);
        assert_eq!(report.windows, 4);
    }

    #[test]
    fn perfect_history_passes() {
        let test = SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let h = TransactionHistory::from_outcomes(ServerId::new(1), vec![true; 300]);
        let report = test.evaluate_detailed(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Honest);
        assert_eq!(report.p_hat, Some(1.0));
        assert_eq!(report.distance, Some(0.0));
    }

    #[test]
    fn shared_calibrator_is_reused() {
        let config = BehaviorTestConfig::default();
        let cal = shared_calibrator(&config).unwrap();
        let a = SingleBehaviorTest::with_calibrator(config.clone(), Arc::clone(&cal)).unwrap();
        let h = honest_history(500, 0.9, 11);
        let _ = a.evaluate_detailed(&h).unwrap();
        assert!(cal.cache_len() > 0, "shared cache must be populated");
        assert!(Arc::ptr_eq(a.calibrator(), &cal));
    }

    #[test]
    fn trait_object_usage() {
        let test: Box<dyn BehaviorTest> =
            Box::new(SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap());
        let h = honest_history(300, 0.9, 13);
        let report = test.evaluate(&h).unwrap();
        assert_eq!(test.name(), "single");
        assert!(matches!(report, TestReport::Single(_)));
    }
}
