//! Scheme 2: multi-testing of server behavior (§3.3).

use crate::error::CoreError;
use crate::history::HistoryView;
use crate::testing::config::BehaviorTestConfig;
use crate::testing::engine::{run_multi, run_multi_naive};
use crate::testing::report::{
    MultiFold, MultiReport, MultiSummary, SuffixSink, TestOutcome, TestReport,
};
use crate::testing::{shared_calibrator, BehaviorTest};
use hp_stats::ThresholdCalibrator;
use std::sync::Arc;

/// Evaluation strategy for the multi-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MultiTestMode {
    /// Use the O(n) incremental evaluation when the step is a multiple of
    /// the window size, the O(n²) naive evaluation otherwise.
    #[default]
    Auto,
    /// Always re-test every suffix from scratch — O(n²). Kept for the
    /// Fig. 9 performance comparison and as a differential-testing oracle.
    Naive,
}

/// The paper's multi-testing scheme: check the whole history, then the
/// most recent `n−k` transactions, then `n−2k`, … — "for an honest player,
/// its behavior during any subsequence of the transaction history should
/// follow binomial distributions" (§3.3).
///
/// The long-term tests catch periodic attackers (whose old bad bursts
/// never age out), the short-term tests catch hibernating attackers (whose
/// recent burst is diluted in the full history).
///
/// # Examples
///
/// ```
/// use hp_core::testing::{BehaviorTest, BehaviorTestConfig, MultiBehaviorTest, TestOutcome};
/// use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
/// use rand::RngExt;
///
/// let test = MultiBehaviorTest::new(BehaviorTestConfig::default())?;
///
/// // Hibernating attacker: a long flawless record, then a cheating spree.
/// let mut rng = hp_stats::seeded_rng(5);
/// let mut h = TransactionHistory::from_outcomes(
///     ServerId::new(1),
///     (0..2000).map(|_| rng.random::<f64>() < 0.95),
/// );
/// for t in 0..30u64 {
///     h.push(Feedback::new(2000 + t, ServerId::new(1), ClientId::new(0), Rating::Negative));
/// }
/// assert_eq!(test.evaluate(&h)?.outcome(), TestOutcome::Suspicious);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct MultiBehaviorTest {
    config: BehaviorTestConfig,
    calibrator: Arc<ThresholdCalibrator>,
    mode: MultiTestMode,
}

impl MultiBehaviorTest {
    /// Creates a multi-test with its own calibrator and [`MultiTestMode::Auto`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: BehaviorTestConfig) -> Result<Self, CoreError> {
        let calibrator = shared_calibrator(&config)?;
        Ok(MultiBehaviorTest {
            config,
            calibrator,
            mode: MultiTestMode::Auto,
        })
    }

    /// Creates a multi-test sharing an existing calibrator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration.
    pub fn with_calibrator(
        config: BehaviorTestConfig,
        calibrator: Arc<ThresholdCalibrator>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(MultiBehaviorTest {
            config,
            calibrator,
            mode: MultiTestMode::Auto,
        })
    }

    /// Selects the evaluation strategy (builder style).
    pub fn with_mode(mut self, mode: MultiTestMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &BehaviorTestConfig {
        &self.config
    }

    /// The shared calibrator.
    pub fn calibrator(&self) -> &Arc<ThresholdCalibrator> {
        &self.calibrator
    }

    /// The active evaluation strategy.
    pub fn mode(&self) -> MultiTestMode {
        self.mode
    }

    /// Runs the configured evaluation, handing every suffix's report to
    /// `sink`; returns the verdict and the per-test confidence.
    fn run(
        &self,
        history: &dyn HistoryView,
        sink: &mut impl SuffixSink,
    ) -> Result<(TestOutcome, f64), CoreError> {
        let prefix = history.outcome_prefix();
        match self.mode {
            MultiTestMode::Auto => run_multi(prefix, &self.config, &self.calibrator, sink),
            MultiTestMode::Naive => run_multi_naive(prefix, &self.config, &self.calibrator, sink),
        }
    }

    /// The full typed report: every suffix's result, O(history / step)
    /// bytes. What experiments and forensics read.
    ///
    /// # Errors
    ///
    /// Statistical errors as [`CoreError::Stats`].
    pub fn evaluate_detailed(&self, history: &dyn HistoryView) -> Result<MultiReport, CoreError> {
        MultiReport::collect(|suffixes| self.run(history, suffixes))
    }

    /// The same evaluation folded as it runs: equal, field for field, to
    /// [`MultiReport::summarize`] of [`Self::evaluate_detailed`], in O(1)
    /// bytes whatever the history length. What a service that re-assesses
    /// on every change of behaviour keeps per server.
    ///
    /// # Errors
    ///
    /// As [`Self::evaluate_detailed`].
    pub fn evaluate_summary(&self, history: &dyn HistoryView) -> Result<MultiSummary, CoreError> {
        let mut fold = MultiFold::default();
        let (outcome, per_test_confidence) = self.run(history, &mut fold)?;
        Ok(fold.finish(outcome, per_test_confidence))
    }
}

impl BehaviorTest for MultiBehaviorTest {
    fn evaluate(&self, history: &dyn HistoryView) -> Result<TestReport, CoreError> {
        Ok(TestReport::Multi(self.evaluate_detailed(history)?))
    }

    fn name(&self) -> &'static str {
        "multi"
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

    fn hibernating_history(prep: usize, attacks: usize, seed: u64) -> TransactionHistory {
        let mut h = honest_history(prep, 0.95, seed);
        for t in 0..attacks as u64 {
            h.push(crate::Feedback::new(
                prep as u64 + t,
                ServerId::new(1),
                crate::ClientId::new(0),
                crate::Rating::Negative,
            ));
        }
        h
    }

    #[test]
    fn auto_uses_optimized_for_aligned_step() {
        let test = MultiBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        assert_eq!(test.mode(), MultiTestMode::Auto);
        let h = honest_history(500, 0.9, 1);
        // Must succeed (and exercise the optimized path; equality with the
        // naive path is asserted below and in the engine tests).
        let report = test.evaluate_detailed(&h).unwrap();
        assert!(!report.suffixes.is_empty());
    }

    #[test]
    fn naive_and_optimized_modes_agree() {
        let config = BehaviorTestConfig::default();
        let cal = shared_calibrator(&config).unwrap();
        let naive = MultiBehaviorTest::with_calibrator(config.clone(), Arc::clone(&cal))
            .unwrap()
            .with_mode(MultiTestMode::Naive);
        let optimized = MultiBehaviorTest::with_calibrator(config, cal).unwrap();
        for seed in 0..4 {
            let h = hibernating_history(600 + seed as usize * 53, 25, seed);
            assert_eq!(
                naive.evaluate_detailed(&h).unwrap(),
                optimized.evaluate_detailed(&h).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn auto_falls_back_to_naive_for_misaligned_step() {
        let config = BehaviorTestConfig::builder().step(7).build().unwrap();
        let test = MultiBehaviorTest::new(config).unwrap();
        let h = honest_history(300, 0.9, 2);
        assert!(test.evaluate_detailed(&h).is_ok());
    }

    #[test]
    fn detects_hibernating_attack_after_long_preparation() {
        // The defining property of Scheme 2 (Figs. 3-4): even a very long
        // clean history cannot hide a recent burst.
        let test = MultiBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let h = hibernating_history(4000, 25, 9);
        let report = test.evaluate_detailed(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Suspicious);
        // The failure should show up in a *short* suffix.
        let failure = report.first_failure().unwrap();
        assert!(
            failure.suffix_len <= 600,
            "burst must be caught by a recent-window test, got suffix {}",
            failure.suffix_len
        );
    }

    #[test]
    fn honest_player_passes_with_bonferroni() {
        let test = MultiBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let trials = 60;
        let mut passes = 0;
        for seed in 100..100 + trials {
            let h = honest_history(800, 0.9, seed);
            if test.evaluate_detailed(&h).unwrap().outcome == TestOutcome::Honest {
                passes += 1;
            }
        }
        let rate = passes as f64 / trials as f64;
        assert!(rate > 0.85, "honest multi-test pass rate {rate}");
    }

    #[test]
    fn suffix_reports_are_longest_first() {
        let test = MultiBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let h = honest_history(350, 0.9, 3);
        let report = test.evaluate_detailed(&h).unwrap();
        let lens: Vec<usize> = report.suffixes.iter().map(|s| s.suffix_len).collect();
        let mut sorted = lens.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(lens, sorted);
        assert_eq!(lens.first().copied(), Some(350));
        assert_eq!(lens.last().copied(), Some(100));
    }

    #[test]
    fn trait_report_variant() {
        let test = MultiBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let h = honest_history(300, 0.9, 4);
        assert!(matches!(test.evaluate(&h).unwrap(), TestReport::Multi(_)));
        assert_eq!(test.name(), "multi");
    }
}
