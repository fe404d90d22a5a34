//! Multi-valued feedback testing — the §3.1 multinomial extension.
//!
//! "In many applications feedback ratings are not binary … we only need to
//! replace binomial distributions in our framework with multinomial
//! distributions for multi-value feedbacks."
//!
//! A window of `m` transactions now yields a *count vector* over `c`
//! rating categories, distributed `Multinomial(m, p̂₁…p̂_c)` for an honest
//! player. Testing the joint distribution directly is impractical (the
//! support has `C(m+c−1, c−1)` points), so this module tests each
//! category's marginal — which is exactly `B(m, p̂_j)` — and combines the
//! verdicts with a Bonferroni correction across categories. A server is
//! suspicious if *any* category's window counts deviate.

use crate::error::CoreError;
use crate::testing::config::{BehaviorTestConfig, WindowAlignment};
use crate::testing::engine::run_range_test;
use crate::testing::report::{TestOutcome, WindowTestReport};
use crate::testing::shared_calibrator;
use hp_stats::{PrefixSums, StatsError, ThresholdCalibrator};
use std::sync::Arc;

/// The result of a multi-valued behavior test.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiValueReport {
    /// Aggregate verdict (suspicious if any category fails).
    pub outcome: TestOutcome,
    /// Per-category marginal reports, indexed by category.
    pub categories: Vec<WindowTestReport>,
    /// Empirical category frequencies p̂₁…p̂_c.
    pub frequencies: Vec<f64>,
}

/// Behavior testing for feedback that takes one of `c ≥ 2` values
/// (e.g. positive / neutral / negative).
///
/// # Examples
///
/// ```
/// use hp_core::testing::{BehaviorTestConfig, MultiValueBehaviorTest, TestOutcome};
/// use rand::RngExt;
///
/// let test = MultiValueBehaviorTest::new(BehaviorTestConfig::default(), 3)?;
///
/// // Honest: 80% positive (0), 15% neutral (1), 5% negative (2), i.i.d.
/// let mut rng = hp_stats::seeded_rng(3);
/// let ratings: Vec<usize> = (0..800)
///     .map(|_| {
///         let u: f64 = rng.random();
///         if u < 0.8 { 0 } else if u < 0.95 { 1 } else { 2 }
///     })
///     .collect();
/// let report = test.evaluate(&ratings)?;
/// assert_ne!(report.outcome, TestOutcome::Suspicious);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct MultiValueBehaviorTest {
    config: BehaviorTestConfig,
    calibrator: Arc<ThresholdCalibrator>,
    arity: usize,
}

impl MultiValueBehaviorTest {
    /// Creates a multi-valued test for ratings in `0..arity`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration
    /// or an arity below 2.
    pub fn new(config: BehaviorTestConfig, arity: usize) -> Result<Self, CoreError> {
        if arity < 2 {
            return Err(CoreError::InvalidConfig {
                reason: format!("multi-valued feedback needs ≥ 2 categories, got {arity}"),
            });
        }
        let calibrator = shared_calibrator(&config)?;
        Ok(MultiValueBehaviorTest {
            config,
            calibrator,
            arity,
        })
    }

    /// Number of rating categories.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Tests a sequence of category-valued ratings.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::OutOfSupport`] (wrapped) if a rating is
    /// `≥ arity`, or propagates statistical failures.
    pub fn evaluate(&self, ratings: &[usize]) -> Result<MultiValueReport, CoreError> {
        if let Some(&bad) = ratings.iter().find(|&&r| r >= self.arity) {
            return Err(CoreError::Stats(StatsError::OutOfSupport {
                value: bad as u64,
                max: self.arity as u64 - 1,
            }));
        }
        // Bonferroni across the category marginals.
        let per_category_confidence = if self.arity <= 1 {
            self.config.confidence()
        } else {
            1.0 - (1.0 - self.config.confidence()) / self.arity as f64
        };

        let n = ratings.len();
        let mut categories = Vec::with_capacity(self.arity);
        let mut frequencies = Vec::with_capacity(self.arity);
        let mut outcome = TestOutcome::Inconclusive;
        for cat in 0..self.arity {
            let prefix = PrefixSums::from_bools(ratings.iter().map(|&r| r == cat));
            frequencies.push(if n == 0 {
                0.0
            } else {
                prefix.total_good() as f64 / n as f64
            });
            let report = run_range_test(
                crate::history::ColumnRef::Prefix(&prefix),
                0,
                n,
                &self.config,
                &self.calibrator,
                per_category_confidence,
                WindowAlignment::Start,
            )?;
            match report.outcome {
                TestOutcome::Suspicious => outcome = TestOutcome::Suspicious,
                TestOutcome::Honest if outcome == TestOutcome::Inconclusive => {
                    outcome = TestOutcome::Honest;
                }
                _ => {}
            }
            categories.push(report);
        }
        Ok(MultiValueReport {
            outcome,
            categories,
            frequencies,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    fn test(arity: usize) -> MultiValueBehaviorTest {
        MultiValueBehaviorTest::new(
            BehaviorTestConfig::builder()
                .calibration_trials(400)
                .build()
                .unwrap(),
            arity,
        )
        .unwrap()
    }

    fn honest_ratings(n: usize, probs: &[f64], seed: u64) -> Vec<usize> {
        let mut rng = hp_stats::seeded_rng(seed);
        (0..n)
            .map(|_| {
                let mut u: f64 = rng.random();
                for (i, &p) in probs.iter().enumerate() {
                    if u < p {
                        return i;
                    }
                    u -= p;
                }
                probs.len() - 1
            })
            .collect()
    }

    #[test]
    fn arity_validation() {
        let config = BehaviorTestConfig::default();
        assert!(MultiValueBehaviorTest::new(config.clone(), 1).is_err());
        assert!(MultiValueBehaviorTest::new(config, 2).is_ok());
    }

    #[test]
    fn rejects_out_of_range_rating() {
        let t = test(3);
        let err = t.evaluate(&[0, 1, 3]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Stats(StatsError::OutOfSupport { value: 3, .. })
        ));
    }

    #[test]
    fn honest_three_valued_feedback_passes() {
        let t = test(3);
        let mut passes = 0;
        for seed in 0..15 {
            let ratings = honest_ratings(800, &[0.8, 0.15, 0.05], seed);
            let report = t.evaluate(&ratings).unwrap();
            assert_eq!(report.categories.len(), 3);
            if report.outcome == TestOutcome::Honest {
                passes += 1;
            }
        }
        assert!(passes >= 12, "honest multi-valued pass rate {passes}/15");
    }

    #[test]
    fn regime_change_in_neutral_band_is_flagged() {
        // Attack that binary testing cannot see: the attacker degrades
        // service from "positive" to "neutral" (never to "negative") for
        // the last stretch. A positive-vs-rest binary view changes, but a
        // subtler shift — neutral-heavy windows — also trips the neutral
        // category's marginal.
        let t = test(3);
        let mut ratings = honest_ratings(600, &[0.9, 0.07, 0.03], 5);
        ratings.extend(honest_ratings(200, &[0.35, 0.62, 0.03], 99));
        let report = t.evaluate(&ratings).unwrap();
        assert_eq!(report.outcome, TestOutcome::Suspicious);
    }

    #[test]
    fn frequencies_are_reported() {
        let t = test(2);
        let ratings = vec![0usize, 0, 1, 0];
        let report = t.evaluate(&ratings).unwrap();
        assert!((report.frequencies[0] - 0.75).abs() < 1e-12);
        assert!((report.frequencies[1] - 0.25).abs() < 1e-12);
        assert_eq!(
            report.outcome,
            TestOutcome::Inconclusive,
            "4 txns is too short"
        );
    }

    #[test]
    fn binary_case_agrees_with_single_test_outcome() {
        use crate::testing::SingleBehaviorTest;
        use crate::{ServerId, TransactionHistory};
        // With arity 2, category-0 marginal is exactly the binary test;
        // verdicts must agree on a clearly-suspicious metronome input.
        let outcomes: Vec<bool> = (0..400).map(|i| i % 10 != 9).collect();
        let ratings: Vec<usize> = outcomes.iter().map(|&g| usize::from(!g)).collect();
        let t = test(2);
        let mv = t.evaluate(&ratings).unwrap();
        let single = SingleBehaviorTest::new(
            BehaviorTestConfig::builder()
                .calibration_trials(400)
                .build()
                .unwrap(),
        )
        .unwrap();
        let h = TransactionHistory::from_outcomes(ServerId::new(1), outcomes);
        let sr = single.evaluate_detailed(&h).unwrap();
        assert_eq!(mv.outcome, TestOutcome::Suspicious);
        assert_eq!(sr.outcome, TestOutcome::Suspicious);
    }
}
