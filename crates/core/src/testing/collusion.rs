//! Collusion-resilient behavior testing (§4).

use crate::error::CoreError;
use crate::history::{ColumnRef, HistoryView};
use crate::testing::config::BehaviorTestConfig;
use crate::testing::engine::{run_multi, run_range_test};
use crate::testing::report::{
    CollusionReport, MultiReport, SuffixReport, SupporterBaseStats, TestReport,
};
use crate::testing::{shared_calibrator, BehaviorTest, WindowAlignment};
use hp_stats::ThresholdCalibrator;
use std::sync::Arc;

/// Whether the distribution test over the reordered sequence runs once or
/// over every suffix (the §4 closing remark: "we can also perform
/// multi-testing of server behavior").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollusionTestDepth {
    /// One test over the full reordered sequence.
    Single,
    /// Multi-testing over the reordered sequence (default — this is what
    /// keeps long colluder-built preparation phases from paying off in
    /// Figs. 5-6).
    #[default]
    Multi,
}

/// The collusion-resilient behavior test.
///
/// Feedback is grouped by issuer, groups are ordered most-frequent-first
/// (ties by client id), transaction order is kept inside each group, and
/// the ordinary distribution test runs over this *reordered* sequence.
///
/// The intuition (§4): for an honest server, frequent clients and
/// occasional clients experience the same service quality, so the
/// reordered sequence still looks Bernoulli. An attacker whose positive
/// feedback comes from a small colluder clique produces a reordered
/// sequence with a long all-positive head (the colluders) and a mixed tail
/// (the victims) — which no binomial fits.
///
/// # Examples
///
/// ```
/// use hp_core::testing::{BehaviorTest, BehaviorTestConfig, CollusionResilientTest, TestOutcome};
/// use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
///
/// let test = CollusionResilientTest::new(BehaviorTestConfig::default())?;
///
/// // 300 fake positives from 3 colluders, plus 60 real transactions of
/// // which a third went bad.
/// let mut h = TransactionHistory::new();
/// let server = ServerId::new(1);
/// for t in 0..300u64 {
///     h.push(Feedback::new(t, server, ClientId::new(t % 3), Rating::Positive));
/// }
/// for t in 300..360u64 {
///     let rating = if t % 3 == 0 { Rating::Negative } else { Rating::Positive };
///     h.push(Feedback::new(t, server, ClientId::new(100 + t), rating));
/// }
/// assert_eq!(test.evaluate(&h)?.outcome(), TestOutcome::Suspicious);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct CollusionResilientTest {
    config: BehaviorTestConfig,
    calibrator: Arc<ThresholdCalibrator>,
    depth: CollusionTestDepth,
}

impl CollusionResilientTest {
    /// Creates a collusion-resilient test with its own calibrator and
    /// [`CollusionTestDepth::Multi`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: BehaviorTestConfig) -> Result<Self, CoreError> {
        let calibrator = shared_calibrator(&config)?;
        Ok(CollusionResilientTest {
            config,
            calibrator,
            depth: CollusionTestDepth::default(),
        })
    }

    /// Creates a collusion-resilient test sharing an existing calibrator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration.
    pub fn with_calibrator(
        config: BehaviorTestConfig,
        calibrator: Arc<ThresholdCalibrator>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(CollusionResilientTest {
            config,
            calibrator,
            depth: CollusionTestDepth::default(),
        })
    }

    /// Selects single- or multi-testing over the reordered sequence.
    pub fn with_depth(mut self, depth: CollusionTestDepth) -> Self {
        self.depth = depth;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &BehaviorTestConfig {
        &self.config
    }

    /// The test depth.
    pub fn depth(&self) -> CollusionTestDepth {
        self.depth
    }

    /// Supporter-base statistics for `history` (§4's "expanding supporter
    /// base" signal, usable on its own for dashboards/diagnostics); `None`
    /// for a history that keeps no issuers.
    pub fn supporter_base(history: &dyn HistoryView) -> Option<SupporterBaseStats> {
        let n = history.len().max(1) as f64;
        let groups = history.issuer_groups()?;
        // A supporter has issued at least one positive feedback.
        let supporters = groups.iter().filter(|g| g.good > 0).count();
        let top_share = groups.first().map_or(0.0, |g| g.count as f64 / n);
        let top5: usize = groups.iter().take(5).map(|g| g.count).sum();
        Some(SupporterBaseStats {
            distinct_clients: groups.len(),
            supporters,
            top_share,
            top5_share: top5 as f64 / n,
        })
    }

    /// The full typed report.
    ///
    /// # Errors
    ///
    /// [`CoreError::IssuersNotKept`] for a history that keeps no issuers
    /// (the §4 reordering groups by issuer); statistical failures as
    /// [`CoreError::Stats`].
    pub fn evaluate_detailed(
        &self,
        history: &dyn HistoryView,
    ) -> Result<CollusionReport, CoreError> {
        let supporter_base = Self::supporter_base(history).ok_or(CoreError::IssuersNotKept)?;
        // The issuer-frequency permutation is cached per history and only
        // rebuilt after ingest, so re-assessing an unchanged history does
        // not allocate.
        let reordered = history
            .reordered_column()
            .ok_or(CoreError::IssuersNotKept)?;
        let reordered = ColumnRef::Prefix(&reordered);
        let multi = match self.depth {
            CollusionTestDepth::Multi => MultiReport::collect(|suffixes| {
                run_multi(reordered, &self.config, &self.calibrator, suffixes)
            })?,
            CollusionTestDepth::Single => {
                let report = run_range_test(
                    reordered,
                    0,
                    reordered.len(),
                    &self.config,
                    &self.calibrator,
                    self.config.confidence(),
                    WindowAlignment::Start,
                )?;
                let outcome = report.outcome;
                MultiReport {
                    outcome,
                    suffixes: vec![SuffixReport {
                        suffix_len: reordered.len(),
                        report,
                    }],
                    per_test_confidence: self.config.confidence(),
                }
            }
        };
        Ok(CollusionReport {
            outcome: multi.outcome,
            reordered: multi,
            supporter_base,
        })
    }
}

impl BehaviorTest for CollusionResilientTest {
    fn evaluate(&self, history: &dyn HistoryView) -> Result<TestReport, CoreError> {
        Ok(TestReport::Collusion(self.evaluate_detailed(history)?))
    }

    fn name(&self) -> &'static str {
        "collusion-resilient"
    }

    fn window_size(&self) -> Option<u32> {
        Some(self.config.window_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::{Feedback, Rating};
    use crate::history::TransactionHistory;
    use crate::id::{ClientId, ServerId};
    use crate::testing::TestOutcome;
    use rand::RngExt;

    const SERVER: ServerId = ServerId::new(1);

    /// Honest server: p = 0.93, clients drawn from a modest population,
    /// every client treated alike.
    fn honest_with_clients(n: usize, seed: u64) -> TransactionHistory {
        let mut rng = hp_stats::seeded_rng(seed);
        let mut h = TransactionHistory::new();
        for t in 0..n as u64 {
            let client = ClientId::new(rng.random_range(0..40));
            let rating = Rating::from_good(rng.random::<f64>() < 0.93);
            h.push(Feedback::new(t, SERVER, client, rating));
        }
        h
    }

    /// Colluder-fed attacker: `prep` positives from 5 colluders, then real
    /// clients get cheated at rate 0.4 while colluders keep praising.
    fn colluding_history(prep: usize, attack: usize, seed: u64) -> TransactionHistory {
        let mut rng = hp_stats::seeded_rng(seed);
        let mut h = TransactionHistory::new();
        for t in 0..prep as u64 {
            h.push(Feedback::new(
                t,
                SERVER,
                ClientId::new(rng.random_range(0..5)),
                Rating::Positive,
            ));
        }
        for i in 0..attack as u64 {
            let t = prep as u64 + i;
            if rng.random::<f64>() < 0.5 {
                // colluder boost
                h.push(Feedback::new(
                    t,
                    SERVER,
                    ClientId::new(rng.random_range(0..5)),
                    Rating::Positive,
                ));
            } else {
                // real client, often cheated
                let rating = Rating::from_good(rng.random::<f64>() >= 0.4);
                h.push(Feedback::new(
                    t,
                    SERVER,
                    ClientId::new(1000 + rng.random_range(0..200u64)),
                    rating,
                ));
            }
        }
        h
    }

    #[test]
    fn honest_server_passes_reordered_test() {
        let test = CollusionResilientTest::new(BehaviorTestConfig::default()).unwrap();
        let mut passes = 0;
        let trials = 30;
        for seed in 0..trials {
            let h = honest_with_clients(600, seed);
            if test.evaluate_detailed(&h).unwrap().outcome == TestOutcome::Honest {
                passes += 1;
            }
        }
        assert!(
            passes as f64 / trials as f64 > 0.8,
            "honest pass rate {passes}/{trials}"
        );
    }

    #[test]
    fn colluding_attacker_is_flagged() {
        let test = CollusionResilientTest::new(BehaviorTestConfig::default()).unwrap();
        let h = colluding_history(400, 200, 3);
        let report = test.evaluate_detailed(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Suspicious);
    }

    #[test]
    fn collusion_invisible_to_plain_tests_is_caught_by_reordering() {
        // Interleave colluder positives so the *chronological* sequence
        // looks like an honest p≈0.9 stream, while all negatives hit
        // occasional clients. Plain single test passes; reordered fails.
        let mut h = TransactionHistory::new();
        let mut rng = hp_stats::seeded_rng(17);
        for t in 0..800u64 {
            if t % 10 == 9 {
                // one real (cheated) client per 10 transactions, random pos
                let rating = Rating::from_good(rng.random::<f64>() < 0.1);
                h.push(Feedback::new(t, SERVER, ClientId::new(500 + t), rating));
            } else {
                h.push(Feedback::new(
                    t,
                    SERVER,
                    ClientId::new(rng.random_range(0..5)),
                    Rating::Positive,
                ));
            }
        }
        let config = BehaviorTestConfig::default();
        let collusion = CollusionResilientTest::new(config.clone()).unwrap();
        let report = collusion.evaluate_detailed(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Suspicious);
        // Supporter base exposes the concentration too.
        assert!(report.supporter_base.top5_share > 0.85);
    }

    #[test]
    fn supporter_base_statistics() {
        let mut h = TransactionHistory::new();
        // client 1: 3 positives; client 2: 1 negative; client 3: 1 positive
        h.push(Feedback::new(0, SERVER, ClientId::new(1), Rating::Positive));
        h.push(Feedback::new(1, SERVER, ClientId::new(1), Rating::Positive));
        h.push(Feedback::new(2, SERVER, ClientId::new(1), Rating::Positive));
        h.push(Feedback::new(3, SERVER, ClientId::new(2), Rating::Negative));
        h.push(Feedback::new(4, SERVER, ClientId::new(3), Rating::Positive));
        let stats = CollusionResilientTest::supporter_base(&h).unwrap();
        assert_eq!(stats.distinct_clients, 3);
        assert_eq!(stats.supporters, 2);
        assert!((stats.top_share - 0.6).abs() < 1e-12);
        assert!((stats.top5_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depth_single_runs_one_test() {
        let test = CollusionResilientTest::new(BehaviorTestConfig::default())
            .unwrap()
            .with_depth(CollusionTestDepth::Single);
        let h = honest_with_clients(400, 5);
        let report = test.evaluate_detailed(&h).unwrap();
        assert_eq!(report.reordered.suffixes.len(), 1);
        assert_eq!(report.reordered.suffixes[0].suffix_len, 400);
    }

    #[test]
    fn short_history_inconclusive() {
        let test = CollusionResilientTest::new(BehaviorTestConfig::default()).unwrap();
        let h = honest_with_clients(40, 6);
        let report = test.evaluate_detailed(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Inconclusive);
    }

    #[test]
    fn trait_report_variant() {
        let test = CollusionResilientTest::new(BehaviorTestConfig::default()).unwrap();
        let h = honest_with_clients(300, 7);
        assert!(matches!(
            test.evaluate(&h).unwrap(),
            TestReport::Collusion(_)
        ));
        assert_eq!(test.name(), "collusion-resilient");
    }
}
