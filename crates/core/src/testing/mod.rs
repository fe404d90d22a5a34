//! Behavior testing — phase 1 of the two-phase assessment.
//!
//! A behavior test decides whether a transaction history is statistically
//! consistent with the *honest player* model: transactions are independent
//! Bernoulli trials, so the good-transaction counts of `m`-sized windows
//! must follow `B(m, p̂)` (§3 of the paper).
//!
//! Three schemes:
//!
//! | Scheme | Type | Catches | Paper |
//! |--------|------|---------|-------|
//! | Single | [`SingleBehaviorTest`] | grossly non-Bernoulli patterns | §3.2, Fig. 2 |
//! | Multi | [`MultiBehaviorTest`] | hibernating + periodic attacks | §3.3 |
//! | Collusion-resilient | [`CollusionResilientTest`] | colluder-boosted reputations | §4 |
//!
//! All three share calibrated thresholds through
//! [`hp_stats::ThresholdCalibrator`]; create one with [`shared_calibrator`]
//! and pass it to the `with_calibrator` constructors when running several
//! schemes side by side.

mod collusion;
mod config;
mod engine;
mod multi;
mod report;
mod single;

pub use collusion::{CollusionResilientTest, CollusionTestDepth};
pub use config::{
    BehaviorTestConfig, BehaviorTestConfigBuilder, Correction, SuffixSchedule, WindowAlignment,
};
pub use multi::{MultiBehaviorTest, MultiTestMode};
pub use report::{
    CollusionReport, MultiReport, MultiSummary, SuffixReport, SupporterBaseStats, TestOutcome,
    TestReport, WindowTestReport,
};
pub use single::SingleBehaviorTest;

use crate::error::CoreError;
use crate::history::HistoryView;
#[cfg(test)]
use crate::history::TransactionHistory;
use hp_stats::ThresholdCalibrator;
use std::sync::Arc;

/// A behavior test: phase 1 of the two-phase trust assessment.
///
/// Implementations are deterministic given their (seeded) calibrator.
pub trait BehaviorTest {
    /// Tests whether `history` is consistent with the honest-player model.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError`] for statistical failures or
    /// configuration misuse; a *suspicious server is not an error* — it is
    /// reported through [`TestReport::outcome`].
    ///
    /// Takes any [`HistoryView`] — the reference row store and the
    /// columnar engine are interchangeable here (and must stay
    /// bit-identical; see `tests/columnar_equivalence.rs`).
    fn evaluate(&self, history: &dyn HistoryView) -> Result<TestReport, CoreError>;

    /// A short stable name for reports and CSV headers.
    fn name(&self) -> &'static str;

    /// The window granularity `m` of the underlying distribution test, if
    /// any. Strategy-aware simulations (the paper's §5.1 attacker knows
    /// the testing algorithm) use this to reason one window ahead.
    fn window_size(&self) -> Option<u32> {
        None
    }
}

impl<T: BehaviorTest + ?Sized> BehaviorTest for &T {
    fn evaluate(&self, history: &dyn HistoryView) -> Result<TestReport, CoreError> {
        (**self).evaluate(history)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn window_size(&self) -> Option<u32> {
        (**self).window_size()
    }
}

impl<T: BehaviorTest + ?Sized> BehaviorTest for Box<T> {
    fn evaluate(&self, history: &dyn HistoryView) -> Result<TestReport, CoreError> {
        (**self).evaluate(history)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn window_size(&self) -> Option<u32> {
        (**self).window_size()
    }
}

/// Builds a threshold calibrator from a test configuration, wrapped for
/// sharing between tests (shared cache = shared work).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the configuration is invalid.
///
/// # Examples
///
/// ```
/// use hp_core::testing::{
///     shared_calibrator, BehaviorTestConfig, MultiBehaviorTest, SingleBehaviorTest,
/// };
/// use std::sync::Arc;
///
/// let config = BehaviorTestConfig::default();
/// let cal = shared_calibrator(&config)?;
/// let single = SingleBehaviorTest::with_calibrator(config.clone(), Arc::clone(&cal))?;
/// let multi = MultiBehaviorTest::with_calibrator(config, cal)?;
/// # let _ = (single, multi);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
pub fn shared_calibrator(
    config: &BehaviorTestConfig,
) -> Result<Arc<ThresholdCalibrator>, CoreError> {
    config.validate()?;
    let calibrator = ThresholdCalibrator::new(config.calibration_config())?;
    // Build the interpolated surface (when configured) for the window
    // size this config tests at, so every consumer of a shared
    // calibrator — online service, offline reference, simulations —
    // serves from the same tier and verdicts stay bit-identical.
    calibrator.ensure_surface_for(config.window_size())?;
    Ok(Arc::new(calibrator))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServerId;

    #[test]
    fn shared_calibrator_validates_config() {
        let bad = BehaviorTestConfig::builder();
        // Builder validates on build, so construct an invalid config via
        // the unvalidated default + a manual check through validate().
        let config = bad.window_size(10).build().unwrap();
        assert!(shared_calibrator(&config).is_ok());
    }

    #[test]
    fn behavior_test_trait_objects_forward() {
        let single = SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap();
        let h = TransactionHistory::from_outcomes(ServerId::new(1), vec![true; 200]);
        let direct = single.evaluate(&h).unwrap();
        let by_ref = single.evaluate(&h).unwrap();
        assert_eq!(direct, by_ref);
        let boxed: Box<dyn BehaviorTest> = Box::new(single);
        assert_eq!(boxed.evaluate(&h).unwrap(), direct);
        assert_eq!(boxed.name(), "single");
    }
}
