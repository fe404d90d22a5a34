//! Categorized behavior testing — the §4 closing extension.
//!
//! "A server may not always provide uniform services to all the users,
//! even if they are honest. For example, an online movie server in the US
//! may provide good services to customers in North America, but not to
//! those in Africa … we may extend our scheme and apply statistical
//! modeling and testing to transactions in different categories."
//!
//! [`CategorizedTest`] partitions a history by a caller-supplied
//! classifier (region, transaction type, time-of-day, …) and runs a
//! behavior test per category. Clients interested in one category query
//! that category's verdict; the aggregate flags a server whose behavior is
//! inconsistent *within* any category — while tolerating quality
//! differences *between* categories that would raise false alerts in a
//! pooled test.

use crate::error::CoreError;
use crate::feedback::Feedback;
use crate::history::TransactionHistory;
use crate::testing::report::{TestOutcome, TestReport};
use crate::testing::BehaviorTest;
use std::collections::BTreeMap;

/// A category label (small, ordered, e.g. a region or service-type index).
pub type Category = u32;

/// The result of a categorized behavior test.
#[derive(Debug, Clone, PartialEq)]
pub struct CategorizedReport {
    /// Suspicious if any category's test is suspicious.
    pub outcome: TestOutcome,
    /// Per-category verdicts, keyed by category label.
    pub per_category: BTreeMap<Category, TestReport>,
}

impl CategorizedReport {
    /// The verdict for one category, if that category had transactions.
    pub fn category(&self, category: Category) -> Option<&TestReport> {
        self.per_category.get(&category)
    }
}

/// Runs an inner behavior test separately on each transaction category.
///
/// # Examples
///
/// ```
/// use hp_core::testing::{
///     BehaviorTestConfig, CategorizedTest, SingleBehaviorTest, TestOutcome,
/// };
/// use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
/// use rand::RngExt;
///
/// // Region 0 gets p = 0.97 service, region 1 gets p = 0.55 — honestly.
/// let mut rng = hp_stats::seeded_rng(9);
/// let mut h = TransactionHistory::new();
/// for t in 0..1200u64 {
///     let region = (t % 2) as u64;
///     let p = if region == 0 { 0.97 } else { 0.55 };
///     h.push(Feedback::new(
///         t,
///         ServerId::new(1),
///         ClientId::new(region * 100_000 + t),
///         Rating::from_good(rng.random::<f64>() < p),
///     ));
/// }
///
/// let inner = SingleBehaviorTest::new(BehaviorTestConfig::default())?;
/// let test = CategorizedTest::new(inner, |fb| (fb.client.value() / 100_000) as u32);
/// let report = test.evaluate(&h)?;
/// // Both regions are internally consistent: honest per category …
/// assert_eq!(report.outcome, TestOutcome::Honest);
/// // … even though the pooled mixture would look non-binomial.
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct CategorizedTest<B, F> {
    inner: B,
    classify: F,
}

impl<B, F> CategorizedTest<B, F>
where
    B: BehaviorTest,
    F: Fn(&Feedback) -> Category,
{
    /// Creates a categorized test from an inner behavior test and a
    /// feedback classifier.
    pub fn new(inner: B, classify: F) -> Self {
        CategorizedTest { inner, classify }
    }

    /// The inner behavior test.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Runs the inner test on every category's sub-history.
    ///
    /// # Errors
    ///
    /// Propagates inner-test failures.
    pub fn evaluate(&self, history: &TransactionHistory) -> Result<CategorizedReport, CoreError> {
        let mut partitions: BTreeMap<Category, TransactionHistory> = BTreeMap::new();
        for fb in history.iter() {
            partitions.entry((self.classify)(fb)).or_default().push(*fb);
        }
        let mut per_category = BTreeMap::new();
        let mut outcome = TestOutcome::Inconclusive;
        for (category, sub) in partitions {
            let report = self.inner.evaluate(&sub)?;
            match report.outcome() {
                TestOutcome::Suspicious => outcome = TestOutcome::Suspicious,
                TestOutcome::Honest if outcome == TestOutcome::Inconclusive => {
                    outcome = TestOutcome::Honest;
                }
                _ => {}
            }
            per_category.insert(category, report);
        }
        Ok(CategorizedReport {
            outcome,
            per_category,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ClientId, ServerId};
    use crate::testing::{BehaviorTestConfig, SingleBehaviorTest};
    use crate::Rating;
    use rand::RngExt;

    fn single() -> SingleBehaviorTest {
        SingleBehaviorTest::new(
            BehaviorTestConfig::builder()
                .calibration_trials(400)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    /// Region encoded in the client id's hundred-thousands digit.
    fn region_of(fb: &Feedback) -> Category {
        (fb.client.value() / 100_000) as u32
    }

    fn regional_history(n: usize, p_by_region: &[f64], seed: u64) -> TransactionHistory {
        let mut rng = hp_stats::seeded_rng(seed);
        let mut h = TransactionHistory::new();
        for t in 0..n as u64 {
            let region = rng.random_range(0..p_by_region.len() as u64);
            let p = p_by_region[region as usize];
            h.push(Feedback::new(
                t,
                ServerId::new(1),
                ClientId::new(region * 100_000 + t),
                Rating::from_good(rng.random::<f64>() < p),
            ));
        }
        h
    }

    #[test]
    fn per_region_honesty_passes_despite_quality_gap() {
        let test = CategorizedTest::new(single(), region_of);
        let h = regional_history(1600, &[0.97, 0.55], 1);
        let report = test.evaluate(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Honest, "{report:?}");
        assert_eq!(report.per_category.len(), 2);
        // Each region's own verdict is available to interested clients.
        assert!(report.category(0).is_some());
        assert!(report.category(1).is_some());
        assert!(report.category(9).is_none());
    }

    #[test]
    fn attack_inside_one_category_is_flagged() {
        let test = CategorizedTest::new(single(), region_of);
        // Region 0 honest; region 1 runs a metronome pattern.
        let mut rng = hp_stats::seeded_rng(2);
        let mut h = TransactionHistory::new();
        let mut r1_count = 0u64;
        for t in 0..1600u64 {
            let region = t % 2;
            let good = if region == 0 {
                rng.random::<f64>() < 0.95
            } else {
                r1_count += 1;
                !r1_count.is_multiple_of(10)
            };
            h.push(Feedback::new(
                t,
                ServerId::new(1),
                ClientId::new(region * 100_000 + t),
                Rating::from_good(good),
            ));
        }
        let report = test.evaluate(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Suspicious);
        assert_eq!(
            report.category(1).unwrap().outcome(),
            TestOutcome::Suspicious
        );
        assert_ne!(
            report.category(0).unwrap().outcome(),
            TestOutcome::Suspicious
        );
    }

    #[test]
    fn empty_history_is_inconclusive() {
        let test = CategorizedTest::new(single(), region_of);
        let report = test.evaluate(&TransactionHistory::new()).unwrap();
        assert_eq!(report.outcome, TestOutcome::Inconclusive);
        assert!(report.per_category.is_empty());
    }

    #[test]
    fn all_short_categories_are_inconclusive() {
        let test = CategorizedTest::new(single(), region_of);
        let h = regional_history(60, &[0.9, 0.9, 0.9], 3);
        let report = test.evaluate(&h).unwrap();
        assert_eq!(report.outcome, TestOutcome::Inconclusive);
    }
}
