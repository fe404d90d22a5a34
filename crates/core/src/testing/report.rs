//! Structured results of behavior tests.

use crate::error::CoreError;
use hp_stats::ThresholdProvenance;
use std::fmt;

/// The verdict of a behavior test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestOutcome {
    /// The history is statistically consistent with the honest-player
    /// model; proceed to phase 2 (the trust function).
    Honest,
    /// The history deviates from the model beyond the calibrated
    /// threshold — "Destination peer is suspicious" in the paper's
    /// pseudocode (Fig. 2).
    Suspicious,
    /// The history is too short for a statistically meaningful test.
    /// The paper (§7) treats short-history servers as a separate high-risk
    /// class; policy for them lives in
    /// [`crate::twophase::ShortHistoryPolicy`].
    Inconclusive,
}

impl TestOutcome {
    /// Whether the server clears the screening phase (honest or untestable;
    /// the final word on inconclusive histories is a policy decision).
    pub fn is_suspicious(self) -> bool {
        matches!(self, TestOutcome::Suspicious)
    }
}

impl fmt::Display for TestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestOutcome::Honest => write!(f, "honest"),
            TestOutcome::Suspicious => write!(f, "suspicious"),
            TestOutcome::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// The result of one goodness-of-fit test over one range of transactions.
#[derive(Debug, Clone)]
pub struct WindowTestReport {
    /// The verdict.
    pub outcome: TestOutcome,
    /// Number of transactions in the tested range.
    pub transactions: usize,
    /// Number of complete windows `k` the range yielded.
    pub windows: usize,
    /// Estimated trustworthiness `p̂` over the covered windows
    /// (`None` when inconclusive).
    pub p_hat: Option<f64>,
    /// Measured distribution distance (`None` when inconclusive).
    pub distance: Option<f64>,
    /// Calibrated threshold ε the distance was compared against
    /// (`None` when inconclusive).
    pub threshold: Option<f64>,
    /// Confidence level the threshold was calibrated at (after any
    /// multiple-testing correction).
    pub confidence: f64,
    /// Which calibration tier served the threshold (`None` when
    /// inconclusive — no threshold was looked up). Audit metadata only:
    /// deliberately excluded from equality, since the same verdict is
    /// served cold (Monte Carlo), warm (cache), or interpolated
    /// (surface) depending on process history.
    pub threshold_provenance: Option<ThresholdProvenance>,
}

impl PartialEq for WindowTestReport {
    fn eq(&self, other: &Self) -> bool {
        // `threshold_provenance` intentionally omitted (see field docs).
        self.outcome == other.outcome
            && self.transactions == other.transactions
            && self.windows == other.windows
            && self.p_hat == other.p_hat
            && self.distance == other.distance
            && self.threshold == other.threshold
            && self.confidence == other.confidence
    }
}

impl WindowTestReport {
    /// An inconclusive report for a range too short to test.
    pub fn inconclusive(transactions: usize, windows: usize, confidence: f64) -> Self {
        WindowTestReport {
            outcome: TestOutcome::Inconclusive,
            transactions,
            windows,
            p_hat: None,
            distance: None,
            threshold: None,
            confidence,
            threshold_provenance: None,
        }
    }

    /// Margin between threshold and distance (positive = comfortable
    /// pass), `None` when inconclusive.
    pub fn margin(&self) -> Option<f64> {
        Some(self.threshold? - self.distance?)
    }
}

/// The result of one suffix test inside a multi-test.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffixReport {
    /// Length of the suffix tested (most recent `suffix_len` transactions).
    pub suffix_len: usize,
    /// The goodness-of-fit result for this suffix.
    pub report: WindowTestReport,
}

/// The result of a multi-test (paper Scheme 2): the same test over every
/// suffix, stepping back `k` transactions at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiReport {
    /// Aggregate verdict: suspicious if *any* suffix fails.
    pub outcome: TestOutcome,
    /// Per-suffix results, longest suffix first.
    pub suffixes: Vec<SuffixReport>,
    /// Per-test confidence after correction.
    pub per_test_confidence: f64,
}

impl MultiReport {
    /// The longest suffix that failed, if any.
    pub fn first_failure(&self) -> Option<&SuffixReport> {
        self.suffixes
            .iter()
            .find(|s| s.report.outcome == TestOutcome::Suspicious)
    }

    /// Number of suffix tests actually run (excluding inconclusives).
    pub fn conclusive_tests(&self) -> usize {
        self.suffixes
            .iter()
            .filter(|s| s.report.outcome != TestOutcome::Inconclusive)
            .count()
    }

    /// What [`crate::testing::MultiBehaviorTest::evaluate_summary`] returns
    /// for the history this report was computed from: the same fold, fed
    /// the recorded suffixes instead of the running test.
    pub fn summarize(&self) -> MultiSummary {
        let mut fold = MultiFold::default();
        for suffix in &self.suffixes {
            fold.observe(suffix);
        }
        fold.finish(self.outcome, self.per_test_confidence)
    }

    /// Runs a multi-test into a `Vec`: the full report.
    pub(crate) fn collect(
        run: impl FnOnce(&mut Vec<SuffixReport>) -> Result<(TestOutcome, f64), CoreError>,
    ) -> Result<MultiReport, CoreError> {
        let mut suffixes = Vec::new();
        let (outcome, per_test_confidence) = run(&mut suffixes)?;
        Ok(MultiReport {
            outcome,
            suffixes,
            per_test_confidence,
        })
    }
}

/// A multi-test's result in O(1) bytes, whatever the history length: the
/// verdict, the counts, and the one suffix that explains the verdict.
/// What a service caches per server; [`MultiReport`] is the full record
/// for experiments and forensics.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSummary {
    /// Aggregate verdict: suspicious if *any* suffix fails.
    pub outcome: TestOutcome,
    /// Per-test confidence after correction.
    pub per_test_confidence: f64,
    /// Transactions in the longest suffix the schedule visited (0 when it
    /// visited none).
    pub longest_transactions: usize,
    /// Number of suffix tests actually run (excluding inconclusives).
    pub conclusive_tests: usize,
    /// The *binding* suffix — the one that decided the verdict: the
    /// longest failing suffix if any failed; else the conclusive suffix
    /// with the thinnest pass margin (the closest call; of equal margins
    /// the longer suffix); else the longest suffix, itself inconclusive.
    /// `None` when the schedule visited no suffix.
    pub binding: Option<SuffixReport>,
}

/// Where a multi-test's suffix reports go, longest suffix first.
pub(crate) trait SuffixSink {
    /// Told once, before the first [`Self::push`], how many are coming.
    fn reserve(&mut self, _suffixes: usize) {}

    fn push(&mut self, suffix: SuffixReport);
}

impl SuffixSink for Vec<SuffixReport> {
    fn reserve(&mut self, suffixes: usize) {
        Vec::reserve(self, suffixes);
    }

    fn push(&mut self, suffix: SuffixReport) {
        Vec::push(self, suffix);
    }
}

/// The sink behind [`MultiSummary`]: keeps at most three suffix reports
/// however many it is shown.
#[derive(Debug, Default)]
pub(crate) struct MultiFold {
    longest: Option<SuffixReport>,
    first_failure: Option<SuffixReport>,
    /// The conclusive suffix with the smallest margin so far; a later one
    /// replaces it only when strictly thinner.
    thinnest: Option<SuffixReport>,
    conclusive_tests: usize,
}

impl SuffixSink for MultiFold {
    fn push(&mut self, suffix: SuffixReport) {
        self.observe(&suffix);
    }
}

impl MultiFold {
    /// Takes one suffix into account, copying it only if it is kept.
    fn observe(&mut self, suffix: &SuffixReport) {
        if self.longest.is_none() {
            self.longest = Some(suffix.clone());
        }
        if suffix.report.outcome == TestOutcome::Inconclusive {
            return;
        }
        self.conclusive_tests += 1;
        if suffix.report.outcome == TestOutcome::Suspicious && self.first_failure.is_none() {
            self.first_failure = Some(suffix.clone());
        }
        let margin = |s: &SuffixReport| s.report.margin().unwrap_or(f64::INFINITY);
        let thinner = self
            .thinnest
            .as_ref()
            .is_none_or(|held| margin(held) > margin(suffix));
        if thinner {
            self.thinnest = Some(suffix.clone());
        }
    }

    /// The summary of everything pushed, under the verdict the test
    /// reached over the same suffixes.
    pub(crate) fn finish(self, outcome: TestOutcome, per_test_confidence: f64) -> MultiSummary {
        MultiSummary {
            outcome,
            per_test_confidence,
            longest_transactions: self.longest.as_ref().map_or(0, |s| s.report.transactions),
            conclusive_tests: self.conclusive_tests,
            binding: self.first_failure.or(self.thinnest).or(self.longest),
        }
    }
}

/// Supporter-base statistics for collusion analysis (§4).
///
/// "If an honest player consistently provides good services … the set of
/// clients who leave good feedbacks will expand as time goes by"; a
/// colluder-fed attacker's supporter base is small and concentrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupporterBaseStats {
    /// Distinct feedback issuers.
    pub distinct_clients: usize,
    /// Distinct issuers with at least one positive feedback — the
    /// *supporter base* proper.
    pub supporters: usize,
    /// Share of all feedback contributed by the single most frequent
    /// issuer.
    pub top_share: f64,
    /// Share of all feedback contributed by the five most frequent
    /// issuers.
    pub top5_share: f64,
}

/// The result of the collusion-resilient test (§4).
#[derive(Debug, Clone, PartialEq)]
pub struct CollusionReport {
    /// Aggregate verdict.
    pub outcome: TestOutcome,
    /// The distribution test over the issuer-reordered sequence.
    pub reordered: MultiReport,
    /// Supporter-base statistics of the (un-reordered) history.
    pub supporter_base: SupporterBaseStats,
}

/// Any behavior test's report.
#[derive(Debug, Clone, PartialEq)]
pub enum TestReport {
    /// Result of a [`crate::testing::SingleBehaviorTest`].
    Single(WindowTestReport),
    /// Result of a [`crate::testing::MultiBehaviorTest`].
    Multi(MultiReport),
    /// Result of a [`crate::testing::MultiBehaviorTest`] that kept no
    /// per-suffix detail
    /// ([`crate::testing::MultiBehaviorTest::evaluate_summary`]).
    MultiSummary(MultiSummary),
    /// Result of a [`crate::testing::CollusionResilientTest`].
    Collusion(CollusionReport),
}

impl TestReport {
    /// The aggregate verdict.
    pub fn outcome(&self) -> TestOutcome {
        match self {
            TestReport::Single(r) => r.outcome,
            TestReport::Multi(r) => r.outcome,
            TestReport::MultiSummary(r) => r.outcome,
            TestReport::Collusion(r) => r.outcome,
        }
    }

    /// This report with a full multi-test report replaced by its
    /// [`MultiReport::summarize`]; every other variant unchanged.
    pub fn summarized(self) -> TestReport {
        match self {
            TestReport::Multi(full) => TestReport::MultiSummary(full.summarize()),
            other => other,
        }
    }

    /// Whether the verdict is [`TestOutcome::Suspicious`].
    pub fn is_suspicious(&self) -> bool {
        self.outcome().is_suspicious()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_report(len: usize) -> WindowTestReport {
        WindowTestReport {
            outcome: TestOutcome::Honest,
            transactions: len,
            windows: len / 10,
            p_hat: Some(0.9),
            distance: Some(0.3),
            threshold: Some(0.5),
            confidence: 0.95,
            threshold_provenance: Some(ThresholdProvenance::MonteCarlo),
        }
    }

    #[test]
    fn provenance_is_audit_metadata_not_identity() {
        let cold = pass_report(100);
        let mut warm = pass_report(100);
        warm.threshold_provenance = Some(ThresholdProvenance::Cache);
        assert_eq!(cold, warm, "serving tier must not distinguish reports");
        let mut different = pass_report(100);
        different.threshold = Some(0.6);
        assert_ne!(cold, different);
    }

    #[test]
    fn outcome_display_and_predicates() {
        assert_eq!(TestOutcome::Honest.to_string(), "honest");
        assert_eq!(TestOutcome::Suspicious.to_string(), "suspicious");
        assert_eq!(TestOutcome::Inconclusive.to_string(), "inconclusive");
        assert!(TestOutcome::Suspicious.is_suspicious());
        assert!(!TestOutcome::Honest.is_suspicious());
        assert!(!TestOutcome::Inconclusive.is_suspicious());
    }

    #[test]
    fn margin_computation() {
        let r = pass_report(100);
        assert!((r.margin().unwrap() - 0.2).abs() < 1e-12);
        let inc = WindowTestReport::inconclusive(5, 0, 0.95);
        assert_eq!(inc.margin(), None);
        assert_eq!(inc.outcome, TestOutcome::Inconclusive);
    }

    #[test]
    fn multi_report_first_failure() {
        let mut fail = pass_report(90);
        fail.outcome = TestOutcome::Suspicious;
        let report = MultiReport {
            outcome: TestOutcome::Suspicious,
            suffixes: vec![
                SuffixReport {
                    suffix_len: 100,
                    report: pass_report(100),
                },
                SuffixReport {
                    suffix_len: 90,
                    report: fail,
                },
            ],
            per_test_confidence: 0.975,
        };
        assert_eq!(report.first_failure().unwrap().suffix_len, 90);
        assert_eq!(report.conclusive_tests(), 2);
    }

    fn suffix(len: usize, outcome: TestOutcome, distance: f64, threshold: f64) -> SuffixReport {
        SuffixReport {
            suffix_len: len,
            report: WindowTestReport {
                outcome,
                distance: Some(distance),
                threshold: Some(threshold),
                ..pass_report(len)
            },
        }
    }

    fn summary_of(outcome: TestOutcome, suffixes: Vec<SuffixReport>) -> MultiSummary {
        MultiReport {
            outcome,
            suffixes,
            per_test_confidence: 0.975,
        }
        .summarize()
    }

    #[test]
    fn of_equal_margins_the_longer_suffix_binds() {
        // 0.5 − 0.25 and 0.75 − 0.5 are both exactly 0.25.
        let summary = summary_of(
            TestOutcome::Honest,
            vec![
                suffix(300, TestOutcome::Honest, 0.1, 0.5),
                suffix(200, TestOutcome::Honest, 0.25, 0.5),
                suffix(100, TestOutcome::Honest, 0.5, 0.75),
            ],
        );
        assert_eq!(summary.binding.unwrap().suffix_len, 200);
        assert_eq!(summary.conclusive_tests, 3);
        assert_eq!(summary.longest_transactions, 300);
    }

    #[test]
    fn a_failure_binds_over_a_thinner_and_longer_pass() {
        let summary = summary_of(
            TestOutcome::Suspicious,
            vec![
                suffix(300, TestOutcome::Honest, 0.499, 0.5), // margin 0.001
                suffix(200, TestOutcome::Suspicious, 0.9, 0.5),
                suffix(100, TestOutcome::Suspicious, 0.6, 0.5), // closer, but shorter
            ],
        );
        assert_eq!(
            summary.binding.unwrap().suffix_len,
            200,
            "the longest failure"
        );
        assert_eq!(summary.outcome, TestOutcome::Suspicious);
    }

    #[test]
    fn when_nothing_could_be_tested_the_longest_suffix_binds() {
        let inconclusive = |len| SuffixReport {
            suffix_len: len,
            report: WindowTestReport::inconclusive(len, len / 10, 0.975),
        };
        let summary = summary_of(
            TestOutcome::Inconclusive,
            vec![inconclusive(40), inconclusive(30)],
        );
        assert_eq!(summary.binding, Some(inconclusive(40)));
        assert_eq!(summary.conclusive_tests, 0);
        assert_eq!(summary.longest_transactions, 40);
        // A conclusive suffix binds over a longer inconclusive one.
        let summary = summary_of(
            TestOutcome::Honest,
            vec![inconclusive(40), suffix(30, TestOutcome::Honest, 0.3, 0.5)],
        );
        assert_eq!(summary.binding.unwrap().suffix_len, 30);
        assert_eq!(summary.longest_transactions, 40);
    }

    #[test]
    fn an_empty_schedule_summarizes_to_nothing() {
        let summary = summary_of(TestOutcome::Inconclusive, Vec::new());
        assert_eq!(
            summary,
            MultiSummary {
                outcome: TestOutcome::Inconclusive,
                per_test_confidence: 0.975,
                longest_transactions: 0,
                conclusive_tests: 0,
                binding: None,
            }
        );
    }

    #[test]
    fn summarizing_a_report_changes_no_other_variant() {
        let single = TestReport::Single(pass_report(100));
        assert_eq!(single.clone().summarized(), single);
        let multi = MultiReport {
            outcome: TestOutcome::Honest,
            suffixes: vec![suffix(100, TestOutcome::Honest, 0.3, 0.5)],
            per_test_confidence: 0.95,
        };
        let summarized = TestReport::Multi(multi.clone()).summarized();
        assert_eq!(summarized, TestReport::MultiSummary(multi.summarize()));
        assert_eq!(summarized.outcome(), TestOutcome::Honest);
    }

    #[test]
    fn test_report_outcome_dispatch() {
        let single = TestReport::Single(pass_report(100));
        assert_eq!(single.outcome(), TestOutcome::Honest);
        assert!(!single.is_suspicious());
    }
}
