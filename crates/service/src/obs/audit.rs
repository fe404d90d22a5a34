//! Verdict audit trail: a flat, printable record of *why* phase 1 decided.
//!
//! Operators auditing a rejection want the one number that decided it:
//! which scheme ran, which suffix bound, the measured L¹ distance, the
//! calibrated threshold, and the margin between them. The
//! [`AssessmentTrace`] is exactly that, *derived* from the report embedded
//! in the [`crate::Assessment`] and never recomputed, so a traced
//! assessment is bit-identical to an untraced one by construction.
//!
//! Which suffix binds is hp-core's rule
//! ([`hp_core::testing::MultiSummary::binding`]), not this module's: the
//! service's assessments carry the summary already, an offline
//! assessment's full report is summarized through the same fold, and the
//! two give equal traces.

use hp_core::testing::{MultiSummary, TestOutcome, TestReport, WindowTestReport};
use hp_core::{Assessment, ServerId};
use hp_stats::ThresholdProvenance;
use std::fmt;
use std::sync::Arc;

/// Which phase-1 scheme produced the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssessScheme {
    /// One goodness-of-fit test over the full history (paper Scheme 1).
    Single,
    /// The same test over every suffix (paper Scheme 2).
    Multi,
    /// Issuer-reordered multi-test plus supporter-base statistics (§4).
    CollusionResilient,
}

impl fmt::Display for AssessScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssessScheme::Single => write!(f, "single"),
            AssessScheme::Multi => write!(f, "multi"),
            AssessScheme::CollusionResilient => write!(f, "collusion-resilient"),
        }
    }
}

/// The service-level verdict, mirroring the [`Assessment`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceVerdict {
    /// Phase 1 passed; a trust value was produced.
    Accepted,
    /// Phase 1 flagged the history; no trust value.
    Rejected,
    /// History too short to test; low-confidence trust opinion attached.
    NeedsReview,
}

impl fmt::Display for TraceVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceVerdict::Accepted => write!(f, "accepted"),
            TraceVerdict::Rejected => write!(f, "rejected"),
            TraceVerdict::NeedsReview => write!(f, "needs-review"),
        }
    }
}

/// A flat audit record of one two-phase assessment.
///
/// All statistical fields come from the *binding* window test — the
/// suffix that decided the verdict: the longest failing suffix for a
/// suspicious multi-test, otherwise the conclusive suffix with the
/// thinnest pass margin (the closest call).
#[derive(Debug, Clone, PartialEq)]
pub struct AssessmentTrace {
    /// The server assessed.
    pub server: ServerId,
    /// Which phase-1 scheme ran.
    pub scheme: AssessScheme,
    /// The service-level verdict.
    pub verdict: TraceVerdict,
    /// The phase-1 statistical outcome.
    pub outcome: TestOutcome,
    /// The phase-2 trust value, when one was produced.
    pub trust: Option<f64>,
    /// Transactions in the longest range tested.
    pub transactions: usize,
    /// Complete windows `k` in the binding range.
    pub windows: usize,
    /// Conclusive suffix tests run (1 for the single scheme).
    pub suffixes_tested: usize,
    /// Length of the binding suffix (`None` for the single scheme, which
    /// always tests the full history).
    pub binding_suffix_len: Option<usize>,
    /// Estimated trustworthiness p̂ over the binding range.
    pub p_hat: Option<f64>,
    /// Measured L¹ distance of the binding test.
    pub distance: Option<f64>,
    /// Calibrated threshold ε the distance was compared against.
    pub threshold: Option<f64>,
    /// Which calibration tier served the binding threshold (surface,
    /// cache, or a fresh Monte-Carlo job). Audit metadata: the threshold
    /// value is identical whichever tier served it.
    pub threshold_provenance: Option<ThresholdProvenance>,
    /// `threshold − distance`: positive = pass, negative = fail, and its
    /// magnitude is how close the call was.
    pub margin: Option<f64>,
    /// Confidence the binding threshold was calibrated at (after any
    /// multiple-testing correction).
    pub confidence: f64,
    /// Whether the answer came from the versioned assessment cache.
    pub from_cache: bool,
}

/// An assessment together with its audit record, as returned by
/// [`crate::ReputationService::assess_traced`]. The `assessment` is the
/// exact value the untraced path would have returned; `trace` is derived
/// from it after the fact.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedAssessment {
    /// The verdict, bit-identical to [`crate::ReputationService::assess`]
    /// — and *shared* with the shard's caches, never a deep clone.
    pub assessment: Arc<Assessment>,
    /// The audit record derived from the verdict's embedded report.
    pub trace: AssessmentTrace,
}

impl AssessmentTrace {
    /// Derives the audit record from a finished assessment.
    pub fn from_assessment(server: ServerId, assessment: &Assessment, from_cache: bool) -> Self {
        let verdict = match assessment {
            Assessment::Accepted { .. } => TraceVerdict::Accepted,
            Assessment::Rejected { .. } => TraceVerdict::Rejected,
            Assessment::NeedsReview { .. } => TraceVerdict::NeedsReview,
        };
        let report = assessment.report();
        let multi = |scheme, summary: MultiSummary| {
            let binding_suffix_len = summary.binding.as_ref().map(|s| s.suffix_len);
            (
                scheme,
                summary.binding.map(|s| s.report),
                binding_suffix_len,
                summary.conclusive_tests,
                summary.longest_transactions,
            )
        };
        let (scheme, binding, binding_suffix_len, suffixes_tested, transactions) = match report {
            TestReport::Single(w) => (
                AssessScheme::Single,
                Some(w.clone()),
                None,
                1,
                w.transactions,
            ),
            TestReport::Multi(m) => multi(AssessScheme::Multi, m.summarize()),
            TestReport::MultiSummary(s) => multi(AssessScheme::Multi, s.clone()),
            TestReport::Collusion(c) => {
                multi(AssessScheme::CollusionResilient, c.reordered.summarize())
            }
        };
        let binding = binding.as_ref();
        AssessmentTrace {
            server,
            scheme,
            verdict,
            outcome: report.outcome(),
            trust: assessment.trust().map(|t| t.value()),
            transactions,
            windows: binding.map_or(0, |w| w.windows),
            suffixes_tested,
            binding_suffix_len,
            p_hat: binding.and_then(|w| w.p_hat),
            distance: binding.and_then(|w| w.distance),
            threshold: binding.and_then(|w| w.threshold),
            threshold_provenance: binding.and_then(|w| w.threshold_provenance),
            margin: binding.and_then(WindowTestReport::margin),
            confidence: binding.map_or(0.0, |w| w.confidence),
            from_cache,
        }
    }
}

fn opt(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"))
}

impl fmt::Display for AssessmentTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "assessment trace: server={} scheme={} verdict={} ({})",
            self.server, self.scheme, self.verdict, self.outcome
        )?;
        writeln!(
            f,
            "  range: {} transactions, {} windows, {} conclusive suffix test(s){}",
            self.transactions,
            self.windows,
            self.suffixes_tested,
            self.binding_suffix_len
                .map_or_else(String::new, |l| format!(", binding suffix len {l}")),
        )?;
        writeln!(
            f,
            "  phase 1: p_hat={} distance(L1)={} threshold={} source={} margin={} confidence={:.4}",
            opt(self.p_hat),
            opt(self.distance),
            opt(self.threshold),
            self.threshold_provenance
                .map_or_else(|| "-".to_string(), |p| p.to_string()),
            opt(self.margin),
            self.confidence,
        )?;
        write!(
            f,
            "  phase 2: trust={}  cache={}",
            opt(self.trust),
            if self.from_cache { "hit" } else { "miss" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::testing::{MultiReport, SuffixReport};
    use hp_core::trust::TrustValue;

    /// The trace of a full-report assessment, which must also be the
    /// trace of its summarized form (what the service caches).
    fn trace_of_both_forms(
        server: ServerId,
        assessment: Assessment,
        from_cache: bool,
    ) -> AssessmentTrace {
        let full = AssessmentTrace::from_assessment(server, &assessment, from_cache);
        let summarized = assessment.summarized();
        assert!(matches!(summarized.report(), TestReport::MultiSummary(_)));
        assert_eq!(
            AssessmentTrace::from_assessment(server, &summarized, from_cache),
            full
        );
        full
    }

    fn window(outcome: TestOutcome, distance: f64, threshold: f64) -> WindowTestReport {
        WindowTestReport {
            outcome,
            transactions: 200,
            windows: 20,
            p_hat: Some(0.9),
            distance: Some(distance),
            threshold: Some(threshold),
            confidence: 0.95,
            threshold_provenance: Some(ThresholdProvenance::Surface),
        }
    }

    #[test]
    fn single_scheme_binds_the_whole_history() {
        let assessment = Assessment::Accepted {
            trust: TrustValue::new(0.9).unwrap(),
            report: TestReport::Single(window(TestOutcome::Honest, 0.3, 0.5)),
        };
        let trace = AssessmentTrace::from_assessment(ServerId::new(7), &assessment, false);
        assert_eq!(trace.scheme, AssessScheme::Single);
        assert_eq!(trace.verdict, TraceVerdict::Accepted);
        assert_eq!(trace.binding_suffix_len, None);
        assert_eq!(trace.suffixes_tested, 1);
        assert_eq!(
            trace.threshold_provenance,
            Some(ThresholdProvenance::Surface)
        );
        assert!((trace.margin.unwrap() - 0.2).abs() < 1e-12);
        assert!((trace.trust.unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn failing_multi_binds_longest_failure() {
        let multi = MultiReport {
            outcome: TestOutcome::Suspicious,
            suffixes: vec![
                SuffixReport {
                    suffix_len: 300,
                    report: window(TestOutcome::Honest, 0.2, 0.5),
                },
                SuffixReport {
                    suffix_len: 200,
                    report: window(TestOutcome::Suspicious, 0.7, 0.5),
                },
                SuffixReport {
                    suffix_len: 100,
                    report: window(TestOutcome::Suspicious, 0.9, 0.5),
                },
            ],
            per_test_confidence: 0.975,
        };
        let assessment = Assessment::Rejected {
            report: TestReport::Multi(multi),
        };
        let trace = trace_of_both_forms(ServerId::new(1), assessment, false);
        assert_eq!(trace.verdict, TraceVerdict::Rejected);
        assert_eq!(trace.binding_suffix_len, Some(200));
        assert!((trace.distance.unwrap() - 0.7).abs() < 1e-12);
        assert!(
            trace.margin.unwrap() < 0.0,
            "failed test has negative margin"
        );
        assert_eq!(trace.trust, None);
        assert_eq!(trace.suffixes_tested, 3);
    }

    #[test]
    fn passing_multi_binds_thinnest_margin() {
        let mut longest = window(TestOutcome::Honest, 0.2, 0.5);
        longest.transactions = 300;
        let multi = MultiReport {
            outcome: TestOutcome::Honest,
            suffixes: vec![
                SuffixReport {
                    suffix_len: 300,
                    report: longest,
                },
                SuffixReport {
                    suffix_len: 200,
                    report: window(TestOutcome::Honest, 0.45, 0.5),
                },
                SuffixReport {
                    suffix_len: 100,
                    report: WindowTestReport::inconclusive(100, 0, 0.975),
                },
            ],
            per_test_confidence: 0.975,
        };
        let assessment = Assessment::Accepted {
            trust: TrustValue::new(0.8).unwrap(),
            report: TestReport::Multi(multi),
        };
        let trace = trace_of_both_forms(ServerId::new(2), assessment, true);
        assert_eq!(trace.binding_suffix_len, Some(200), "closest call binds");
        assert!((trace.margin.unwrap() - 0.05).abs() < 1e-12);
        assert_eq!(trace.suffixes_tested, 2, "inconclusive suffix excluded");
        assert_eq!(trace.transactions, 300, "longest range reported");
        assert!(trace.from_cache);
    }

    #[test]
    fn inconclusive_multi_has_no_statistics() {
        let multi = MultiReport {
            outcome: TestOutcome::Inconclusive,
            suffixes: vec![SuffixReport {
                suffix_len: 30,
                report: WindowTestReport::inconclusive(30, 0, 0.95),
            }],
            per_test_confidence: 0.95,
        };
        let assessment = Assessment::NeedsReview {
            trust: TrustValue::new(0.5).unwrap(),
            report: TestReport::Multi(multi),
        };
        let trace = trace_of_both_forms(ServerId::new(3), assessment, false);
        assert_eq!(trace.verdict, TraceVerdict::NeedsReview);
        assert_eq!(trace.outcome, TestOutcome::Inconclusive);
        assert_eq!(trace.distance, None);
        assert_eq!(trace.margin, None);
        assert_eq!(trace.threshold_provenance, None);
        assert_eq!(trace.suffixes_tested, 0);
        assert_eq!(
            trace.binding_suffix_len,
            Some(30),
            "longest suffix reported"
        );
    }

    #[test]
    fn display_mentions_the_decisive_numbers() {
        let assessment = Assessment::Rejected {
            report: TestReport::Single(window(TestOutcome::Suspicious, 0.8, 0.5)),
        };
        let text =
            AssessmentTrace::from_assessment(ServerId::new(9), &assessment, false).to_string();
        assert!(text.contains("verdict=rejected"), "{text}");
        assert!(text.contains("distance(L1)=0.8000"), "{text}");
        assert!(text.contains("threshold=0.5000"), "{text}");
        assert!(text.contains("source=surface"), "{text}");
        assert!(text.contains("margin=-0.3000"), "{text}");
    }
}
