//! Property test: the multi-test folded as it runs is the summary of the
//! full report.
//!
//! A service keeps [`MultiBehaviorTest::evaluate_summary`] per server — a
//! few hundred bytes — where the offline assessor returns every suffix's
//! result. The service-level equivalence suites therefore compare the
//! online verdict with the *summarized* offline one; what carries their
//! reach down to every suffix is this file: on the same history, under
//! every schedule, correction, horizon and storage layout, the summary
//! sink sees exactly the suffix reports `evaluate_detailed` collects, and
//! keeps of them what [`MultiReport::summarize`] keeps.

use hp_core::testing::{
    BehaviorTestConfig, Correction, MultiBehaviorTest, MultiSummary, SuffixReport, SuffixSchedule,
};
use hp_core::{
    ClientId, Feedback, HistoryView, Rating, ServerId, TieredHistory, TransactionHistory,
};
use proptest::prelude::*;
use rand::RngExt;

/// Outcome sequences shaped like the paper's three populations, built
/// here (hp-core does not depend on the simulator).
fn outcomes(kind: u8, len: usize, p: f64, seed: u64) -> Vec<bool> {
    let mut rng = hp_stats::seeded_rng(seed);
    let mut honest =
        |n: usize, p: f64| -> Vec<bool> { (0..n).map(|_| rng.random::<f64>() < p).collect() };
    match kind % 3 {
        // Honest: independent trials at quality p.
        0 => honest(len, p),
        // Hibernating: a clean record, then a cheating spree.
        1 => {
            let spree = len / 5;
            let mut all = honest(len - spree, 0.95);
            all.extend(std::iter::repeat_n(false, spree));
            all
        }
        // Periodic: every window of 20 opens with its two attacks.
        _ => (0..len).map(|i| i % 20 >= 2).collect(),
    }
}

fn feedbacks(outcomes: &[bool]) -> Vec<Feedback> {
    outcomes
        .iter()
        .zip(0u64..)
        .map(|(&good, t)| {
            Feedback::new(
                t,
                ServerId::new(3),
                ClientId::new(t % 11),
                Rating::from_good(good),
            )
        })
        .collect()
}

/// Every float by its bits, so that a `-0.0`, a NaN or a last-place
/// difference cannot hide behind `==`.
fn suffix_bits(s: &SuffixReport) -> (usize, String, usize, usize, [Option<u64>; 3], u64) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let r = &s.report;
    (
        s.suffix_len,
        r.outcome.to_string(),
        r.transactions,
        r.windows,
        [bits(r.p_hat), bits(r.distance), bits(r.threshold)],
        r.confidence.to_bits(),
    )
}

fn assert_same_summary(folded: &MultiSummary, summarized: &MultiSummary, context: &str) {
    assert_eq!(folded.outcome, summarized.outcome, "{context}");
    assert_eq!(
        folded.per_test_confidence.to_bits(),
        summarized.per_test_confidence.to_bits(),
        "{context}"
    );
    assert_eq!(
        folded.longest_transactions, summarized.longest_transactions,
        "{context}"
    );
    assert_eq!(
        folded.conclusive_tests, summarized.conclusive_tests,
        "{context}"
    );
    assert_eq!(
        folded.binding.as_ref().map(suffix_bits),
        summarized.binding.as_ref().map(suffix_bits),
        "{context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_fold_is_the_summary_of_the_full_report(
        kind in any::<u8>(),
        len in 0usize..1500,
        p in 0.6f64..0.99,
        seed in any::<u64>(),
        geometric in any::<bool>(),
        bonferroni in any::<bool>(),
        horizon in 100usize..=400,
        capped in any::<bool>(),
        misaligned in any::<bool>(),
    ) {
        let max_suffix = capped.then_some(horizon);
        let config = BehaviorTestConfig::builder()
            .calibration_trials(150)
            .schedule(if geometric { SuffixSchedule::Geometric } else { SuffixSchedule::Arithmetic })
            .correction(if bonferroni { Correction::Bonferroni } else { Correction::None })
            .max_suffix(max_suffix)
            // A step the window size does not divide takes the per-suffix
            // evaluation instead of the fused sweep.
            .step(if misaligned { 25 } else { 10 })
            .build()
            .unwrap();
        let test = MultiBehaviorTest::new(config).unwrap();

        let stream = feedbacks(&outcomes(kind, len, p, seed));
        let rows: TransactionHistory = stream.iter().copied().collect();
        let columnar: TieredHistory = stream.iter().copied().collect();
        let mut tiered = columnar.clone();
        if let Some(horizon) = max_suffix {
            // Folded past the horizon, as a service keeps it.
            tiered.compact(horizon);
        }
        let views: [(&str, &dyn HistoryView); 3] =
            [("rows", &rows), ("columnar", &columnar), ("tiered", &tiered)];

        let mut summaries = Vec::new();
        for (layout, view) in views {
            let context = format!(
                "{layout} kind={} len={len} geometric={geometric} bonferroni={bonferroni} \
                 max_suffix={max_suffix:?} misaligned={misaligned}",
                kind % 3
            );
            let full = test.evaluate_detailed(view).unwrap();
            let folded = test.evaluate_summary(view).unwrap();
            assert_same_summary(&folded, &full.summarize(), &context);
            // What the summary claims about the full report, directly.
            prop_assert_eq!(folded.outcome, full.outcome);
            prop_assert_eq!(folded.conclusive_tests, full.conclusive_tests());
            prop_assert_eq!(
                folded.longest_transactions,
                full.suffixes.first().map_or(0, |s| s.report.transactions)
            );
            prop_assert_eq!(folded.binding.is_some(), !full.suffixes.is_empty());
            if let Some(failure) = full.first_failure() {
                prop_assert_eq!(folded.binding.as_ref(), Some(failure));
            }
            summaries.push(folded);
        }
        // And the layouts agree with each other.
        assert_same_summary(&summaries[1], &summaries[0], "columnar vs rows");
        assert_same_summary(&summaries[2], &summaries[0], "tiered vs rows");
    }
}
