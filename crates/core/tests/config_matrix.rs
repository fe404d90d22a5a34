//! Configuration-matrix integration: every scheme must behave sanely
//! (no panics, coherent verdicts) across the whole configuration grid —
//! window sizes, alignments, distances, corrections, schedules.

use hp_core::testing::{
    BehaviorTestConfig, CollusionResilientTest, Correction, MultiBehaviorTest, SingleBehaviorTest,
    SuffixSchedule, TestOutcome, WindowAlignment,
};
use hp_core::{ServerId, TransactionHistory};
use hp_stats::DistanceKind;
use rand::RngExt;

fn honest(n: usize, seed: u64) -> TransactionHistory {
    let mut rng = hp_stats::seeded_rng(seed);
    TransactionHistory::from_outcomes(ServerId::new(1), (0..n).map(|_| rng.random::<f64>() < 0.9))
}

fn metronome(n: usize) -> TransactionHistory {
    TransactionHistory::from_outcomes(ServerId::new(1), (0..n).map(|i| i % 10 != 9))
}

#[test]
fn single_test_over_the_config_grid() {
    for window in [5u32, 10, 20] {
        for distance in [DistanceKind::L1, DistanceKind::L2, DistanceKind::ChiSquare] {
            for alignment in [WindowAlignment::Start, WindowAlignment::End] {
                let config = BehaviorTestConfig::builder()
                    .window_size(window)
                    .distance(distance)
                    .alignment(alignment)
                    .step(window as usize)
                    .min_suffix((window as usize) * 5)
                    .calibration_trials(200)
                    .build()
                    .unwrap();
                let test = SingleBehaviorTest::new(config).unwrap();
                let h = honest(605, u64::from(window));
                let report = test.evaluate_detailed(&h).unwrap();
                assert_ne!(
                    report.outcome,
                    TestOutcome::Inconclusive,
                    "m={window} {distance:?} {alignment:?}: 605 txns must be testable"
                );
                assert!(report.p_hat.unwrap() > 0.8);
            }
        }
    }
}

#[test]
fn multi_test_over_the_config_grid() {
    for step in [10usize, 20, 50] {
        for correction in [Correction::None, Correction::Bonferroni] {
            for schedule in [SuffixSchedule::Arithmetic, SuffixSchedule::Geometric] {
                let config = BehaviorTestConfig::builder()
                    .step(step)
                    .correction(correction)
                    .schedule(schedule)
                    .calibration_trials(200)
                    .build()
                    .unwrap();
                let test = MultiBehaviorTest::new(config).unwrap();
                // Metronome attacker must be flagged under every variant.
                let report = test.evaluate_detailed(&metronome(800)).unwrap();
                assert_eq!(
                    report.outcome,
                    TestOutcome::Suspicious,
                    "step={step} {correction:?} {schedule:?}"
                );
                // And the report must be internally consistent.
                for suffix in &report.suffixes {
                    assert!(suffix.suffix_len <= 800);
                    if let (Some(d), Some(t)) = (suffix.report.distance, suffix.report.threshold) {
                        let should_fail = d > t;
                        assert_eq!(
                            suffix.report.outcome == TestOutcome::Suspicious,
                            should_fail,
                            "verdict must follow the comparison"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn collusion_test_over_depths_and_windows() {
    use hp_core::testing::CollusionTestDepth;
    use hp_core::{ClientId, Feedback, Rating};
    // Clique-fed history.
    let mut h = TransactionHistory::new();
    let mut rng = hp_stats::seeded_rng(2);
    for t in 0..700u64 {
        let fb = if rng.random::<f64>() < 0.85 {
            Feedback::new(
                t,
                ServerId::new(1),
                ClientId::new(rng.random_range(0..4)),
                Rating::Positive,
            )
        } else {
            Feedback::new(
                t,
                ServerId::new(1),
                ClientId::new(1000 + t),
                Rating::from_good(rng.random::<f64>() < 0.2),
            )
        };
        h.push(fb);
    }
    for depth in [CollusionTestDepth::Single, CollusionTestDepth::Multi] {
        for window in [10u32, 20] {
            let config = BehaviorTestConfig::builder()
                .window_size(window)
                .step(window as usize)
                .min_suffix(window as usize * 5)
                .calibration_trials(200)
                .build()
                .unwrap();
            let test = CollusionResilientTest::new(config)
                .unwrap()
                .with_depth(depth);
            let report = test.evaluate_detailed(&h).unwrap();
            assert_eq!(
                report.outcome,
                TestOutcome::Suspicious,
                "depth={depth:?} m={window}"
            );
            assert!(report.supporter_base.top5_share > 0.7);
        }
    }
}

#[test]
fn verdicts_are_stable_under_repeated_evaluation() {
    // The calibrator caches thresholds; repeated evaluation must never
    // drift (same seed → same Monte-Carlo → same cache → same verdict).
    let test = MultiBehaviorTest::new(
        BehaviorTestConfig::builder()
            .calibration_trials(300)
            .build()
            .unwrap(),
    )
    .unwrap();
    let h = honest(700, 99);
    let first = test.evaluate_detailed(&h).unwrap();
    for _ in 0..5 {
        assert_eq!(test.evaluate_detailed(&h).unwrap(), first);
    }
}
