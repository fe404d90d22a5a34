//! Scenario-level integration tests: miniature versions of the paper's
//! Figs. 3–7 claims, asserted qualitatively.

use honest_players::prelude::*;
use honest_players::sim::detection::{detection_rate, false_positive_rate, DetectionConfig};
use honest_players::sim::{
    attack_cost, collusion_attack_cost, AttackCostConfig, CollusionConfig, Screening,
};
use honest_players::testing::{shared_calibrator, CollusionResilientTest};
use std::sync::Arc;

fn config() -> BehaviorTestConfig {
    BehaviorTestConfig::builder()
        .calibration_trials(400)
        .build()
        .unwrap()
}

fn median_cost(
    prep: usize,
    trust: &dyn TrustFunction,
    screening: Screening<'_>,
    seeds: std::ops::Range<u64>,
) -> f64 {
    let mut costs: Vec<f64> = seeds
        .map(|seed| {
            attack_cost(
                &AttackCostConfig {
                    prep_size: prep,
                    max_steps: 2_000,
                    seed,
                    ..Default::default()
                },
                trust,
                screening,
            )
            .unwrap()
            .good_transactions as f64
        })
        .collect();
    costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    costs[costs.len() / 2]
}

/// Fig. 3's left edge and right edge: the bare average function costs the
/// attacker ~130 goods at prep 100 and nothing at prep 800.
#[test]
fn fig3_shape_bare_average_collapses_with_prep() {
    let avg = AverageTrust::default();
    let short = median_cost(100, &avg, Screening::None, 0..5);
    let long = median_cost(800, &avg, Screening::None, 0..5);
    assert!(short > 80.0, "short prep cost {short}");
    assert!(long < 5.0, "long prep cost {long}");
}

/// Fig. 3's headline: with multi-testing the cost stays high regardless of
/// preparation length — prep no longer buys the attacker anything.
#[test]
fn fig3_shape_multi_testing_cost_is_flat_in_prep() {
    let cfg = config();
    let multi = MultiBehaviorTest::new(cfg).unwrap();
    let avg = AverageTrust::default();
    let at_400 = median_cost(400, &avg, Screening::Test(&multi), 10..15);
    let at_800 = median_cost(800, &avg, Screening::Test(&multi), 10..15);
    // Both well above the free ride of the bare function at those preps…
    assert!(at_400 > 5.0, "multi cost at prep 400: {at_400}");
    assert!(at_800 > 5.0, "multi cost at prep 800: {at_800}");
    // …and within a small factor of each other (no prep dividend).
    let ratio = at_800.max(at_400) / at_800.min(at_400).max(1.0);
    assert!(
        ratio < 6.0,
        "multi cost should be roughly flat: {at_400} vs {at_800}"
    );
}

/// Fig. 4: the weighted function taxes every attack ~2-3 goods, at any
/// preparation length.
#[test]
fn fig4_shape_weighted_constant_cost() {
    let weighted = WeightedTrust::new(0.5).unwrap();
    let short = median_cost(100, &weighted, Screening::None, 0..5);
    let long = median_cost(800, &weighted, Screening::None, 0..5);
    for (label, cost) in [("short", short), ("long", long)] {
        assert!(
            (40.0..=80.0).contains(&cost),
            "{label}-prep weighted cost {cost} (expect ≈ 20 attacks × 3)"
        );
    }
}

/// Fig. 5: collusion makes the bare baseline free; the collusion-resilient
/// screen restores a real cost.
#[test]
fn fig5_shape_collusion_baseline_free_screen_costly() {
    let avg = AverageTrust::default();
    let bare = collusion_attack_cost(
        &CollusionConfig {
            seed: 3,
            ..Default::default()
        },
        &avg,
        Screening::None,
    )
    .unwrap();
    assert_eq!(bare.good_to_victims, 0);
    assert_eq!(bare.attacks_completed, 20);

    let screen = CollusionResilientTest::new(config()).unwrap();
    let mut paid_or_blocked = 0;
    for seed in 0..5 {
        let r = collusion_attack_cost(
            &CollusionConfig {
                seed,
                max_steps: 2_000,
                ..Default::default()
            },
            &avg,
            Screening::Test(&screen),
        )
        .unwrap();
        if r.good_to_victims > 0 || r.exhausted {
            paid_or_blocked += 1;
        }
    }
    assert!(
        paid_or_blocked >= 4,
        "screening must impose real cost in most runs: {paid_or_blocked}/5"
    );
}

/// Fig. 7: detection decays with the attack-window size, and the honest
/// false-positive rate stays far below the tight-window detection rate.
#[test]
fn fig7_shape_detection_decays_and_dominates_fpr() {
    let cfg = config();
    let cal = shared_calibrator(&cfg).unwrap();
    let single = SingleBehaviorTest::with_calibrator(cfg, Arc::clone(&cal)).unwrap();
    let dcfg = DetectionConfig {
        trials: 40,
        ..Default::default()
    };
    let tight = detection_rate(10, &single, &dcfg).unwrap();
    let loose = detection_rate(80, &single, &dcfg).unwrap();
    let fpr = false_positive_rate(0.9, &single, &dcfg).unwrap();
    assert!(tight > 0.9, "tight-window detection {tight}");
    assert!(
        loose < tight,
        "loose windows evade more: {loose} vs {tight}"
    );
    assert!(fpr < 0.2, "honest FPR {fpr}");
    assert!(tight - fpr > 0.6, "detection must dominate FPR");
}

/// The strategic attacker heuristically beats the naive hibernator: with
/// screening deployed, blind cheating is caught while strategic play still
/// (expensively) succeeds.
#[test]
fn strategic_play_survives_where_blind_cheating_fails() {
    use honest_players::sim::workload;
    let cfg = config();
    let multi = MultiBehaviorTest::new(cfg).unwrap();

    // Blind hibernator history → flagged.
    let blind = workload::hibernating_history(800, 0.95, 20, 5);
    assert_eq!(
        multi.evaluate(&blind).unwrap().outcome(),
        TestOutcome::Suspicious
    );

    // Strategic attacker vs the same screen → completes its attacks in
    // most runs, paying as it goes.
    let avg = AverageTrust::default();
    let mut completed = 0;
    for seed in 20..25 {
        let r = attack_cost(
            &AttackCostConfig {
                prep_size: 800,
                max_steps: 2_000,
                seed,
                ..Default::default()
            },
            &avg,
            Screening::Test(&multi),
        )
        .unwrap();
        if !r.exhausted {
            completed += 1;
            assert!(r.good_transactions > 0, "seed {seed}: success must cost");
        }
    }
    assert!(completed >= 3, "strategic attacker completed {completed}/5");
}
