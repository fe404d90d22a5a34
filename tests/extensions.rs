//! The welfare loop end to end: the one automated check of
//! [`honest_players::sim::ecosystem::run_marketplace`], which the
//! `welfare` figure plots.

use honest_players::prelude::*;
use honest_players::sim::ecosystem::{run_marketplace, EcosystemConfig};

fn fast_config() -> BehaviorTestConfig {
    BehaviorTestConfig::builder()
        .calibration_trials(400)
        .build()
        .unwrap()
}

#[test]
fn marketplace_screening_improves_welfare_end_to_end() {
    let config = EcosystemConfig {
        rounds: 5000,
        seed: 21,
        ..Default::default()
    };
    let avg = AverageTrust::default();
    let unscreened = run_marketplace(&config, &avg, None).unwrap();
    let screen = MultiBehaviorTest::new(fast_config()).unwrap();
    let screened = run_marketplace(&config, &avg, Some(&screen)).unwrap();
    assert!(
        (screened.attacker_harm as f64) < 0.7 * unscreened.attacker_harm as f64,
        "screening must cut attacker harm substantially: {} vs {}",
        screened.attacker_harm,
        unscreened.attacker_harm
    );
}
