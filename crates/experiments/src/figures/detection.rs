//! Fig. 7: detection rate vs attack-window size.

use crate::sweep::RunMode;
use crate::table::Table;
use hp_core::testing::{
    shared_calibrator, BehaviorTestConfig, MultiBehaviorTest, SingleBehaviorTest,
};
use hp_core::CoreError;
use hp_sim::detection::{detection_rate, false_positive_rate, DetectionConfig};
use std::sync::Arc;

/// The attack-window sizes on the x-axis (paper: N = 10, 20, …, 80).
pub const WINDOWS: [usize; 8] = [10, 20, 30, 40, 50, 60, 70, 80];

/// Runs the Fig. 7 sweep: fraction of windowed-periodic attackers
/// (N·0.1 attacks per N transactions, reputation pinned at 0.9) flagged by
/// the single and multi behavior tests, plus the honest-player
/// false-positive rates the detection numbers should be read against.
///
/// # Errors
///
/// Propagates behavior-test failures.
pub fn run(mode: RunMode) -> Result<Vec<Table>, CoreError> {
    let config = BehaviorTestConfig::builder()
        .calibration_trials(mode.calibration_trials())
        .build()?;
    let calibrator = shared_calibrator(&config)?;
    let single = SingleBehaviorTest::with_calibrator(config.clone(), Arc::clone(&calibrator))?;
    let multi = MultiBehaviorTest::with_calibrator(config, calibrator)?;
    let cfg = DetectionConfig {
        trials: mode.detection_trials(),
        ..Default::default()
    };

    let mut table = Table::new(
        "Fig. 7: detection rate vs attack window size",
        vec![
            "attack_window".into(),
            "detection_single".into(),
            "detection_multi".into(),
        ],
    );
    for &window in &WINDOWS {
        table.push_row(vec![
            window.to_string(),
            Table::fmt_f64(detection_rate(window, &single, &cfg)?),
            Table::fmt_f64(detection_rate(window, &multi, &cfg)?),
        ]);
    }

    let mut fpr = Table::new(
        "Fig. 7 companion: honest-player false-positive rate",
        vec!["honest_p".into(), "fpr_single".into(), "fpr_multi".into()],
    );
    for &p in &[0.9, 0.95] {
        fpr.push_row(vec![
            Table::fmt_f64(p),
            Table::fmt_f64(false_positive_rate(p, &single, &cfg)?),
            Table::fmt_f64(false_positive_rate(p, &multi, &cfg)?),
        ]);
    }

    Ok(vec![table, fpr])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_fig7_shape() {
        let tables = run(RunMode::Fast).unwrap();
        let det = &tables[0];
        assert_eq!(det.rows().len(), WINDOWS.len());
        let first: f64 = det.rows()[0][1].parse().unwrap();
        let last: f64 = det.rows()[7][1].parse().unwrap();
        assert!(first > 0.8, "window-10 attackers are near-always caught");
        assert!(
            last < first,
            "detection falls as the attacker smooths out: {first} vs {last}"
        );
    }
}
