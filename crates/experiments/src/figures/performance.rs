//! Fig. 9: behavior-testing running time vs history size.

use crate::sweep::RunMode;
use crate::table::Table;
use hp_core::testing::{
    shared_calibrator, BehaviorTestConfig, MultiBehaviorTest, MultiTestMode, SingleBehaviorTest,
};
use hp_core::{CoreError, ServerId, TransactionHistory};
use rand::RngExt;
use std::sync::Arc;
use std::time::Instant;

/// History sizes on the x-axis (paper: 100 000 – 800 000).
pub fn history_sizes(mode: RunMode) -> Vec<usize> {
    match mode {
        RunMode::Full => (1..=8).map(|i| i * 100_000).collect(),
        RunMode::Fast => (1..=4).map(|i| i * 20_000).collect(),
    }
}

/// Runs the Fig. 9 sweep: wall-clock time of single-behavior testing,
/// naive multi-testing (re-test every suffix from scratch — the O(n²)
/// baseline of §5.5) and optimized multi-testing (intermediate-statistic
/// reuse — the paper's O(n) variant), on honest histories of increasing
/// size. The multi-test steps back `k = 1000` transactions per suffix, as
/// large histories warrant.
///
/// # Errors
///
/// Propagates behavior-test failures.
pub fn run(mode: RunMode) -> Result<Vec<Table>, CoreError> {
    let config = BehaviorTestConfig::builder()
        .calibration_trials(mode.calibration_trials())
        .step(1000)
        .build()?;
    let calibrator = shared_calibrator(&config)?;
    let single = SingleBehaviorTest::with_calibrator(config.clone(), Arc::clone(&calibrator))?;
    let naive = MultiBehaviorTest::with_calibrator(config.clone(), Arc::clone(&calibrator))?
        .with_mode(MultiTestMode::Naive);
    let optimized = MultiBehaviorTest::with_calibrator(config, calibrator)?;

    let mut table = Table::new(
        "Fig. 9: time cost vs initial history size",
        vec![
            "history_size".into(),
            "single_ms".into(),
            "multi_naive_ms".into(),
            "multi_optimized_ms".into(),
        ],
    );

    for &n in &history_sizes(mode) {
        let history = big_honest_history(n, 0.95, n as u64);

        // Warm the threshold cache so the timings measure the algorithms,
        // not one-time Monte-Carlo calibration.
        let _ = single.evaluate_detailed(&history)?;
        let _ = naive.evaluate_detailed(&history)?;
        let _ = optimized.evaluate_detailed(&history)?;

        let t0 = Instant::now();
        let s = single.evaluate_detailed(&history)?;
        let single_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let nv = naive.evaluate_detailed(&history)?;
        let naive_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let opt = optimized.evaluate_detailed(&history)?;
        let optimized_ms = t0.elapsed().as_secs_f64() * 1e3;

        debug_assert_eq!(nv, opt, "naive and optimized must agree");
        let _ = (s, nv, opt);

        table.push_row(vec![
            n.to_string(),
            Table::fmt_f64(single_ms),
            Table::fmt_f64(naive_ms),
            Table::fmt_f64(optimized_ms),
        ]);
    }
    Ok(vec![table])
}

/// A large honest history built without the per-feedback client machinery
/// (client identity is irrelevant to single/multi testing).
fn big_honest_history(n: usize, p: f64, seed: u64) -> TransactionHistory {
    let mut rng = hp_stats::seeded_rng(seed);
    TransactionHistory::from_outcomes(ServerId::new(0), (0..n).map(|_| rng.random::<f64>() < p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_is_slower_than_optimized_at_scale() {
        let tables = run(RunMode::Fast).unwrap();
        let rows = tables[0].rows();
        // At the largest fast size the asymptotic gap must already show.
        let last = rows.last().unwrap();
        let naive: f64 = last[2].parse().unwrap();
        let optimized: f64 = last[3].parse().unwrap();
        assert!(
            naive > optimized,
            "naive {naive}ms should exceed optimized {optimized}ms"
        );
    }
}
