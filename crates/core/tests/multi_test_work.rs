//! The work one multi-test verdict does, counted (§3.3, Fig. 9).
//!
//! The fused sweep reads the outcome column once for all suffixes, so it
//! scans about one window per suffix; the per-suffix oracle
//! (`MultiTestMode::Naive`) re-reads each suffix's windows, O(n) per
//! suffix. Both look a threshold up once per conclusive suffix. A second
//! lookup or a rescan moves a count whatever the host's clock does; the
//! clocks are `hp-core.window_counts_ns_per_window_m10` and
//! `hp-core.multi_test_us_n20000` in `BENCHMARK.json`.

use hp_core::history::BitColumn;
use hp_core::testing::{BehaviorTestConfig, MultiBehaviorTest, MultiTestMode};
use hp_core::{ClientId, Feedback, Rating, ServerId, TieredHistory};
use std::sync::Arc;

/// The history length the work of a verdict is counted at: a
/// `deep_assess` server's.
const COUNTED_N: usize = 20_000;
/// At most this many windows per suffix on the fused path.
const MAX_FUSED_WINDOWS_PER_SUFFIX: f64 = 1.005;
/// At most one threshold lookup per suffix on the fused path.
const MAX_FUSED_LOOKUPS_PER_SUFFIX: f64 = 1.0;
/// At least this many per-suffix windows for each fused one.
const MIN_NAIVE_OVER_FUSED_WINDOWS: f64 = 1_000.0;

/// An outcome column with a mixed bit pattern (roughly 80 % good, no
/// short period) so popcounts see realistic word contents.
fn outcome_column(n: usize) -> BitColumn {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    BitColumn::from_bools((0..n).map(|_| {
        // SplitMix64 step; deterministic across runs.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 100 < 80
    }))
}

/// One server's worth of feedback sharing the column's outcome pattern.
fn history(n: usize) -> TieredHistory {
    let col = outcome_column(n);
    let mut h = TieredHistory::new();
    for t in 0..n {
        h.push(Feedback::new(
            t as u64,
            ServerId::new(1),
            ClientId::new(t as u64 % 23),
            Rating::from_good(col.get(t)),
        ));
    }
    h
}

/// The multi-test both paths run, with a small calibration budget and one
/// calibrator between them: the default mode is the fused sweep at the
/// default, aligned step.
fn multi_tests() -> (MultiBehaviorTest, MultiBehaviorTest) {
    let config = BehaviorTestConfig::builder()
        .calibration_trials(200)
        .build()
        .unwrap();
    let fused = MultiBehaviorTest::new(config.clone()).unwrap();
    let calibrator = Arc::clone(fused.calibrator());
    let naive = MultiBehaviorTest::with_calibrator(config, calibrator)
        .unwrap()
        .with_mode(MultiTestMode::Naive);
    (fused, naive)
}

/// What one verdict does, counted.
struct Work {
    suffixes: usize,
    /// Windows read off the outcome column. The fused path reads the
    /// longest suffix's grid once; the per-suffix path reads each
    /// conclusive suffix's own windows (an inconclusive one stops before
    /// reading). Each suffix report names its windows.
    windows: usize,
    /// Threshold lookups, read off the calibrator's counters.
    lookups: u64,
}

impl Work {
    fn windows_per_suffix(&self) -> f64 {
        self.windows as f64 / self.suffixes as f64
    }

    fn lookups_per_suffix(&self) -> f64 {
        self.lookups as f64 / self.suffixes as f64
    }
}

fn count_work(test: &MultiBehaviorTest, history: &TieredHistory) -> Work {
    let lookups = || {
        let stats = test.calibrator().stats();
        stats.hits + stats.misses + stats.surface_hits
    };
    let before = lookups();
    let report = test.evaluate_detailed(history).unwrap();
    let lookups = lookups() - before;
    let tested = report.suffixes.iter().map(|suffix| suffix.report.windows);
    let windows = match test.mode() {
        MultiTestMode::Auto => tested.max().unwrap_or(0),
        MultiTestMode::Naive => tested.filter(|&k| k >= test.config().min_windows()).sum(),
    };
    Work {
        suffixes: report.suffixes.len(),
        windows,
        lookups,
    }
}

#[test]
fn the_fused_sweep_reads_each_window_once_and_looks_each_threshold_up_once() {
    let counted = history(COUNTED_N);
    let (fused_test, naive_test) = multi_tests();
    let (fused, naive) = (
        count_work(&fused_test, &counted),
        count_work(&naive_test, &counted),
    );
    let windows_ratio = naive.windows as f64 / fused.windows as f64;
    println!(
        "at n = {COUNTED_N}, {} suffixes: fused {:.3} windows and {:.3} lookups per \
         suffix, per-suffix {:.1} windows and {:.3} lookups; per-suffix/fused windows \
         {windows_ratio:.1}x",
        fused.suffixes,
        fused.windows_per_suffix(),
        fused.lookups_per_suffix(),
        naive.windows_per_suffix(),
        naive.lookups_per_suffix(),
    );
    assert!(
        fused.windows_per_suffix() <= MAX_FUSED_WINDOWS_PER_SUFFIX,
        "fused windows per suffix {} > {MAX_FUSED_WINDOWS_PER_SUFFIX}",
        fused.windows_per_suffix()
    );
    assert!(
        fused.lookups_per_suffix() <= MAX_FUSED_LOOKUPS_PER_SUFFIX,
        "fused lookups per suffix {} > {MAX_FUSED_LOOKUPS_PER_SUFFIX}",
        fused.lookups_per_suffix()
    );
    assert!(
        windows_ratio >= MIN_NAIVE_OVER_FUSED_WINDOWS,
        "per-suffix over fused windows {windows_ratio} < {MIN_NAIVE_OVER_FUSED_WINDOWS}"
    );
}
