//! Shared goodness-of-fit machinery used by all three schemes.
//!
//! Everything here operates on a borrowed outcome column
//! ([`ColumnRef`]) rather than on a concrete history type, so it serves
//! the reference and columnar representations alike — and the collusion-
//! resilient test can reuse it on the issuer-reordered sequence.

use crate::error::CoreError;
use crate::history::ColumnRef;
use crate::testing::config::{BehaviorTestConfig, Correction, SuffixSchedule, WindowAlignment};
use crate::testing::report::{SuffixReport, SuffixSink, TestOutcome, WindowTestReport};
use hp_stats::{Binomial, Histogram, ThresholdCalibrator, ThresholdView};

/// Runs one distribution test over the transactions `[start, end)`.
///
/// Follows the paper's Fig. 2 with an explicit `confidence` so the
/// multi-test can apply its correction:
/// 1. break the range into `k = ⌊len/m⌋` windows (per `alignment`),
/// 2. estimate `p̂` over the covered windows,
/// 3. measure the configured distance between the window-count histogram
///    and `B(m, p̂)`,
/// 4. compare to the Monte-Carlo threshold at `confidence`.
pub(crate) fn run_range_test(
    prefix: ColumnRef<'_>,
    start: usize,
    end: usize,
    config: &BehaviorTestConfig,
    calibrator: &ThresholdCalibrator,
    confidence: f64,
    alignment: WindowAlignment,
) -> Result<WindowTestReport, CoreError> {
    RangeTester::new(config, calibrator, confidence)?.run(prefix, start, end, alignment)
}

/// What every range test of one verdict shares — the configuration, the
/// calibrator as seen at the verdict's `(m, confidence)`, and one buffer
/// for the model table — so a multi-test's per-suffix step allocates
/// nothing, takes no lock and writes nothing shared.
pub(crate) struct RangeTester<'a> {
    config: &'a BehaviorTestConfig,
    confidence: f64,
    thresholds: ThresholdView<'a>,
    model: Vec<f64>,
}

impl<'a> RangeTester<'a> {
    pub(crate) fn new(
        config: &'a BehaviorTestConfig,
        calibrator: &'a ThresholdCalibrator,
        confidence: f64,
    ) -> Result<Self, CoreError> {
        Ok(RangeTester {
            config,
            confidence,
            thresholds: calibrator.view(config.window_size(), confidence)?,
            model: Vec::with_capacity(config.window_size() as usize + 1),
        })
    }

    /// [`run_range_test`] for one range of the verdict.
    pub(crate) fn run(
        &mut self,
        prefix: ColumnRef<'_>,
        start: usize,
        end: usize,
        alignment: WindowAlignment,
    ) -> Result<WindowTestReport, CoreError> {
        debug_assert!(start <= end && end <= prefix.len());
        let m = self.config.window_size() as usize;
        let len = end - start;
        let k = len / m;
        if k < self.config.min_windows() {
            return Ok(WindowTestReport::inconclusive(len, k, self.confidence));
        }
        let (cov_start, cov_end) = match alignment {
            WindowAlignment::Start => (start, start + k * m),
            WindowAlignment::End => (end - k * m, end),
        };
        let counts = prefix.window_counts(cov_start, cov_end, m)?;
        let histogram = Histogram::from_samples(self.config.window_size(), counts)?;
        let p_hat = prefix.rate_range(cov_start, cov_end)?;
        self.finish(p_hat, len, &histogram)
    }

    /// Final step shared between the per-suffix and fused evaluations:
    /// given the covered windows' histogram and the (exactly computed) p̂,
    /// derive model, distance, threshold and verdict. A function of its
    /// arguments alone — the caller owns how the histogram and p̂ were
    /// produced, which is what lets the fused sweep feed it without
    /// touching the outcome column.
    pub(crate) fn finish(
        &mut self,
        p_hat: f64,
        transactions: usize,
        histogram: &Histogram,
    ) -> Result<WindowTestReport, CoreError> {
        let k = histogram.len() as usize;
        Binomial::new(self.config.window_size(), p_hat)?.fill_pmf(&mut self.model);
        let distance = self.config.distance().distance(histogram, &self.model)?;
        let (threshold, provenance) = self.thresholds.threshold(k, p_hat)?;
        let outcome = if distance <= threshold {
            TestOutcome::Honest
        } else {
            TestOutcome::Suspicious
        };
        Ok(WindowTestReport {
            outcome,
            transactions,
            windows: k,
            p_hat: Some(p_hat),
            distance: Some(distance),
            threshold: Some(threshold),
            confidence: self.confidence,
            threshold_provenance: Some(provenance),
        })
    }
}

/// The suffix lengths a multi-test will examine for a history of `n`
/// transactions, per the configured [`SuffixSchedule`].
///
/// `max_suffix` is the assessment horizon: suffixes longer than it are
/// skipped (the schedule still steps from `n`, so the surviving lengths
/// stay on the same end-aligned window grid the optimized evaluation
/// shares across suffixes).
pub(crate) fn suffix_lengths(
    n: usize,
    step: usize,
    min_suffix: usize,
    max_suffix: Option<usize>,
    schedule: SuffixSchedule,
) -> Vec<usize> {
    let mut lens = Vec::new();
    let max = max_suffix.unwrap_or(usize::MAX);
    match schedule {
        SuffixSchedule::Arithmetic => {
            let mut len = n;
            while len >= min_suffix && len > 0 {
                if len <= max {
                    lens.push(len);
                }
                match len.checked_sub(step) {
                    Some(next) => len = next,
                    None => break,
                }
            }
        }
        SuffixSchedule::Geometric => {
            let mut len = n;
            while len >= min_suffix && len > 0 {
                if len <= max {
                    lens.push(len);
                }
                // Halve, then round down to a step multiple (keeping the
                // optimized evaluation's window-alignment precondition).
                let halved = len / 2;
                let aligned = halved - halved % step.max(1);
                if aligned >= len {
                    break;
                }
                len = aligned;
            }
        }
    }
    lens
}

/// Per-test confidence after the configured multiple-testing correction.
///
/// The test count is rounded up to the next power of two before dividing.
/// This is conservative (the family-wise error bound only tightens) and
/// keeps the number of distinct confidence levels — and therefore the
/// number of distinct threshold-calibration cache entries — logarithmic in
/// the history length instead of linear.
pub(crate) fn per_test_confidence(config: &BehaviorTestConfig, tests: usize) -> f64 {
    match config.correction() {
        Correction::None => config.confidence(),
        Correction::Bonferroni => {
            if tests <= 1 {
                config.confidence()
            } else {
                let rounded = tests.next_power_of_two();
                1.0 - (1.0 - config.confidence()) / rounded as f64
            }
        }
    }
}

/// The loop every multi-test evaluation runs: `test` each suffix length,
/// longest first, hand the report to `sink`, and aggregate the verdict —
/// suspicious if any suffix fails, inconclusive if none could be tested.
/// Returns the verdict and the per-test confidence it was reached at.
fn run_suffixes(
    lens: &[usize],
    confidence: f64,
    sink: &mut impl SuffixSink,
    mut test: impl FnMut(usize) -> Result<WindowTestReport, CoreError>,
) -> Result<(TestOutcome, f64), CoreError> {
    sink.reserve(lens.len());
    let mut outcome = TestOutcome::Inconclusive;
    for &len in lens {
        let report = test(len)?;
        match report.outcome {
            TestOutcome::Suspicious => outcome = TestOutcome::Suspicious,
            TestOutcome::Honest if outcome == TestOutcome::Inconclusive => {
                outcome = TestOutcome::Honest;
            }
            _ => {}
        }
        sink.push(SuffixReport {
            suffix_len: len,
            report,
        });
    }
    Ok((outcome, confidence))
}

/// Runs the full multi-test, choosing the evaluation from the
/// configuration: the fused O(n) sweep needs every suffix on one
/// end-aligned window grid, which holds exactly when the step is a
/// multiple of the window size; any other step is tested suffix by
/// suffix. Both produce the same reports bit for bit.
pub(crate) fn run_multi(
    prefix: ColumnRef<'_>,
    config: &BehaviorTestConfig,
    calibrator: &ThresholdCalibrator,
    sink: &mut impl SuffixSink,
) -> Result<(TestOutcome, f64), CoreError> {
    if config.step().is_multiple_of(config.window_size() as usize) {
        run_multi_fused(prefix, config, calibrator, sink)
    } else {
        run_multi_naive(prefix, config, calibrator, sink)
    }
}

/// Runs the full multi-test (naive evaluation: every suffix from scratch).
///
/// Windows are end-aligned so the suffix tests agree with the fused
/// evaluation bit-for-bit.
pub(crate) fn run_multi_naive(
    prefix: ColumnRef<'_>,
    config: &BehaviorTestConfig,
    calibrator: &ThresholdCalibrator,
    sink: &mut impl SuffixSink,
) -> Result<(TestOutcome, f64), CoreError> {
    let n = prefix.len();
    let lens = suffix_lengths(
        n,
        config.step(),
        config.min_suffix(),
        config.max_suffix(),
        config.schedule(),
    );
    let confidence = per_test_confidence(config, lens.len());
    let mut tester = RangeTester::new(config, calibrator, confidence)?;
    run_suffixes(&lens, confidence, sink, |len| {
        tester.run(prefix, n - len, n, WindowAlignment::End)
    })
}

/// One pass over the outcome column serving *every* suffix of a
/// multi-test: the end-aligned window grid all suffixes share.
///
/// When the step is a multiple of the window size `m`, every suffix's
/// end-aligned coverage `[n − k·m, n)` starts on the same grid of window
/// boundaries counted from the end — so a single
/// [`ColumnRef::window_counts`] sweep yields each suffix's window counts
/// as a *suffix of one shared vector*, and a prefix-sum over those counts
/// answers each suffix's good total (its p̂ numerator) without ever
/// touching the column again.
pub(crate) struct FusedSuffixSweep {
    /// End-aligned window counts for the longest suffix, oldest first.
    counts: Vec<u32>,
    /// `good_prefix[i]` = good outcomes in grid windows `[0, i)`; one more
    /// entry than `counts`, so `good_prefix[len]` is the grid total.
    good_prefix: Vec<u64>,
}

impl FusedSuffixSweep {
    /// Sweeps the column once, fusing window counting with the count
    /// prefix-sum every suffix's p̂ is later read from, with the grid
    /// capped at `max_windows` end-aligned windows (`None` = the whole
    /// column). Under an assessment horizon the multi-test never reads
    /// windows older than its longest admissible suffix, so capping keeps
    /// the sweep inside the retained full-resolution suffix of a tiered
    /// (horizon-compacted) history — and off the folded prefix, which
    /// would answer with [`hp_stats::StatsError::HorizonExceeded`].
    pub(crate) fn new_capped(
        prefix: ColumnRef<'_>,
        m: usize,
        max_windows: Option<usize>,
    ) -> Result<Self, CoreError> {
        let n = prefix.len();
        let total_windows = (n / m).min(max_windows.unwrap_or(usize::MAX));
        let counts = if total_windows > 0 {
            prefix.window_counts(n - total_windows * m, n, m)?
        } else {
            Vec::new()
        };
        let mut good_prefix = Vec::with_capacity(counts.len() + 1);
        let mut running = 0u64;
        good_prefix.push(0);
        for &c in &counts {
            running += u64::from(c);
            good_prefix.push(running);
        }
        Ok(FusedSuffixSweep {
            counts,
            good_prefix,
        })
    }

    /// Number of grid windows (those of the longest suffix).
    pub(crate) fn windows(&self) -> usize {
        self.counts.len()
    }

    /// The count of grid window `w` (oldest first).
    pub(crate) fn count(&self, w: usize) -> u32 {
        self.counts[w]
    }

    /// Good outcomes covered by the newest `k` grid windows — the p̂
    /// numerator for the suffix whose coverage is those windows. Exact
    /// integer arithmetic, so `good_in_newest(k) / (k·m)` is bit-identical
    /// to `rate_range` over the same span.
    pub(crate) fn good_in_newest(&self, k: usize) -> u64 {
        let total = self.counts.len();
        self.good_prefix[total] - self.good_prefix[total - k]
    }
}

/// Runs the full multi-test with the paper's O(n) optimization (§5.5),
/// fused: one [`FusedSuffixSweep`] over the column emits the counts for
/// every suffix, each step removes the `step/m` oldest windows from the
/// running histogram (incremental deltas), and p̂ comes from the sweep's
/// count prefix-sums — the column is read exactly once regardless of how
/// many suffixes the schedule visits. Only [`run_multi`] calls it, with a
/// step that is a multiple of the window size (the precondition for
/// window reuse).
fn run_multi_fused(
    prefix: ColumnRef<'_>,
    config: &BehaviorTestConfig,
    calibrator: &ThresholdCalibrator,
    sink: &mut impl SuffixSink,
) -> Result<(TestOutcome, f64), CoreError> {
    let m = config.window_size() as usize;
    debug_assert!(config.step().is_multiple_of(m));
    let n = prefix.len();
    let lens = suffix_lengths(
        n,
        config.step(),
        config.min_suffix(),
        config.max_suffix(),
        config.schedule(),
    );
    let confidence = per_test_confidence(config, lens.len());
    if lens.is_empty() {
        // Nothing admissible to test; don't touch the column at all (it
        // may be horizon-compacted with no retained window to read).
        return Ok((TestOutcome::Inconclusive, confidence));
    }

    // The single pass over the column; shorter suffixes use strict
    // suffixes of the shared grid. The grid is capped at the longest
    // admissible suffix so a horizon-compacted column is never read past
    // its retained suffix.
    let sweep = FusedSuffixSweep::new_capped(prefix, m, lens.first().map(|&len| len / m))?;
    let total_windows = sweep.windows();
    let mut histogram =
        Histogram::from_samples(config.window_size(), sweep.counts.iter().copied())?;
    // Grid index of the oldest window still in the histogram.
    let mut oldest = 0usize;
    let mut tester = RangeTester::new(config, calibrator, confidence)?;

    run_suffixes(&lens, confidence, sink, |len| {
        let k = len / m;
        // Remove windows that fall outside this suffix.
        while total_windows - oldest > k {
            histogram.remove(sweep.count(oldest))?;
            oldest += 1;
        }
        if k < config.min_windows() {
            return Ok(WindowTestReport::inconclusive(len, k, confidence));
        }
        let p_hat = sweep.good_in_newest(k) as f64 / (k * m) as f64;
        tester.finish(p_hat, len, &histogram)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::report::MultiReport;
    use hp_stats::PrefixSums;

    fn naive(
        prefix: &PrefixSums,
        config: &BehaviorTestConfig,
        cal: &ThresholdCalibrator,
    ) -> Result<MultiReport, CoreError> {
        MultiReport::collect(|sink| run_multi_naive(ColumnRef::Prefix(prefix), config, cal, sink))
    }

    fn selected(
        prefix: &PrefixSums,
        config: &BehaviorTestConfig,
        cal: &ThresholdCalibrator,
    ) -> Result<MultiReport, CoreError> {
        MultiReport::collect(|sink| run_multi(ColumnRef::Prefix(prefix), config, cal, sink))
    }

    fn calibrator(config: &BehaviorTestConfig) -> ThresholdCalibrator {
        ThresholdCalibrator::new(config.calibration_config()).unwrap()
    }

    fn honest_prefix(n: usize, p: f64, seed: u64) -> PrefixSums {
        use rand::RngExt;
        let mut rng = hp_stats::seeded_rng(seed);
        PrefixSums::from_bools((0..n).map(|_| rng.random::<f64>() < p))
    }

    #[test]
    fn suffix_lengths_enumeration() {
        let arith = SuffixSchedule::Arithmetic;
        assert_eq!(suffix_lengths(250, 100, 100, None, arith), vec![250, 150]);
        assert_eq!(
            suffix_lengths(300, 100, 100, None, arith),
            vec![300, 200, 100]
        );
        assert_eq!(
            suffix_lengths(99, 100, 100, None, arith),
            Vec::<usize>::new()
        );
        assert_eq!(suffix_lengths(100, 100, 100, None, arith), vec![100]);
    }

    #[test]
    fn suffix_lengths_respect_the_horizon() {
        let arith = SuffixSchedule::Arithmetic;
        // The schedule still steps from n, so the surviving lengths stay
        // on the end-aligned grid; longer-than-horizon suffixes vanish.
        assert_eq!(
            suffix_lengths(300, 100, 100, Some(200), arith),
            vec![200, 100]
        );
        assert_eq!(
            suffix_lengths(300, 100, 100, Some(300), arith),
            vec![300, 200, 100]
        );
        assert_eq!(suffix_lengths(250, 100, 100, Some(160), arith), vec![150]);
        // A horizon the grid never lands on leaves nothing to test.
        assert_eq!(
            suffix_lengths(105, 10, 100, Some(100), arith),
            Vec::<usize>::new()
        );
        let geo = SuffixSchedule::Geometric;
        assert_eq!(
            suffix_lengths(800, 10, 100, Some(400), geo),
            vec![400, 200, 100]
        );
    }

    #[test]
    fn suffix_lengths_geometric() {
        let geo = SuffixSchedule::Geometric;
        // 800 → 400 → 200 → 100, all step-10-aligned.
        assert_eq!(
            suffix_lengths(800, 10, 100, None, geo),
            vec![800, 400, 200, 100]
        );
        // Unaligned start: halves round down to step multiples.
        assert_eq!(
            suffix_lengths(805, 10, 100, None, geo),
            vec![805, 400, 200, 100]
        );
        assert_eq!(suffix_lengths(99, 10, 100, None, geo), Vec::<usize>::new());
        // Log-many tests vs linear-many.
        let geo_tests = suffix_lengths(10_000, 10, 100, None, geo).len();
        let arith_tests = suffix_lengths(10_000, 10, 100, None, SuffixSchedule::Arithmetic).len();
        assert!(
            geo_tests < 10 && arith_tests > 900,
            "{geo_tests} vs {arith_tests}"
        );
    }

    #[test]
    fn per_test_confidence_corrections() {
        let none = BehaviorTestConfig::builder()
            .correction(Correction::None)
            .build()
            .unwrap();
        assert_eq!(per_test_confidence(&none, 50), 0.95);
        let bonf = BehaviorTestConfig::default();
        // 50 tests round up to 64 for cache friendliness (conservative).
        let c = per_test_confidence(&bonf, 50);
        assert!((c - (1.0 - 0.05 / 64.0)).abs() < 1e-12);
        let exact = per_test_confidence(&bonf, 64);
        assert_eq!(c, exact);
        assert_eq!(per_test_confidence(&bonf, 1), 0.95);
        assert_eq!(per_test_confidence(&bonf, 0), 0.95);
    }

    #[test]
    fn range_test_inconclusive_when_too_short() {
        let config = BehaviorTestConfig::default();
        let cal = calibrator(&config);
        let prefix = honest_prefix(30, 0.9, 1); // 3 windows < min 5
        let report = run_range_test(
            ColumnRef::Prefix(&prefix),
            0,
            30,
            &config,
            &cal,
            0.95,
            WindowAlignment::Start,
        )
        .unwrap();
        assert_eq!(report.outcome, TestOutcome::Inconclusive);
        assert_eq!(report.windows, 3);
    }

    #[test]
    fn honest_history_passes_range_test() {
        let config = BehaviorTestConfig::default();
        let cal = calibrator(&config);
        let prefix = honest_prefix(1000, 0.9, 2);
        let report = run_range_test(
            ColumnRef::Prefix(&prefix),
            0,
            1000,
            &config,
            &cal,
            0.95,
            WindowAlignment::Start,
        )
        .unwrap();
        assert_eq!(report.outcome, TestOutcome::Honest, "{report:?}");
        assert!(report.p_hat.unwrap() > 0.85);
    }

    #[test]
    fn alignment_changes_covered_range_for_ragged_lengths() {
        // 25 transactions, m=10: Start covers [0,20), End covers [5,25).
        let mut outcomes = vec![true; 25];
        outcomes[0] = false; // only visible to Start
        let prefix = PrefixSums::from_bools(outcomes);
        let config = BehaviorTestConfig::builder()
            .min_windows(2)
            .build()
            .unwrap();
        let cal = calibrator(&config);
        let start = run_range_test(
            ColumnRef::Prefix(&prefix),
            0,
            25,
            &config,
            &cal,
            0.95,
            WindowAlignment::Start,
        )
        .unwrap();
        let end = run_range_test(
            ColumnRef::Prefix(&prefix),
            0,
            25,
            &config,
            &cal,
            0.95,
            WindowAlignment::End,
        )
        .unwrap();
        assert!(start.p_hat.unwrap() < 1.0);
        assert_eq!(end.p_hat.unwrap(), 1.0);
    }

    #[test]
    fn fused_sweep_matches_direct_range_counts() {
        let prefix = honest_prefix(487, 0.85, 42);
        let n = prefix.len();
        for m in [1usize, 7, 10, 64] {
            let sweep = FusedSuffixSweep::new_capped(ColumnRef::Prefix(&prefix), m, None).unwrap();
            assert_eq!(sweep.windows(), n / m);
            for k in 1..=sweep.windows() {
                assert_eq!(
                    sweep.good_in_newest(k),
                    prefix.count_range(n - k * m, n),
                    "m={m} k={k}"
                );
            }
        }
        // Histories shorter than one window yield an empty grid.
        let short = honest_prefix(5, 0.9, 1);
        let sweep = FusedSuffixSweep::new_capped(ColumnRef::Prefix(&short), 10, None).unwrap();
        assert_eq!(sweep.windows(), 0);
        // A cap below the natural grid truncates to the newest windows.
        let capped =
            FusedSuffixSweep::new_capped(ColumnRef::Prefix(&prefix), 10, Some(20)).unwrap();
        assert_eq!(capped.windows(), 20);
        assert_eq!(capped.good_in_newest(20), prefix.count_range(n - 200, n));
    }

    #[test]
    fn naive_and_optimized_multi_agree_exactly() {
        let config = BehaviorTestConfig::default();
        let cal = calibrator(&config);
        for seed in 0..5u64 {
            // Mix honest and dishonest histories, ragged lengths included.
            let n = 480 + seed as usize * 37;
            let p = if seed % 2 == 0 { 0.9 } else { 0.75 };
            let mut prefix = honest_prefix(n, p, seed + 100);
            if seed == 3 {
                // Inject a burst of bad transactions at the end.
                for _ in 0..20 {
                    prefix.push(false);
                }
            }
            let naive = naive(&prefix, &config, &cal).unwrap();
            let optimized = selected(&prefix, &config, &cal).unwrap();
            assert_eq!(naive, optimized, "seed {seed}");
        }
    }

    #[test]
    fn naive_and_optimized_agree_under_a_horizon() {
        let config = BehaviorTestConfig::builder()
            .max_suffix(Some(200))
            .build()
            .unwrap();
        let cal = calibrator(&config);
        for seed in 0..4u64 {
            let n = 480 + seed as usize * 37;
            let p = if seed % 2 == 0 { 0.9 } else { 0.75 };
            let prefix = honest_prefix(n, p, seed + 300);
            let naive = naive(&prefix, &config, &cal).unwrap();
            let optimized = selected(&prefix, &config, &cal).unwrap();
            assert_eq!(naive, optimized, "seed {seed}");
            assert!(naive.suffixes.iter().all(|s| s.suffix_len <= 200));
            assert!(!naive.suffixes.is_empty());
        }
    }

    #[test]
    fn a_misaligned_step_is_tested_suffix_by_suffix() {
        let config = BehaviorTestConfig::builder().step(15).build().unwrap();
        let cal = calibrator(&config);
        let prefix = honest_prefix(300, 0.9, 3);
        let report = selected(&prefix, &config, &cal).unwrap();
        assert_eq!(report, naive(&prefix, &config, &cal).unwrap());
        assert!(!report.suffixes.is_empty());
    }

    #[test]
    fn multi_flags_recent_burst_that_single_misses() {
        // Long honest history followed by a burst of cheating: the full-
        // history test dilutes the burst, the suffix tests see it.
        let config = BehaviorTestConfig::default();
        let cal = calibrator(&config);
        let mut prefix = honest_prefix(2000, 0.95, 4);
        for _ in 0..30 {
            prefix.push(false);
        }
        for _ in 0..70 {
            prefix.push(true);
        }
        let multi = naive(&prefix, &config, &cal).unwrap();
        assert_eq!(multi.outcome, TestOutcome::Suspicious);
        assert!(multi.first_failure().is_some());
    }

    #[test]
    fn multi_on_short_history_is_inconclusive() {
        let config = BehaviorTestConfig::default();
        let cal = calibrator(&config);
        let prefix = honest_prefix(50, 0.9, 5);
        let multi = naive(&prefix, &config, &cal).unwrap();
        assert_eq!(multi.outcome, TestOutcome::Inconclusive);
        assert!(multi.suffixes.is_empty());
        let optimized = selected(&prefix, &config, &cal).unwrap();
        assert_eq!(multi, optimized);
    }
}
