//! Configuration for behavior tests.

use crate::error::CoreError;
use hp_stats::{CalibrationConfig, DistanceKind, SurfaceParams, ThresholdCalibrator};

/// How windows are laid over a range of transactions when the range length
/// is not a multiple of the window size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowAlignment {
    /// Windows start at the oldest transaction; a trailing partial window
    /// is dropped (the paper's "break H sequentially" reading).
    #[default]
    Start,
    /// Windows end at the newest transaction; a leading partial window is
    /// dropped. This is what the multi-test uses internally — end-aligned
    /// windows are shared between suffixes, which is exactly the statistic
    /// reuse behind the paper's O(n) optimization (§5.5).
    End,
}

/// How the multi-test chooses which suffixes of the history to examine.
///
/// The paper steps back arithmetically (`n, n−k, n−2k, …`), which runs
/// Θ(n/k) tests; under any sound multiple-testing correction that many
/// tests dilutes per-suffix power. The geometric schedule halves instead
/// (`n, n/2, n/4, …`), running Θ(log n) tests — the same
/// long-term-plus-short-term coverage intent, with far more power per
/// test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SuffixSchedule {
    /// `n, n−k, n−2k, …` down to `min_suffix` (paper-literal).
    #[default]
    Arithmetic,
    /// `n, n/2, n/4, …` down to `min_suffix`, with each suffix length
    /// rounded down to a multiple of the step so the optimized O(n)
    /// evaluation still applies.
    Geometric,
}

/// Multiple-testing correction for the multi-test.
///
/// The paper runs each suffix test at the same 95% confidence. With ~n/k
/// suffixes that alone would flag almost every honest player (0.95⁷⁰ ≈
/// 2.7% survive), so the default here is Bonferroni; `None` reproduces the
/// paper-literal behavior for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Correction {
    /// Every suffix test runs at the configured confidence (paper-literal).
    None,
    /// Per-suffix confidence is `1 − (1−confidence)/t` for `t` suffix
    /// tests, bounding the family-wise false-positive rate by
    /// `1 − confidence`.
    #[default]
    Bonferroni,
}

/// Configuration shared by all behavior-testing schemes.
///
/// Use [`BehaviorTestConfig::builder`] to customize; the default matches
/// the paper's experimental setup (m = 10, 95% confidence, L¹ distance,
/// multi-test step k = 10, minimum suffix of 100 transactions).
///
/// # Examples
///
/// ```
/// use hp_core::testing::BehaviorTestConfig;
///
/// let config = BehaviorTestConfig::builder()
///     .window_size(20)
///     .confidence(0.99)
///     .step(20)
///     .build()?;
/// assert_eq!(config.window_size(), 20);
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorTestConfig {
    window_size: u32,
    confidence: f64,
    min_windows: usize,
    distance: DistanceKind,
    alignment: WindowAlignment,
    step: usize,
    min_suffix: usize,
    max_suffix: Option<usize>,
    schedule: SuffixSchedule,
    correction: Correction,
    calibration_trials: usize,
    calibration_threads: usize,
    calibration_surface: Option<SurfaceParams>,
    large_k_cutoff: usize,
    p_bucket: f64,
}

impl Default for BehaviorTestConfig {
    fn default() -> Self {
        BehaviorTestConfig {
            window_size: 10,
            confidence: 0.95,
            min_windows: 5,
            distance: DistanceKind::L1,
            alignment: WindowAlignment::Start,
            step: 10,
            min_suffix: 100,
            max_suffix: None,
            schedule: SuffixSchedule::default(),
            correction: Correction::default(),
            calibration_trials: 2000,
            calibration_threads: 1,
            calibration_surface: None,
            large_k_cutoff: 2048,
            p_bucket: 0.005,
        }
    }
}

impl BehaviorTestConfig {
    /// Starts building a configuration from the paper defaults.
    pub fn builder() -> BehaviorTestConfigBuilder {
        BehaviorTestConfigBuilder {
            config: BehaviorTestConfig::default(),
        }
    }

    /// Window size `m` (paper: 10).
    pub fn window_size(&self) -> u32 {
        self.window_size
    }

    /// Confidence level for threshold calibration (paper: 0.95).
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Minimum number of windows for a test to be statistically usable;
    /// below this the verdict is `Inconclusive`.
    pub fn min_windows(&self) -> usize {
        self.min_windows
    }

    /// Distance metric (paper: L¹).
    pub fn distance(&self) -> DistanceKind {
        self.distance
    }

    /// Window alignment for the single test.
    pub fn alignment(&self) -> WindowAlignment {
        self.alignment
    }

    /// Multi-test step `k`: each successive test drops this many of the
    /// oldest transactions.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Multi-test stops once a suffix would be shorter than this.
    pub fn min_suffix(&self) -> usize {
        self.min_suffix
    }

    /// Assessment horizon: the multi-test skips suffixes longer than this
    /// (`None` examines every suffix, the paper-literal behavior).
    ///
    /// A bounded horizon is what lets the tiered history engine fold
    /// transactions older than the horizon into summary counts — every
    /// window the test will ever scan then fits the retained
    /// full-resolution suffix, so verdicts stay bit-identical to an
    /// untiered history assessed under the same horizon.
    pub fn max_suffix(&self) -> Option<usize> {
        self.max_suffix
    }

    /// Returns a copy with the assessment horizon replaced. Safe to apply
    /// at deployment time the way hp-service does: the horizon only
    /// filters which suffixes the multi-test enumerates.
    #[must_use]
    pub fn with_max_suffix(mut self, horizon: Option<usize>) -> Self {
        self.max_suffix = horizon;
        self
    }

    /// How the multi-test enumerates suffixes.
    pub fn schedule(&self) -> SuffixSchedule {
        self.schedule
    }

    /// Multiple-testing correction for the multi-test.
    pub fn correction(&self) -> Correction {
        self.correction
    }

    /// Monte-Carlo trials per threshold calibration.
    pub fn calibration_trials(&self) -> usize {
        self.calibration_trials
    }

    /// Workers the threshold-surface build spreads its row jobs over
    /// (1 = serial); a live threshold miss always calibrates its one row on
    /// the calling thread. Thread count never changes thresholds: a row's
    /// samples depend on the seed and the row alone, so any value here
    /// yields bit-identical verdicts.
    pub fn calibration_threads(&self) -> usize {
        self.calibration_threads
    }

    /// Returns a copy with the calibration thread count replaced. Safe to
    /// apply at deployment time (hp-service defaults it to the machine's
    /// available parallelism for its boot-time surface build): thresholds
    /// are bit-identical at every thread count.
    #[must_use]
    pub fn with_calibration_threads(mut self, threads: usize) -> Self {
        self.calibration_threads = threads;
        self
    }

    /// Interpolated threshold-surface parameters, when the calibrator
    /// should precompute one; `None` (the default) serves every threshold
    /// from the Monte-Carlo oracle cache.
    pub fn calibration_surface(&self) -> Option<SurfaceParams> {
        self.calibration_surface
    }

    /// Returns a copy with the threshold-surface parameters replaced.
    /// Safe to apply at deployment time: the surface is gated by its own
    /// measured error bound and falls back to the oracle, and it does not
    /// participate in the calibrator fingerprint.
    #[must_use]
    pub fn with_calibration_surface(mut self, surface: Option<SurfaceParams>) -> Self {
        self.calibration_surface = surface;
        self
    }

    /// The calibration configuration induced by this test configuration.
    pub fn calibration_config(&self) -> CalibrationConfig {
        CalibrationConfig {
            trials: self.calibration_trials,
            confidence: self.confidence,
            p_bucket: self.p_bucket,
            distance: self.distance,
            large_k_cutoff: self.large_k_cutoff,
            threads: self.calibration_threads,
            surface: self.calibration_surface,
        }
    }

    /// Readies `calibrator` (built from [`Self::calibration_config`]) for
    /// assessments under this configuration: builds or verifies the
    /// threshold surface for the window size, then fills every oracle row
    /// below the surface's `k_min` that a verdict can ask for — from
    /// `max(min_suffix / m, min_windows)` windows up — so that no first
    /// assessment waits on a Monte-Carlo job. A row already held runs no
    /// job. Without a surface nothing is filled: every row is calibrated
    /// when first asked for.
    ///
    /// The one list of boot rows: a service boot runs it, and so does the
    /// build that computes the default configuration's table ahead of
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn prepare_calibrator(&self, calibrator: &ThresholdCalibrator) -> Result<(), CoreError> {
        let m = self.window_size;
        calibrator.ensure_surface_for(m)?;
        if let Some(surface) = self.calibration_surface {
            let k_lo = (self.min_suffix / m as usize).max(self.min_windows);
            let below: Vec<usize> = (k_lo..surface.k_min).collect();
            calibrator.fill_rows(m, &below)?;
        }
        Ok(())
    }

    /// Validates the configuration as a whole.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.window_size == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "window size m must be positive".into(),
            });
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("confidence must lie in (0,1), got {}", self.confidence),
            });
        }
        if self.min_windows == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "min_windows must be positive".into(),
            });
        }
        if self.step == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "multi-test step k must be positive".into(),
            });
        }
        if self.min_suffix < self.window_size as usize {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "min_suffix ({}) must be at least one window ({})",
                    self.min_suffix, self.window_size
                ),
            });
        }
        if let Some(max) = self.max_suffix {
            if max < self.min_suffix {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "max_suffix ({max}) must be at least min_suffix ({})",
                        self.min_suffix
                    ),
                });
            }
        }
        self.calibration_config().validate()?;
        Ok(())
    }
}

/// Builder for [`BehaviorTestConfig`]; see [`BehaviorTestConfig::builder`].
#[derive(Debug, Clone)]
pub struct BehaviorTestConfigBuilder {
    config: BehaviorTestConfig,
}

impl BehaviorTestConfigBuilder {
    /// Sets the window size `m`.
    pub fn window_size(mut self, m: u32) -> Self {
        self.config.window_size = m;
        self
    }

    /// Sets the calibration confidence level.
    pub fn confidence(mut self, confidence: f64) -> Self {
        self.config.confidence = confidence;
        self
    }

    /// Sets the minimum number of windows for a conclusive test.
    pub fn min_windows(mut self, min_windows: usize) -> Self {
        self.config.min_windows = min_windows;
        self
    }

    /// Sets the distance metric.
    pub fn distance(mut self, distance: DistanceKind) -> Self {
        self.config.distance = distance;
        self
    }

    /// Sets the window alignment for the single test.
    pub fn alignment(mut self, alignment: WindowAlignment) -> Self {
        self.config.alignment = alignment;
        self
    }

    /// Sets the multi-test step `k`.
    pub fn step(mut self, step: usize) -> Self {
        self.config.step = step;
        self
    }

    /// Sets the minimum suffix length for the multi-test.
    pub fn min_suffix(mut self, min_suffix: usize) -> Self {
        self.config.min_suffix = min_suffix;
        self
    }

    /// Sets the assessment horizon (maximum suffix length the multi-test
    /// examines); `None` examines every suffix.
    pub fn max_suffix(mut self, max_suffix: Option<usize>) -> Self {
        self.config.max_suffix = max_suffix;
        self
    }

    /// Sets the multi-test suffix schedule.
    pub fn schedule(mut self, schedule: SuffixSchedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Sets the multiple-testing correction.
    pub fn correction(mut self, correction: Correction) -> Self {
        self.config.correction = correction;
        self
    }

    /// Sets the Monte-Carlo calibration trial count.
    pub fn calibration_trials(mut self, trials: usize) -> Self {
        self.config.calibration_trials = trials;
        self
    }

    /// Sets the number of workers for the threshold-surface build's row
    /// fan-out.
    pub fn calibration_threads(mut self, threads: usize) -> Self {
        self.config.calibration_threads = threads;
        self
    }

    /// Sets the interpolated threshold-surface parameters (`None` serves
    /// every threshold from the Monte-Carlo oracle cache).
    pub fn calibration_surface(mut self, surface: Option<SurfaceParams>) -> Self {
        self.config.calibration_surface = surface;
        self
    }

    /// Sets the window count above which thresholds are extrapolated by
    /// the `1/√k` law instead of simulated.
    pub fn large_k_cutoff(mut self, cutoff: usize) -> Self {
        self.config.large_k_cutoff = cutoff;
        self
    }

    /// Sets the p̂ bucket width used by the calibration cache.
    pub fn p_bucket(mut self, width: f64) -> Self {
        self.config.p_bucket = width;
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any constraint fails; see
    /// [`BehaviorTestConfig::validate`].
    pub fn build(self) -> Result<BehaviorTestConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_setup() {
        let c = BehaviorTestConfig::default();
        assert_eq!(c.window_size(), 10);
        assert_eq!(c.confidence(), 0.95);
        assert_eq!(c.step(), 10);
        assert_eq!(c.min_suffix(), 100);
        assert_eq!(c.distance(), DistanceKind::L1);
        assert_eq!(c.correction(), Correction::Bonferroni);
        assert_eq!(c.schedule(), SuffixSchedule::Arithmetic);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides_fields() {
        let c = BehaviorTestConfig::builder()
            .window_size(20)
            .confidence(0.99)
            .step(40)
            .min_suffix(200)
            .correction(Correction::None)
            .schedule(SuffixSchedule::Geometric)
            .calibration_trials(500)
            .build()
            .unwrap();
        assert_eq!(c.window_size(), 20);
        assert_eq!(c.confidence(), 0.99);
        assert_eq!(c.step(), 40);
        assert_eq!(c.min_suffix(), 200);
        assert_eq!(c.correction(), Correction::None);
        assert_eq!(c.schedule(), SuffixSchedule::Geometric);
        assert_eq!(c.calibration_trials(), 500);
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(BehaviorTestConfig::builder()
            .window_size(0)
            .build()
            .is_err());
        assert!(BehaviorTestConfig::builder()
            .confidence(1.0)
            .build()
            .is_err());
        assert!(BehaviorTestConfig::builder().step(0).build().is_err());
        assert!(BehaviorTestConfig::builder()
            .min_windows(0)
            .build()
            .is_err());
        assert!(BehaviorTestConfig::builder()
            .window_size(50)
            .min_suffix(10)
            .build()
            .is_err());
        assert!(BehaviorTestConfig::builder()
            .min_suffix(100)
            .max_suffix(Some(50))
            .build()
            .is_err());
        assert!(BehaviorTestConfig::builder()
            .calibration_trials(1)
            .build()
            .is_err());
    }

    #[test]
    fn calibration_config_inherits_fields() {
        let c = BehaviorTestConfig::builder()
            .confidence(0.9)
            .calibration_trials(123)
            .calibration_threads(3)
            .build()
            .unwrap();
        assert_eq!(c.calibration_threads(), 3);
        let cal = c.calibration_config();
        assert_eq!(cal.trials, 123);
        assert_eq!(cal.confidence, 0.9);
        assert_eq!(cal.threads, 3);
    }

    #[test]
    fn max_suffix_round_trips_and_validates() {
        let c = BehaviorTestConfig::default();
        assert_eq!(c.max_suffix(), None);
        let c = BehaviorTestConfig::builder()
            .max_suffix(Some(1000))
            .build()
            .unwrap();
        assert_eq!(c.max_suffix(), Some(1000));
        let c = c.with_max_suffix(Some(500));
        assert_eq!(c.max_suffix(), Some(500));
        assert!(c.validate().is_ok());
        assert!(c.with_max_suffix(Some(10)).validate().is_err());
    }

    #[test]
    fn calibration_surface_plumbs_through() {
        let c = BehaviorTestConfig::default();
        assert_eq!(c.calibration_surface(), None);
        assert_eq!(c.calibration_config().surface, None);
        let params = SurfaceParams {
            tolerance: 0.02,
            ..Default::default()
        };
        let c = BehaviorTestConfig::builder()
            .calibration_surface(Some(params))
            .build()
            .unwrap();
        assert_eq!(c.calibration_surface(), Some(params));
        assert_eq!(c.calibration_config().surface, Some(params));
        let c = c.with_calibration_surface(None);
        assert_eq!(c.calibration_surface(), None);
        // Invalid surface params fail whole-config validation.
        assert!(BehaviorTestConfig::builder()
            .calibration_surface(Some(SurfaceParams {
                tolerance: 0.0,
                ..Default::default()
            }))
            .build()
            .is_err());
    }

    #[test]
    fn with_calibration_threads_overrides_in_place() {
        let c = BehaviorTestConfig::default().with_calibration_threads(6);
        assert_eq!(c.calibration_threads(), 6);
        assert_eq!(c.calibration_config().threads, 6);
        // Zero threads is still rejected by validation.
        assert!(BehaviorTestConfig::default()
            .with_calibration_threads(0)
            .validate()
            .is_err());
    }
}
