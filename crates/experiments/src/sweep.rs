//! Replication and aggregation helpers.

/// How big an experiment run should be.
///
/// `Fast` keeps every sweep point but shrinks replication counts and
/// calibration trials so the full suite finishes in seconds — used by the
/// integration tests and by `--fast`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RunMode {
    /// Full-size run (paper-comparable).
    #[default]
    Full,
    /// Smoke-test-sized run.
    Fast,
}

impl RunMode {
    /// Replications per sweep point.
    pub fn replications(self) -> usize {
        match self {
            RunMode::Full => 7,
            RunMode::Fast => 2,
        }
    }

    /// Monte-Carlo calibration trials.
    pub fn calibration_trials(self) -> usize {
        match self {
            RunMode::Full => 1500,
            RunMode::Fast => 300,
        }
    }

    /// Trials for detection-rate estimation.
    pub fn detection_trials(self) -> usize {
        match self {
            RunMode::Full => 200,
            RunMode::Fast => 20,
        }
    }

    /// Attack-phase step budget.
    pub fn max_steps(self) -> usize {
        match self {
            RunMode::Full => 4000,
            RunMode::Fast => 800,
        }
    }
}

/// The median of a sample (mean of the middle two for even sizes).
///
/// Experiment sweeps report medians: a single unlucky preparation draw
/// can fail the screening outright (the ~5% honest false-positive rate)
/// and would dominate a mean.
///
/// # Panics
///
/// Panics on an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(hp_experiments::median(&[3.0, 1.0, 2.0]), 2.0);
/// assert_eq!(hp_experiments::median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
/// ```
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in experiment results"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[1.0, 9.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_empty_panics() {
        let _ = median(&[]);
    }

    #[test]
    fn run_mode_scales() {
        assert!(RunMode::Full.replications() > RunMode::Fast.replications());
        assert!(RunMode::Full.calibration_trials() > RunMode::Fast.calibration_trials());
        assert!(RunMode::Full.detection_trials() > RunMode::Fast.detection_trials());
        assert!(RunMode::Full.max_steps() > RunMode::Fast.max_steps());
    }
}
