//! Error types for `hp-stats`.

use std::fmt;

/// Errors raised by statistical constructors and operations.
///
/// All constructors in this crate validate their arguments
/// (probabilities in `[0,1]`, non-empty supports, …) and report violations
/// through this type rather than panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A probability parameter was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// A required count or size parameter was zero or otherwise unusable.
    InvalidCount {
        /// Human-readable description of the parameter.
        what: &'static str,
        /// The offending value.
        value: usize,
    },
    /// A sample fell outside the declared support of a distribution.
    OutOfSupport {
        /// The offending value.
        value: u64,
        /// The maximum allowed value.
        max: u64,
    },
    /// A probability vector did not sum to 1 (within tolerance).
    UnnormalizedProbabilities {
        /// The actual sum of the vector.
        sum: f64,
    },
    /// An empty input was given where at least one element is required.
    EmptyInput {
        /// Human-readable description of the input.
        what: &'static str,
    },
    /// A quantile/confidence level was outside `(0, 1)`.
    InvalidLevel {
        /// The offending value.
        value: f64,
    },
    /// A query reached past the retained full-resolution suffix of a
    /// tiered (horizon-compacted) history. The folded prefix keeps only
    /// exact summary counts, so the query cannot be answered at full
    /// resolution — the caller must shorten the query to the retained
    /// suffix or re-materialize the history. Never a silently wrong
    /// count.
    HorizonExceeded {
        /// Position (transaction index) the query wanted to start at.
        start: usize,
        /// First position still held at full resolution.
        retained_start: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidProbability { value } => {
                write!(f, "probability must lie in [0, 1], got {value}")
            }
            StatsError::InvalidCount { what, value } => {
                write!(f, "invalid {what}: {value}")
            }
            StatsError::OutOfSupport { value, max } => {
                write!(f, "value {value} outside support [0, {max}]")
            }
            StatsError::UnnormalizedProbabilities { sum } => {
                write!(f, "probability vector sums to {sum}, expected 1")
            }
            StatsError::EmptyInput { what } => {
                write!(f, "empty input: {what} requires at least one element")
            }
            StatsError::InvalidLevel { value } => {
                write!(f, "level must lie strictly inside (0, 1), got {value}")
            }
            StatsError::HorizonExceeded {
                start,
                retained_start,
            } => {
                write!(
                    f,
                    "query starts at {start}, before the retained suffix at \
                     {retained_start}: the prefix was folded past the assessment horizon"
                )
            }
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(StatsError, &str)> = vec![
            (StatsError::InvalidProbability { value: 1.5 }, "1.5"),
            (
                StatsError::InvalidCount {
                    what: "window size",
                    value: 0,
                },
                "window size",
            ),
            (StatsError::OutOfSupport { value: 11, max: 10 }, "11"),
            (StatsError::UnnormalizedProbabilities { sum: 0.8 }, "0.8"),
            (StatsError::EmptyInput { what: "samples" }, "samples"),
            (StatsError::InvalidLevel { value: 0.0 }, "0"),
            (
                StatsError::HorizonExceeded {
                    start: 3,
                    retained_start: 64,
                },
                "retained suffix at 64",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
