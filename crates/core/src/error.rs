//! Error types for `hp-core`.

use hp_stats::StatsError;
use std::fmt;

/// Errors raised by behavior tests, trust functions and the two-phase
/// assessor.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A statistical operation failed (invalid parameter, empty input, …).
    Stats(StatsError),
    /// A configuration constraint was violated.
    InvalidConfig {
        /// Which constraint failed, in human terms.
        reason: String,
    },
    /// A trust value fell outside `[0, 1]`.
    InvalidTrustValue {
        /// The offending value.
        value: f64,
    },
    /// The §4 collusion-resilient test needs the issuer of every
    /// feedback, and the history keeps none (a
    /// [`crate::TieredHistory`]).
    IssuersNotKept,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CoreError::InvalidTrustValue { value } => {
                write!(f, "trust value must lie in [0, 1], got {value}")
            }
            CoreError::IssuersNotKept => {
                write!(f, "the history keeps no issuers, which the test groups by")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::InvalidConfig {
            reason: "window size must be positive".into(),
        };
        assert!(e.to_string().contains("window size"));
    }

    #[test]
    fn stats_errors_convert_and_chain() {
        use std::error::Error;
        let inner = StatsError::InvalidProbability { value: 2.0 };
        let outer: CoreError = inner.clone().into();
        assert_eq!(outer, CoreError::Stats(inner));
        assert!(outer.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
