//! Feedback records — the `(t, s, c, r)` tuples of the paper (§2).

use crate::id::{ClientId, ServerId};
use std::fmt;

/// A client's one-dimensional rating of a transaction.
///
/// The paper restricts ratings to `{positive, negative}`, and so does this
/// crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rating {
    /// The transaction was satisfactory ("good transaction").
    Positive,
    /// The transaction was unsatisfactory ("bad transaction").
    Negative,
}

impl Rating {
    /// `true` for [`Rating::Positive`].
    pub fn is_positive(self) -> bool {
        matches!(self, Rating::Positive)
    }

    /// Converts a good/bad flag into a rating.
    pub fn from_good(good: bool) -> Self {
        if good {
            Rating::Positive
        } else {
            Rating::Negative
        }
    }
}

impl fmt::Display for Rating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rating::Positive => write!(f, "+"),
            Rating::Negative => write!(f, "-"),
        }
    }
}

/// A feedback statement: at (logical) time `time`, client `client` rated a
/// transaction served by `server` with `rating`.
///
/// This is a passive record in the C-struct spirit, so its fields are
/// public.
///
/// # Examples
///
/// ```
/// use hp_core::{ClientId, Feedback, Rating, ServerId};
///
/// let fb = Feedback::new(3, ServerId::new(1), ClientId::new(9), Rating::Positive);
/// assert!(fb.is_good());
/// assert_eq!(fb.to_string(), "t3 s1 c9 +");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Feedback {
    /// Logical timestamp (transaction sequence time).
    pub time: u64,
    /// The rated service provider.
    pub server: ServerId,
    /// The rating client.
    pub client: ClientId,
    /// The rating.
    pub rating: Rating,
}

impl Feedback {
    /// Creates a feedback record.
    pub fn new(time: u64, server: ServerId, client: ClientId, rating: Rating) -> Self {
        Feedback {
            time,
            server,
            client,
            rating,
        }
    }

    /// Whether this records a good transaction.
    pub fn is_good(&self) -> bool {
        self.rating.is_positive()
    }
}

impl fmt::Display for Feedback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{} {} {} {}",
            self.time, self.server, self.client, self.rating
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rating_conversions() {
        assert!(Rating::Positive.is_positive());
        assert!(!Rating::Negative.is_positive());
        assert_eq!(Rating::from_good(true), Rating::Positive);
        assert_eq!(Rating::from_good(false), Rating::Negative);
    }

    #[test]
    fn rating_display() {
        assert_eq!(Rating::Positive.to_string(), "+");
        assert_eq!(Rating::Negative.to_string(), "-");
    }

    #[test]
    fn feedback_accessors() {
        let fb = Feedback::new(10, ServerId::new(2), ClientId::new(3), Rating::Negative);
        assert!(!fb.is_good());
        assert_eq!(fb.time, 10);
        assert_eq!(fb.server, ServerId::new(2));
        assert_eq!(fb.client, ClientId::new(3));
    }

    #[test]
    fn feedback_display_format() {
        let fb = Feedback::new(0, ServerId::new(1), ClientId::new(2), Rating::Positive);
        assert_eq!(fb.to_string(), "t0 s1 c2 +");
    }
}
