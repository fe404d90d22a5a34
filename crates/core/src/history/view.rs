//! The borrowed history abstraction every assessment path consumes.
//!
//! A [`HistoryView`] exposes exactly what the paper's algorithms need —
//! a boolean outcome column with O(1) range counts, issuer groupings for
//! the §4 collusion-resilient reordering where the history keeps its
//! issuers, and optional timestamps — while hiding *how* the history is
//! stored. Two implementations exist:
//!
//! * [`crate::TransactionHistory`] — the reference row store
//!   (`Vec<Feedback>` plus prefix sums and a per-client index), the one
//!   view that keeps issuers;
//! * [`crate::history::TieredHistory`] — the outcome column the service
//!   runs, optionally folded past the assessment horizon.
//!
//! The contract between them is bit-identity: every outcome query, and
//! so every §3 behavior test and trust function, must produce the same
//! answer through either view (property-tested in
//! `tests/columnar_equivalence.rs`, and in `tests/tiered_equivalence.rs`
//! for every query that fits the retained suffix of a folded history).

use crate::id::{ClientId, ServerId};
use hp_stats::{PrefixSums, StatsError};
use std::sync::Arc;

use super::tiered::TieredColumn;

/// A borrowed outcome column: O(1) good-transaction counts over any
/// contiguous range, regardless of the physical representation.
///
/// `Copy`, so the testing engine dispatches on the representation once per
/// call instead of once per window.
#[derive(Debug, Clone, Copy)]
pub enum ColumnRef<'a> {
    /// A `Vec<u64>`-backed prefix-sum column (the reference layout, and
    /// the §4 reordered column).
    Prefix(&'a PrefixSums),
    /// A horizon-compacted column: an exact folded-prefix summary plus a
    /// full-resolution bit suffix. Queries inside the suffix (or covering
    /// the whole folded prefix) are exact; anything else degrades to a
    /// typed [`StatsError::HorizonExceeded`].
    Tiered(&'a TieredColumn),
}

impl ColumnRef<'_> {
    /// Number of outcomes in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnRef::Prefix(p) => p.len(),
            ColumnRef::Tiered(t) => t.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of good outcomes.
    pub fn total_good(&self) -> u64 {
        match self {
            ColumnRef::Prefix(p) => p.total_good(),
            ColumnRef::Tiered(t) => t.total_good(),
        }
    }

    /// First position still held at full bit resolution. `0` for the
    /// prefix-sum column; the folded-prefix length for
    /// [`ColumnRef::Tiered`]. Queries starting at or after this position
    /// behave exactly like the untiered column.
    pub fn retained_start(&self) -> usize {
        match self {
            ColumnRef::Prefix(_) => 0,
            ColumnRef::Tiered(t) => t.retained_start(),
        }
    }

    /// Number of good outcomes in the half-open range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()` (matching
    /// [`PrefixSums::count_range`]), or — for [`ColumnRef::Tiered`] — if
    /// the range straddles the folded prefix without covering it
    /// (see [`TieredColumn::count_range`]).
    pub fn count_range(&self, start: usize, end: usize) -> u64 {
        match self {
            ColumnRef::Prefix(p) => p.count_range(start, end),
            ColumnRef::Tiered(t) => t.count_range(start, end),
        }
    }

    /// Fraction of good outcomes in `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty range, and
    /// [`StatsError::HorizonExceeded`] when a [`ColumnRef::Tiered`] range
    /// reaches into the folded prefix without covering it.
    pub fn rate_range(&self, start: usize, end: usize) -> Result<f64, StatsError> {
        match self {
            ColumnRef::Prefix(p) => p.rate_range(start, end),
            ColumnRef::Tiered(t) => t.rate_range(start, end),
        }
    }

    /// Window counts of size `m` covering `[start, end)`, aligned to
    /// `start`; a trailing partial window is dropped (paper semantics).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidCount`] if `m == 0`, and
    /// [`StatsError::HorizonExceeded`] when a [`ColumnRef::Tiered`] range
    /// starts inside the folded prefix.
    pub fn window_counts(
        &self,
        start: usize,
        end: usize,
        m: usize,
    ) -> Result<Vec<u32>, StatsError> {
        match self {
            ColumnRef::Prefix(p) => p.window_counts(start, end, m),
            ColumnRef::Tiered(t) => t.window_counts(start, end, m),
        }
    }
}

/// One issuer's aggregate in a history: who, how many feedbacks, how many
/// of them were positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuerGroup {
    /// The feedback issuer.
    pub client: ClientId,
    /// Number of feedbacks this issuer contributed.
    pub count: usize,
    /// Number of *positive* feedbacks this issuer contributed.
    pub good: usize,
}

/// The borrowed view of a transaction history that phase 1 (all three
/// behavior-testing schemes), phase 2 (every trust function) and the
/// [`crate::TwoPhaseAssessor`] consume.
///
/// Implementations must agree bit-for-bit on every derived statistic: the
/// columnar engine is only correct because each method returns exactly
/// what the reference row store would.
pub trait HistoryView {
    /// Number of transactions.
    fn len(&self) -> usize;

    /// The good/bad outcome column, in transaction order.
    fn outcome_prefix(&self) -> ColumnRef<'_>;

    /// All issuers with at least one feedback, most frequent first, ties
    /// broken by ascending client id — the §4 ordering. `None` for a
    /// history that keeps no issuers.
    fn issuer_groups(&self) -> Option<Vec<IssuerGroup>>;

    /// The outcome column in issuer-frequency order (§4), cached and
    /// invalidated on ingest: repeated calls on an unchanged history are
    /// allocation-free `Arc` clones. `None` for a history that keeps no
    /// issuers.
    fn reordered_column(&self) -> Option<Arc<PrefixSums>>;

    /// The server this history belongs to: `None` when empty or when
    /// feedback for several servers was mixed in.
    fn server(&self) -> Option<ServerId>;

    /// First transaction index still held at full bit resolution.
    ///
    /// `0` (the default) means the whole history is available and every
    /// query behaves exactly as on the reference row store. A
    /// horizon-compacted history ([`crate::history::TieredHistory`])
    /// overrides this with its folded-prefix length; a query reaching
    /// before it degrades to a typed [`StatsError::HorizonExceeded`]
    /// instead of answering wrongly.
    fn retained_start(&self) -> usize {
        0
    }

    /// Whether the history is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of good transactions.
    fn good_count(&self) -> u64 {
        self.outcome_prefix().total_good()
    }

    /// Total number of bad transactions.
    fn bad_count(&self) -> u64 {
        self.len() as u64 - self.good_count()
    }

    /// Overall fraction of good transactions (`None` when empty) — the
    /// paper's `p̂` estimator.
    fn p_hat(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.good_count() as f64 / self.len() as f64)
        }
    }

    /// The outcome of transaction `i` (`true` = good).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    fn outcome(&self, i: usize) -> bool {
        self.outcome_prefix().count_range(i, i + 1) == 1
    }

    /// Number of good transactions in `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    fn count_range(&self, start: usize, end: usize) -> u64 {
        self.outcome_prefix().count_range(start, end)
    }

    /// Fraction of good transactions in `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty range.
    fn rate_range(&self, start: usize, end: usize) -> Result<f64, StatsError> {
        self.outcome_prefix().rate_range(start, end)
    }

    /// Window counts of size `m` over `[start, end)` (trailing partial
    /// window dropped).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidCount`] if `m == 0`.
    fn window_counts(&self, start: usize, end: usize, m: usize) -> Result<Vec<u32>, StatsError> {
        self.outcome_prefix().window_counts(start, end, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::{Feedback, Rating};
    use crate::history::TieredHistory;
    use crate::id::{ClientId, ServerId};

    #[test]
    fn column_ref_dispatch_agrees_between_representations() {
        let outcomes = [true, true, false, true, false, false, true, true];
        let prefix = PrefixSums::from_bools(outcomes);
        let tiered: TieredHistory = (0..8u64)
            .map(|t| {
                let rating = Rating::from_good(outcomes[t as usize]);
                Feedback::new(t, ServerId::new(1), ClientId::new(t), rating)
            })
            .collect();
        let p = ColumnRef::Prefix(&prefix);
        let b = ColumnRef::Tiered(tiered.column());
        assert_eq!(p.len(), b.len());
        assert_eq!(p.total_good(), b.total_good());
        for start in 0..=8 {
            for end in start..=8 {
                assert_eq!(p.count_range(start, end), b.count_range(start, end));
                assert_eq!(p.rate_range(start, end).ok(), b.rate_range(start, end).ok());
            }
        }
        assert_eq!(
            p.window_counts(0, 8, 4).unwrap(),
            b.window_counts(0, 8, 4).unwrap()
        );
    }
}
