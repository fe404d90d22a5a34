//! Ordered transaction histories with O(1) range statistics.
//!
//! Two representations share one behavioral contract:
//!
//! * [`TransactionHistory`] — the reference row store: a `Vec<Feedback>`
//!   plus prefix sums of good transactions and a per-client index. Keeps
//!   full records, supports pop (append–test–revert), and anchors the
//!   bit-identity property tests.
//! * [`TieredHistory`] — the production history: the outcomes alone, in
//!   a [`BitColumn`] (two bits per transaction, instead of ~48 B), with
//!   a prefix older than the assessment horizon foldable into two exact
//!   counts. It keeps no issuers and no timestamps: the service's §3
//!   verdict reads neither.
//!
//! Every assessment path — the three behavior-testing schemes, the trust
//! functions, and [`crate::TwoPhaseAssessor`] — consumes either through
//! the borrowed [`HistoryView`] trait:
//!
//! * any window count `G_i` and any suffix's `p̂` are O(1)
//!   ([`HistoryView::count_range`]), which turns the naive O(n²)
//!   multi-test into the O(n) optimized variant;
//! * the collusion-resilient reordering (§4) groups feedback by issuer in
//!   O(n) — and is cached per history, invalidated on ingest, so repeated
//!   collusion evaluations of an unchanged history allocate nothing. Only
//!   the row store keeps issuers; a [`TieredHistory`] answers `None`.

mod columnar;
mod tiered;
mod view;

pub use columnar::BitColumn;
pub use tiered::{HistoryMark, TieredColumn, TieredHistory, TruncateError};
pub use view::{ColumnRef, HistoryView, IssuerGroup};

use crate::feedback::{Feedback, Rating};
use crate::id::{ClientId, ServerId};
use hp_stats::{PrefixSums, StatsError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The version-stamped cache behind [`HistoryView::reordered_column`]:
/// the §4 issuer-frequency reordering is rebuilt only when the history
/// has changed since the cached column was built.
#[derive(Debug, Default)]
struct ReorderCache {
    /// `(history version, reordered column)` of the last rebuild.
    cached: Option<(u64, Arc<PrefixSums>)>,
    /// How many times the reordering was actually rebuilt.
    recomputes: u64,
}

/// A server's transaction history, in transaction order.
///
/// # Examples
///
/// ```
/// use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
///
/// let mut h = TransactionHistory::new();
/// h.push(Feedback::new(0, ServerId::new(1), ClientId::new(5), Rating::Positive));
/// h.push(Feedback::new(1, ServerId::new(1), ClientId::new(6), Rating::Negative));
/// assert_eq!(h.len(), 2);
/// assert_eq!(h.good_count(), 1);
/// assert_eq!(h.p_hat(), Some(0.5));
/// ```
#[derive(Debug, Default)]
pub struct TransactionHistory {
    feedbacks: Vec<Feedback>,
    prefix: PrefixSums,
    by_client: HashMap<ClientId, Vec<usize>>,
    /// Bumped on push *and* pop; stamps the reorder cache.
    version: u64,
    reorder: Mutex<ReorderCache>,
}

impl TransactionHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        TransactionHistory::default()
    }

    /// Creates an empty history with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TransactionHistory {
            feedbacks: Vec::with_capacity(capacity),
            ..TransactionHistory::default()
        }
    }

    /// Builds a synthetic history from good/bad outcomes.
    ///
    /// Times are assigned sequentially and all feedback is attributed to a
    /// single placeholder client, so this is only appropriate where issuer
    /// identity does not matter (i.e. everywhere except collusion testing).
    pub fn from_outcomes<I>(server: ServerId, outcomes: I) -> Self
    where
        I: IntoIterator<Item = bool>,
    {
        let client = ClientId::new(0);
        let mut h = TransactionHistory::new();
        for (t, good) in outcomes.into_iter().enumerate() {
            h.push(Feedback::new(
                t as u64,
                server,
                client,
                Rating::from_good(good),
            ));
        }
        h
    }

    /// Appends a feedback record.
    pub fn push(&mut self, feedback: Feedback) {
        let idx = self.feedbacks.len();
        self.prefix.push(feedback.is_good());
        self.by_client.entry(feedback.client).or_default().push(idx);
        self.feedbacks.push(feedback);
        self.version += 1;
    }

    /// Removes and returns the most recent feedback.
    ///
    /// Together with [`TransactionHistory::push`], this supports the
    /// append–test–revert pattern the strategic attacker (and any what-if
    /// analysis) needs, in O(1).
    pub fn pop(&mut self) -> Option<Feedback> {
        let feedback = self.feedbacks.pop()?;
        self.prefix.pop();
        let idx_list = self
            .by_client
            .get_mut(&feedback.client)
            .expect("per-client index tracks every pushed feedback");
        idx_list.pop();
        if idx_list.is_empty() {
            self.by_client.remove(&feedback.client);
        }
        self.version += 1;
        Some(feedback)
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.feedbacks.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.feedbacks.is_empty()
    }

    /// Total number of good transactions.
    pub fn good_count(&self) -> u64 {
        self.prefix.total_good()
    }

    /// Total number of bad transactions.
    pub fn bad_count(&self) -> u64 {
        self.len() as u64 - self.good_count()
    }

    /// Overall fraction of good transactions (`None` when empty).
    ///
    /// This is the paper's `p̂ = Σ G_i / n` estimator.
    pub fn p_hat(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.good_count() as f64 / self.len() as f64)
        }
    }

    /// The feedback at position `i` (transaction order).
    pub fn get(&self, i: usize) -> Option<&Feedback> {
        self.feedbacks.get(i)
    }

    /// The most recent feedback.
    pub fn last(&self) -> Option<&Feedback> {
        self.feedbacks.last()
    }

    /// All feedback records in transaction order.
    pub fn feedbacks(&self) -> &[Feedback] {
        &self.feedbacks
    }

    /// Iterates over feedback records in transaction order.
    pub fn iter(&self) -> std::slice::Iter<'_, Feedback> {
        self.feedbacks.iter()
    }

    /// Iterates over good/bad outcomes in transaction order.
    pub fn outcomes(&self) -> impl Iterator<Item = bool> + '_ {
        self.feedbacks.iter().map(|f| f.is_good())
    }

    /// Number of good transactions in the half-open range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (see [`PrefixSums::count_range`]).
    pub fn count_range(&self, start: usize, end: usize) -> u64 {
        self.prefix.count_range(start, end)
    }

    /// Fraction of good transactions in `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty range.
    pub fn rate_range(&self, start: usize, end: usize) -> Result<f64, StatsError> {
        self.prefix.rate_range(start, end)
    }

    /// Window counts of size `m` over `[start, end)`, aligned to `start`
    /// (trailing partial window dropped).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidCount`] if `m == 0`.
    pub fn window_counts(
        &self,
        start: usize,
        end: usize,
        m: usize,
    ) -> Result<Vec<u32>, StatsError> {
        self.prefix.window_counts(start, end, m)
    }

    /// Number of distinct feedback issuers — the size of the server's
    /// *supporter base* in the paper's §4 terminology (counting all
    /// issuers, not only positive ones; see
    /// [`crate::testing::SupporterBaseStats`] for the refined view).
    pub fn distinct_clients(&self) -> usize {
        self.by_client.len()
    }

    /// Number of feedbacks issued by `client`.
    pub fn client_count(&self, client: ClientId) -> usize {
        self.by_client.get(&client).map_or(0, Vec::len)
    }

    /// All `(client, feedback-count)` pairs, most frequent first.
    ///
    /// Ties are broken by client id so the ordering — and therefore the
    /// collusion-resilient test built on it — is deterministic.
    pub fn client_frequencies(&self) -> Vec<(ClientId, usize)> {
        let mut freqs: Vec<(ClientId, usize)> = self
            .by_client
            .iter()
            .map(|(&c, idxs)| (c, idxs.len()))
            .collect();
        freqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        freqs
    }

    /// The §4 issuer-frequency permutation: indexes of all feedback,
    /// grouped by issuer with the most frequent issuers first, and
    /// transaction order preserved inside each group.
    pub fn issuer_frequency_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        for (client, _) in self.client_frequencies() {
            order.extend_from_slice(&self.by_client[&client]);
        }
        order
    }

    /// Good/bad outcomes in issuer-frequency order — the sequence the
    /// collusion-resilient behavior test runs on.
    ///
    /// Rebuilds the permutation on every call; assessment paths should
    /// prefer [`HistoryView::reordered_column`], which caches it.
    pub fn reordered_outcomes(&self) -> Vec<bool> {
        self.issuer_frequency_order()
            .into_iter()
            .map(|i| self.feedbacks[i].is_good())
            .collect()
    }

    /// The ingest version — bumped on every push and pop.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many times this instance actually rebuilt the §4 reordering
    /// (cache-miss count; see [`HistoryView::reordered_column`]).
    pub fn reorder_recomputes(&self) -> u64 {
        self.reorder.lock().recomputes
    }

    /// Approximate heap bytes held by this history (hash-map entries
    /// estimated at 48 bytes each) — the reference number the columnar
    /// engine's memory wins are measured against.
    pub fn resident_bytes(&self) -> usize {
        self.feedbacks.len() * std::mem::size_of::<Feedback>()
            + (self.prefix.len() + 1) * 8
            + self
                .by_client
                .values()
                .map(|idxs| idxs.len() * 8)
                .sum::<usize>()
            + self.by_client.len() * 48
    }

    /// The server that this history belongs to, if non-empty and uniform.
    ///
    /// Returns `None` for an empty history or one that mixes servers
    /// (histories are normally per-server; mixing indicates a caller bug
    /// worth surfacing).
    pub fn server(&self) -> Option<ServerId> {
        let first = self.feedbacks.first()?.server;
        if self.feedbacks.iter().all(|f| f.server == first) {
            Some(first)
        } else {
            None
        }
    }
}

impl Clone for TransactionHistory {
    fn clone(&self) -> Self {
        TransactionHistory {
            feedbacks: self.feedbacks.clone(),
            prefix: self.prefix.clone(),
            by_client: self.by_client.clone(),
            version: self.version,
            // Keep the warm column (an Arc bump); the recompute counter
            // describes work done by *this* instance and resets.
            reorder: Mutex::new(ReorderCache {
                cached: self.reorder.lock().cached.clone(),
                recomputes: 0,
            }),
        }
    }
}

impl HistoryView for TransactionHistory {
    fn len(&self) -> usize {
        self.feedbacks.len()
    }

    fn outcome_prefix(&self) -> ColumnRef<'_> {
        ColumnRef::Prefix(&self.prefix)
    }

    fn issuer_groups(&self) -> Option<Vec<IssuerGroup>> {
        let mut groups: Vec<IssuerGroup> = self
            .by_client
            .iter()
            .map(|(&client, idxs)| IssuerGroup {
                client,
                count: idxs.len(),
                good: idxs
                    .iter()
                    .filter(|&&i| self.feedbacks[i].is_good())
                    .count(),
            })
            .collect();
        groups.sort_by(|a, b| b.count.cmp(&a.count).then(a.client.cmp(&b.client)));
        Some(groups)
    }

    fn reordered_column(&self) -> Option<Arc<PrefixSums>> {
        let mut cache = self.reorder.lock();
        if let Some((version, column)) = &cache.cached {
            if *version == self.version {
                return Some(Arc::clone(column));
            }
        }
        let column = Arc::new(PrefixSums::from_bools(self.reordered_outcomes()));
        cache.recomputes += 1;
        cache.cached = Some((self.version, Arc::clone(&column)));
        Some(column)
    }

    fn time(&self, i: usize) -> Option<u64> {
        self.feedbacks.get(i).map(|f| f.time)
    }

    fn server(&self) -> Option<ServerId> {
        TransactionHistory::server(self)
    }
}

impl FromIterator<Feedback> for TransactionHistory {
    fn from_iter<I: IntoIterator<Item = Feedback>>(iter: I) -> Self {
        let mut h = TransactionHistory::new();
        for f in iter {
            h.push(f);
        }
        h
    }
}

impl Extend<Feedback> for TransactionHistory {
    fn extend<I: IntoIterator<Item = Feedback>>(&mut self, iter: I) {
        for f in iter {
            self.push(f);
        }
    }
}

impl<'a> IntoIterator for &'a TransactionHistory {
    type Item = &'a Feedback;
    type IntoIter = std::slice::Iter<'a, Feedback>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(t: u64, client: u64, good: bool) -> Feedback {
        Feedback::new(
            t,
            ServerId::new(1),
            ClientId::new(client),
            Rating::from_good(good),
        )
    }

    #[test]
    fn push_maintains_counts() {
        let mut h = TransactionHistory::new();
        h.push(fb(0, 1, true));
        h.push(fb(1, 2, false));
        h.push(fb(2, 1, true));
        assert_eq!(h.len(), 3);
        assert_eq!(h.good_count(), 2);
        assert_eq!(h.bad_count(), 1);
        assert_eq!(h.p_hat(), Some(2.0 / 3.0));
        assert_eq!(h.distinct_clients(), 2);
        assert_eq!(h.client_count(ClientId::new(1)), 2);
    }

    #[test]
    fn pop_reverses_push_fully() {
        let mut h = TransactionHistory::new();
        h.push(fb(0, 1, true));
        let snapshot_len = h.len();
        let snapshot_clients = h.distinct_clients();
        h.push(fb(1, 9, false));
        let popped = h.pop().unwrap();
        assert_eq!(popped.client, ClientId::new(9));
        assert_eq!(h.len(), snapshot_len);
        assert_eq!(h.distinct_clients(), snapshot_clients);
        assert_eq!(h.client_count(ClientId::new(9)), 0);
        assert_eq!(h.good_count(), 1);
    }

    #[test]
    fn pop_empty_returns_none() {
        let mut h = TransactionHistory::new();
        assert!(h.pop().is_none());
    }

    #[test]
    fn from_outcomes_builds_sequential_history() {
        let h = TransactionHistory::from_outcomes(ServerId::new(3), [true, false, true]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.good_count(), 2);
        assert_eq!(h.get(1).unwrap().time, 1);
        assert_eq!(h.server(), Some(ServerId::new(3)));
    }

    #[test]
    fn range_statistics_match_direct_computation() {
        let outcomes = [true, true, false, true, false, false, true, true];
        let h = TransactionHistory::from_outcomes(ServerId::new(1), outcomes);
        assert_eq!(h.count_range(0, 8), 5);
        assert_eq!(h.count_range(2, 6), 1);
        assert!((h.rate_range(2, 6).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(h.window_counts(0, 8, 4).unwrap(), vec![3, 2]);
        // Offset windows (suffix view)
        assert_eq!(h.window_counts(2, 8, 3).unwrap(), vec![1, 2]);
    }

    #[test]
    fn client_frequencies_sorted_desc_with_stable_ties() {
        let mut h = TransactionHistory::new();
        for t in 0..3 {
            h.push(fb(t, 7, true));
        }
        for t in 3..5 {
            h.push(fb(t, 2, true));
        }
        for t in 5..7 {
            h.push(fb(t, 1, false));
        }
        let freqs = h.client_frequencies();
        assert_eq!(
            freqs,
            vec![
                (ClientId::new(7), 3),
                (ClientId::new(1), 2), // tie with client 2 broken by id
                (ClientId::new(2), 2),
            ]
        );
    }

    #[test]
    fn issuer_frequency_order_groups_and_preserves_time() {
        let mut h = TransactionHistory::new();
        h.push(fb(0, 5, true)); // idx 0
        h.push(fb(1, 9, false)); // idx 1
        h.push(fb(2, 5, true)); // idx 2
        h.push(fb(3, 5, false)); // idx 3
        h.push(fb(4, 9, true)); // idx 4
        let order = h.issuer_frequency_order();
        // client 5 (3 feedbacks) first, then client 9 (2), time order inside.
        assert_eq!(order, vec![0, 2, 3, 1, 4]);
        assert_eq!(h.reordered_outcomes(), vec![true, true, false, false, true]);
    }

    #[test]
    fn issuer_groups_match_frequencies_and_count_good() {
        let mut h = TransactionHistory::new();
        h.push(fb(0, 5, true));
        h.push(fb(1, 9, false));
        h.push(fb(2, 5, true));
        h.push(fb(3, 5, false));
        h.push(fb(4, 9, true));
        assert_eq!(
            h.issuer_groups().unwrap(),
            vec![
                IssuerGroup {
                    client: ClientId::new(5),
                    count: 3,
                    good: 2
                },
                IssuerGroup {
                    client: ClientId::new(9),
                    count: 2,
                    good: 1
                },
            ]
        );
    }

    #[test]
    fn reordered_column_cached_until_history_changes() {
        let mut h = TransactionHistory::new();
        for t in 0..12 {
            h.push(fb(t, t % 3, t % 4 != 0));
        }
        let a = h.reordered_column();
        let b = h.reordered_column();
        assert_eq!(h.reorder_recomputes(), 1, "second call must hit the cache");
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        let clone = h.clone();
        let _ = clone.reordered_column();
        assert_eq!(
            clone.reorder_recomputes(),
            0,
            "a clone inherits the warm column"
        );
        h.push(fb(12, 0, true));
        let _ = h.reordered_column();
        assert_eq!(h.reorder_recomputes(), 2, "push must invalidate");
        h.pop();
        let _ = h.reordered_column();
        assert_eq!(h.reorder_recomputes(), 3, "pop must invalidate");
    }

    #[test]
    fn reordered_column_matches_reordered_outcomes() {
        let mut h = TransactionHistory::new();
        for t in 0..30 {
            h.push(fb(t, t % 5, t % 3 == 0));
        }
        let col = h.reordered_column().unwrap();
        let expected = h.reordered_outcomes();
        assert_eq!(col.len(), expected.len());
        for (i, &good) in expected.iter().enumerate() {
            assert_eq!(col.count_range(i, i + 1) == 1, good, "position {i}");
        }
    }

    #[test]
    fn server_detects_mixed_histories() {
        let mut h = TransactionHistory::new();
        h.push(Feedback::new(
            0,
            ServerId::new(1),
            ClientId::new(1),
            Rating::Positive,
        ));
        h.push(Feedback::new(
            1,
            ServerId::new(2),
            ClientId::new(1),
            Rating::Positive,
        ));
        assert_eq!(h.server(), None);
        assert_eq!(TransactionHistory::new().server(), None);
    }

    #[test]
    fn collect_and_extend() {
        let h: TransactionHistory = (0..5).map(|t| fb(t, t, t % 2 == 0)).collect();
        assert_eq!(h.len(), 5);
        let mut h2 = TransactionHistory::new();
        h2.extend(h.iter().copied());
        assert_eq!(h2.len(), 5);
        assert_eq!(h2.good_count(), h.good_count());
    }

    #[test]
    fn outcomes_iterator_matches_feedback() {
        let h = TransactionHistory::from_outcomes(ServerId::new(1), [true, false]);
        let outs: Vec<bool> = h.outcomes().collect();
        assert_eq!(outs, vec![true, false]);
    }
}
