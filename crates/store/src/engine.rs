//! The columnar history engine every store retention policy shares.
//!
//! [`MemoryStore`](crate::MemoryStore) and
//! [`ShardedStore`](crate::ShardedStore) differ only in *which* servers are
//! retrievable at a given moment (all of them, vs. those with a live
//! replica). The feedback bits themselves live here, once, in
//! [`ColumnarHistory`] form: a bit-packed outcome column plus a
//! dictionary-encoded issuer column — per transaction an 8 B time, a 4 B
//! issuer code and 2 bits, plus ~21–27 B per distinct issuer — instead of
//! the 48 B per transaction of a materialized `Vec<Feedback>`.

use hp_core::{ColumnarHistory, Feedback, ServerId, TransactionHistory};
use std::collections::BTreeMap;

/// One columnar history per server, shared by every retention policy.
///
/// # Examples
///
/// ```
/// use hp_core::{ClientId, Feedback, Rating, ServerId};
/// use hp_store::HistoryEngine;
///
/// let mut engine = HistoryEngine::new();
/// let server = ServerId::new(3);
/// engine.ingest(Feedback::new(0, server, ClientId::new(1), Rating::Positive));
/// engine.ingest(Feedback::new(1, server, ClientId::new(2), Rating::Negative));
/// assert_eq!(engine.len(), 2);
/// assert_eq!(engine.materialize(server).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryEngine {
    histories: BTreeMap<ServerId, ColumnarHistory>,
    total: usize,
}

impl HistoryEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        HistoryEngine::default()
    }

    /// Appends one feedback to its server's columns.
    pub fn ingest(&mut self, feedback: Feedback) {
        self.histories
            .entry(feedback.server)
            .or_insert_with(ColumnarHistory::with_times)
            .push(feedback);
        self.total += 1;
    }

    /// Borrowed (zero-copy) access to a server's columns, if any.
    pub fn history(&self, server: ServerId) -> Option<&ColumnarHistory> {
        self.histories.get(&server)
    }

    /// Reconstructs a server's history as the row-oriented
    /// [`TransactionHistory`], exactly as ingested. An unknown server
    /// yields an empty history.
    pub fn materialize(&self, server: ServerId) -> TransactionHistory {
        self.histories
            .get(&server)
            .map(ColumnarHistory::materialize)
            .unwrap_or_default()
    }

    /// Total feedback records ingested.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the engine holds no feedback.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// All servers with at least one record, ascending.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.histories.keys().copied()
    }

    /// Approximate resident bytes across all servers' columns.
    pub fn resident_bytes(&self) -> usize {
        self.histories
            .values()
            .map(ColumnarHistory::resident_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::{ClientId, HistoryView, Rating};

    fn fb(t: u64, server: u64, good: bool) -> Feedback {
        Feedback::new(
            t,
            ServerId::new(server),
            ClientId::new(t % 5),
            Rating::from_good(good),
        )
    }

    #[test]
    fn ingest_routes_by_server() {
        let mut engine = HistoryEngine::new();
        engine.ingest(fb(0, 1, true));
        engine.ingest(fb(1, 2, false));
        engine.ingest(fb(2, 1, true));
        assert_eq!(engine.len(), 3);
        assert_eq!(engine.materialize(ServerId::new(1)).len(), 2);
        assert_eq!(engine.materialize(ServerId::new(2)).len(), 1);
        assert!(engine.materialize(ServerId::new(3)).is_empty());
    }

    #[test]
    fn materialize_round_trips_exact_records() {
        let mut engine = HistoryEngine::new();
        let records: Vec<Feedback> = (0..130).map(|t| fb(t, 7, t % 3 != 0)).collect();
        for &f in &records {
            engine.ingest(f);
        }
        let history = engine.materialize(ServerId::new(7));
        assert_eq!(history.feedbacks(), &records[..]);
    }

    #[test]
    fn borrowed_history_answers_queries_without_materializing() {
        let mut engine = HistoryEngine::new();
        for t in 0..200 {
            engine.ingest(fb(t, 4, t % 4 != 0));
        }
        let cols = engine.history(ServerId::new(4)).unwrap();
        assert_eq!(cols.len(), 200);
        assert_eq!(cols.good_count(), 150);
        assert_eq!(cols.count_range(0, 8), 6);
    }

    #[test]
    fn resident_bytes_stays_columnar_sized() {
        let mut engine = HistoryEngine::new();
        for t in 0..10_000 {
            engine.ingest(fb(t, 1, t % 9 != 0));
        }
        // 12.3 B/txn of payload (8 B time + 4 B issuer code + outcome and
        // prefix bits) plus allocation slack (the time column doubles) —
        // under half of the 48 B row form.
        let per_txn = engine.resident_bytes() as f64 / 10_000.0;
        assert!(per_txn < 20.0, "{per_txn} bytes/txn");
    }
}
