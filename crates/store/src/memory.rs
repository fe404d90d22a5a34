//! The central-server store.

use crate::engine::HistoryEngine;
use crate::store::FeedbackStore;
use hp_core::{Feedback, ServerId, TransactionHistory};

/// An in-memory central feedback store — the "central server as in online
/// auction communities" regime of §2.
///
/// A thin retention policy (retain everything) over the columnar
/// [`HistoryEngine`]: feedback is held bit-packed per server, and
/// [`MemoryStore::history_of`] materializes rows on demand.
///
/// # Examples
///
/// ```
/// use hp_core::{ClientId, Feedback, Rating, ServerId};
/// use hp_store::{FeedbackStore, MemoryStore};
///
/// let mut store = MemoryStore::new();
/// store.append(Feedback::new(0, ServerId::new(9), ClientId::new(1), Rating::Positive));
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.servers(), vec![ServerId::new(9)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    engine: HistoryEngine,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// Approximate resident bytes of all stored columns.
    pub fn resident_bytes(&self) -> usize {
        self.engine.resident_bytes()
    }
}

impl FeedbackStore for MemoryStore {
    fn append(&mut self, feedback: Feedback) {
        self.engine.ingest(feedback);
    }

    fn history_of(&self, server: ServerId) -> TransactionHistory {
        self.engine.materialize(server)
    }

    fn len(&self) -> usize {
        self.engine.len()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.engine.servers().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::{ClientId, Rating};

    fn fb(t: u64, server: u64, good: bool) -> Feedback {
        Feedback::new(
            t,
            ServerId::new(server),
            ClientId::new(t % 7),
            Rating::from_good(good),
        )
    }

    #[test]
    fn append_routes_by_server() {
        let mut store = MemoryStore::new();
        store.append(fb(0, 1, true));
        store.append(fb(1, 2, false));
        store.append(fb(2, 1, true));
        assert_eq!(store.len(), 3);
        assert_eq!(store.history_of(ServerId::new(1)).len(), 2);
        assert_eq!(store.history_of(ServerId::new(2)).len(), 1);
        assert_eq!(store.history_of(ServerId::new(3)).len(), 0);
    }

    #[test]
    fn histories_preserve_order() {
        let mut store = MemoryStore::new();
        for t in 0..20 {
            store.append(fb(t, 1, t % 3 == 0));
        }
        let h = store.history_of(ServerId::new(1));
        let times: Vec<u64> = h.iter().map(|f| f.time).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn servers_listing_is_sorted_and_deduped() {
        let mut store = MemoryStore::new();
        store.append(fb(0, 5, true));
        store.append(fb(1, 2, true));
        store.append(fb(2, 5, true));
        assert_eq!(store.servers(), vec![ServerId::new(2), ServerId::new(5)]);
    }

    #[test]
    fn columnar_retention_undercuts_row_storage() {
        let mut store = MemoryStore::new();
        for t in 0..10_000 {
            store.append(fb(t, 1, t % 6 != 0));
        }
        let materialized = store.history_of(ServerId::new(1));
        assert!(
            store.resident_bytes() * 2 < materialized.resident_bytes(),
            "columnar {} vs rows {}",
            store.resident_bytes(),
            materialized.resident_bytes()
        );
    }
}
