//! The storage abstraction behavior tests consume.

use hp_core::{Feedback, ServerId, TransactionHistory};

/// A store of feedback records, queryable per server.
///
/// Behavior tests and trust functions consume a [`TransactionHistory`];
/// any store that can materialize one per server can back the two-phase
/// pipeline, whether it is a central database, a DHT, or a lossy gossip
/// cache.
pub trait FeedbackStore {
    /// Records one feedback.
    fn append(&mut self, feedback: Feedback);

    /// The (possibly partial) transaction history of `server`, in
    /// transaction order. An unknown server yields an empty history.
    fn history_of(&self, server: ServerId) -> TransactionHistory;

    /// Total number of feedback records currently retrievable.
    fn len(&self) -> usize;

    /// Whether the store holds no retrievable feedback.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All servers with at least one retrievable feedback.
    fn servers(&self) -> Vec<ServerId>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;

    #[test]
    fn is_empty_default() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
    }
}
