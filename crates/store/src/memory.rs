//! The central-server store.

use crate::store::FeedbackStore;
use hp_core::{Feedback, ServerId, TransactionHistory};
use std::collections::BTreeMap;

/// An in-memory central feedback store — the "central server as in online
/// auction communities" regime of §2.
///
/// Keeps every feedback it is given, as rows in append order per server,
/// and [`MemoryStore::history_of`] hands a server's rows back as a
/// [`TransactionHistory`].
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
    rows: BTreeMap<ServerId, Vec<Feedback>>,
    len: usize,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// `server`'s rows in append order; empty for an unknown server.
    pub(crate) fn rows_of(&self, server: ServerId) -> &[Feedback] {
        self.rows.get(&server).map_or(&[], Vec::as_slice)
    }
}

impl FeedbackStore for MemoryStore {
    fn append(&mut self, feedback: Feedback) {
        self.rows.entry(feedback.server).or_default().push(feedback);
        self.len += 1;
    }

    fn history_of(&self, server: ServerId) -> TransactionHistory {
        let rows = self.rows_of(server);
        let mut history = TransactionHistory::with_capacity(rows.len());
        history.extend(rows.iter().copied());
        history
    }

    fn len(&self) -> usize {
        self.len
    }

    fn servers(&self) -> Vec<ServerId> {
        self.rows.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedStore, ShardedStoreConfig};
    use hp_core::{ClientId, Rating};
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Each server's records come back exactly as appended — times
        /// with gaps and repeats, issuers from a small pool, servers
        /// interleaved — and a server the store never saw is an empty
        /// history. A `ShardedStore` with no failed node fed the same
        /// stream hands back the same rows and the same `len()`.
        #[test]
        fn history_of_round_trips(
            pool in 1u64..=8,
            raw in proptest::collection::vec(
                (any::<bool>(), any::<u8>(), any::<u8>(), 0u64..3),
                0..300,
            ),
        ) {
            let mut time = 0u64;
            let stream: Vec<Feedback> = raw
                .into_iter()
                .map(|(good, client, gap, server)| {
                    time += u64::from(gap % 4);
                    Feedback::new(
                        time,
                        ServerId::new(server),
                        ClientId::new(u64::from(client) % pool),
                        Rating::from_good(good),
                    )
                })
                .collect();
            let mut store = MemoryStore::new();
            let mut sharded = ShardedStore::new(ShardedStoreConfig::default());
            for &f in &stream {
                store.append(f);
                sharded.append(f);
            }
            prop_assert_eq!(store.len(), stream.len());
            prop_assert_eq!(sharded.len(), stream.len());
            for server in (0..3).map(ServerId::new) {
                let expected: Vec<Feedback> =
                    stream.iter().copied().filter(|f| f.server == server).collect();
                prop_assert_eq!(store.history_of(server).feedbacks(), expected.as_slice());
                prop_assert_eq!(sharded.history_of(server).feedbacks(), expected.as_slice());
            }
            prop_assert!(store.history_of(ServerId::new(9)).is_empty());
            prop_assert!(sharded.history_of(ServerId::new(9)).is_empty());
        }
    }
}
