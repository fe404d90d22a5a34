//! The columnar history engine every store retention policy shares.
//!
//! [`MemoryStore`](crate::MemoryStore) and
//! [`ShardedStore`](crate::ShardedStore) differ only in *which* servers are
//! retrievable at a given moment (all of them, vs. those with a live
//! replica). The feedback itself lives here, once, as three columns per
//! server: the bit-packed outcome column the online service runs, and
//! beside it the issuer and time columns a store needs to hand back
//! exact records, which the service's histories do not keep. Per
//! transaction an 8 B time and 3 bits, plus a code of a couple of bytes
//! if the issuer repeats, and ~8 B per distinct issuer — instead of the
//! 48 B per transaction of a materialized `Vec<Feedback>`.

use crate::issuers::IssuerColumn;
use hp_core::history::BitColumn;
use hp_core::{Feedback, Rating, ServerId, TransactionHistory};
use std::collections::BTreeMap;

/// One server's columns, in ingest order.
#[derive(Debug, Clone, Default)]
struct ServerColumns {
    outcomes: BitColumn,
    issuers: IssuerColumn,
    times: Vec<u64>,
}

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
    servers: BTreeMap<ServerId, ServerColumns>,
    total: usize,
}

impl HistoryEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        HistoryEngine::default()
    }

    /// Appends one feedback to its server's columns.
    pub fn ingest(&mut self, feedback: Feedback) {
        let columns = self.servers.entry(feedback.server).or_default();
        columns.outcomes.push(feedback.is_good());
        columns.issuers.push(feedback.client);
        columns.times.push(feedback.time);
        self.total += 1;
    }

    /// Reconstructs a server's history as the row-oriented
    /// [`TransactionHistory`], exactly as ingested. An unknown server
    /// yields an empty history.
    pub fn materialize(&self, server: ServerId) -> TransactionHistory {
        let Some(columns) = self.servers.get(&server) else {
            return TransactionHistory::new();
        };
        let mut rows = TransactionHistory::with_capacity(columns.times.len());
        for (i, (&time, client)) in columns
            .times
            .iter()
            .zip(columns.issuers.issuers())
            .enumerate()
        {
            let rating = Rating::from_good(columns.outcomes.get(i));
            rows.push(Feedback::new(time, server, client, rating));
        }
        rows
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
        self.servers.keys().copied()
    }

    /// Approximate resident bytes across all servers' columns, the time
    /// column included.
    pub fn resident_bytes(&self) -> usize {
        self.servers
            .values()
            .map(|c| {
                c.outcomes.resident_bytes() + c.issuers.resident_bytes() + c.times.capacity() * 8
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::ClientId;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Each server's records come back exactly as ingested — times
        /// with gaps and repeats, issuers from a small pool (so codes
        /// repeat), servers interleaved — and a server the engine never
        /// saw is an empty history.
        #[test]
        fn materialize_round_trips(
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
            let mut engine = HistoryEngine::new();
            for &f in &stream {
                engine.ingest(f);
            }
            prop_assert_eq!(engine.len(), stream.len());
            for server in (0..3).map(ServerId::new) {
                let expected: Vec<Feedback> =
                    stream.iter().copied().filter(|f| f.server == server).collect();
                let rows = engine.materialize(server);
                prop_assert_eq!(rows.feedbacks(), expected.as_slice());
            }
            prop_assert!(engine.materialize(ServerId::new(9)).is_empty());
        }
    }

    #[test]
    fn resident_bytes_stays_columnar_sized() {
        let mut engine = HistoryEngine::new();
        for t in 0..10_000 {
            engine.ingest(fb(t, 1, t % 9 != 0));
        }
        // 10.4 B/txn of payload (8 B time + 2 B issuer code + outcome,
        // prefix and first-seen bits) plus allocation slack (the time
        // column doubles) — under half of the 48 B row form.
        let per_txn = engine.resident_bytes() as f64 / 10_000.0;
        assert!(per_txn < 20.0, "{per_txn} bytes/txn");
    }
}
