//! A sharded, replicated feedback store — the P2P regime.

use crate::memory::MemoryStore;
use crate::ring::{HashRing, NodeId};
use crate::store::FeedbackStore;
use hp_core::{Feedback, ServerId, TransactionHistory};
use std::collections::BTreeSet;

/// Configuration for [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedStoreConfig {
    /// Number of storage nodes.
    pub nodes: u32,
    /// Replication factor: each server's feedback stream is stored on this
    /// many distinct nodes.
    pub replication: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes: u32,
}

impl Default for ShardedStoreConfig {
    fn default() -> Self {
        ShardedStoreConfig {
            nodes: 8,
            replication: 2,
            vnodes: 32,
        }
    }
}

/// A feedback store sharded over a consistent-hash ring of nodes — a
/// simulation stand-in for "special data organization schemes in P2P
/// systems" (§2, citing P-Grid).
///
/// Each server's feedback stream is placed on `replication` distinct nodes.
/// Nodes can *fail* ([`ShardedStore::fail_node`]); queries then fall back
/// to surviving replicas, and only lose data once every replica of a
/// stream is down — letting integration tests exercise the paper's partial-
/// retrieval claim end to end.
///
/// Since every replica of a stream receives the identical write sequence,
/// the rows are held once, in one [`MemoryStore`]; the ring and failure
/// set decide only whether a stream is currently *retrievable*.
///
/// # Examples
///
/// ```
/// use hp_core::{ClientId, Feedback, Rating, ServerId};
/// use hp_store::{FeedbackStore, ShardedStore, ShardedStoreConfig};
///
/// let mut store = ShardedStore::new(ShardedStoreConfig::default());
/// let server = ServerId::new(1);
/// for t in 0..10u64 {
///     store.append(Feedback::new(t, server, ClientId::new(t), Rating::Positive));
/// }
/// assert_eq!(store.history_of(server).len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedStore {
    ring: HashRing,
    replication: usize,
    rows: MemoryStore,
    failed: BTreeSet<NodeId>,
}

impl ShardedStore {
    /// Creates a sharded store with `config.nodes` live nodes.
    pub fn new(config: ShardedStoreConfig) -> Self {
        let mut ring = HashRing::new(config.vnodes);
        for n in 0..config.nodes as u64 {
            ring.add_node(NodeId::new(n));
        }
        ShardedStore {
            ring,
            replication: config.replication.max(1),
            rows: MemoryStore::new(),
            failed: BTreeSet::new(),
        }
    }

    /// Marks a node as failed: its replicas become unreachable until
    /// [`ShardedStore::heal_node`].
    pub fn fail_node(&mut self, node: NodeId) {
        self.failed.insert(node);
    }

    /// Brings a failed node back (its data was retained, as for a
    /// transient partition).
    pub fn heal_node(&mut self, node: NodeId) {
        self.failed.remove(&node);
    }

    /// Currently failed nodes.
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.failed.iter().copied()
    }

    /// The replica nodes responsible for `server` (alive or not).
    pub fn replicas_for(&self, server: ServerId) -> Vec<NodeId> {
        self.ring.nodes_for(server.value(), self.replication)
    }

    fn live_replica(&self, server: ServerId) -> Option<NodeId> {
        self.replicas_for(server)
            .into_iter()
            .find(|n| !self.failed.contains(n))
    }
}

impl FeedbackStore for ShardedStore {
    fn append(&mut self, feedback: Feedback) {
        // Every responsible replica receives the write, including currently
        // failed ones (a real system would hand off; retaining the write
        // models the post-recovery state and keeps replicas consistent) —
        // which is exactly why one canonical copy of the rows suffices.
        self.rows.append(feedback);
    }

    fn history_of(&self, server: ServerId) -> TransactionHistory {
        match self.live_replica(server) {
            Some(_) => self.rows.history_of(server),
            None => TransactionHistory::new(),
        }
    }

    fn len(&self) -> usize {
        self.servers()
            .into_iter()
            .map(|s| self.rows.rows_of(s).len())
            .sum()
    }

    fn servers(&self) -> Vec<ServerId> {
        self.rows
            .servers()
            .into_iter()
            .filter(|&s| self.live_replica(s).is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::{ClientId, Rating};

    fn store() -> ShardedStore {
        ShardedStore::new(ShardedStoreConfig {
            nodes: 6,
            replication: 2,
            vnodes: 32,
        })
    }

    fn fill(store: &mut ShardedStore, servers: u64, per_server: u64) {
        for s in 0..servers {
            for t in 0..per_server {
                store.append(Feedback::new(
                    t,
                    ServerId::new(s),
                    ClientId::new(t % 5),
                    Rating::from_good(t % 7 != 0),
                ));
            }
        }
    }

    #[test]
    fn histories_survive_single_node_failure() {
        let mut st = store();
        fill(&mut st, 20, 30);
        // Fail each node in turn; every server must stay fully readable
        // because replication = 2 and only one node is down.
        for n in 0..6u64 {
            st.fail_node(NodeId::new(n));
            for s in 0..20u64 {
                assert_eq!(
                    st.history_of(ServerId::new(s)).len(),
                    30,
                    "server {s} with node {n} down"
                );
            }
            st.heal_node(NodeId::new(n));
        }
    }

    #[test]
    fn history_lost_only_when_all_replicas_down() {
        let mut st = store();
        fill(&mut st, 10, 10);
        let server = ServerId::new(3);
        let replicas = st.replicas_for(server);
        assert_eq!(replicas.len(), 2);
        st.fail_node(replicas[0]);
        assert_eq!(st.history_of(server).len(), 10, "one replica survives");
        st.fail_node(replicas[1]);
        assert!(st.history_of(server).is_empty(), "all replicas down");
        // `len` counts the records of the servers a live replica serves.
        assert!(!st.servers().contains(&server));
        assert_eq!(st.len(), st.servers().len() * 10);
        st.heal_node(replicas[0]);
        assert_eq!(st.history_of(server).len(), 10, "recovery restores data");
        assert_eq!(st.len(), 100);
    }

    #[test]
    fn order_preserved_across_sharding() {
        let mut st = store();
        fill(&mut st, 1, 50);
        let h = st.history_of(ServerId::new(0));
        let times: Vec<u64> = h.iter().map(|f| f.time).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(h.len(), 50);
    }

    #[test]
    fn servers_enumeration_respects_failures() {
        let mut st = store();
        fill(&mut st, 8, 5);
        assert_eq!(st.servers().len(), 8);
        // Fail every node: nothing is listed.
        for n in 0..6u64 {
            st.fail_node(NodeId::new(n));
        }
        assert!(st.servers().is_empty());
        assert_eq!(st.len(), 0);
        assert!(st.is_empty());
    }

    #[test]
    fn len_counts_logical_records_not_replicas() {
        let mut st = store();
        fill(&mut st, 2, 10);
        assert_eq!(st.len(), 20);
    }

    #[test]
    fn behaves_like_memory_store_for_queries() {
        use crate::MemoryStore;
        let mut sharded = store();
        let mut central = MemoryStore::new();
        for s in 0..5u64 {
            for t in 0..40u64 {
                let fb = Feedback::new(
                    t,
                    ServerId::new(s),
                    ClientId::new(t % 3),
                    Rating::from_good((t + s) % 5 != 0),
                );
                sharded.append(fb);
                central.append(fb);
            }
        }
        for s in 0..5u64 {
            let a = sharded.history_of(ServerId::new(s));
            let b = central.history_of(ServerId::new(s));
            assert_eq!(a.feedbacks(), b.feedbacks(), "server {s}");
        }
    }
}
