//! A P2P file-sharing network: feedback lives on a consistent-hash ring of
//! storage nodes (the paper's "special data organization schemes in P2P
//! systems"), nodes fail, and trust assessment keeps working on the
//! surviving replicas — and even on a partial sample of the feedback.
//!
//! ```text
//! cargo run --example p2p_file_sharing
//! ```

use honest_players::prelude::*;
use honest_players::sim::workload;
use honest_players::store::{NodeId, PartialStore, ShardedStore, ShardedStoreConfig};

fn main() -> Result<(), CoreError> {
    // --- 1. Seed the overlay with feedback for 40 peers -------------------
    let mut store = ShardedStore::new(ShardedStoreConfig {
        nodes: 12,
        replication: 3,
        vnodes: 64,
    });
    for peer in 0..40u64 {
        // Peers 0..35 are honest seeders with varying link quality; the
        // last five run a hibernating leech-and-cheat strategy.
        let history = if peer < 35 {
            let p = 0.85 + 0.01 * (peer % 15) as f64;
            workload::honest_history(600, p, peer)
        } else {
            workload::hibernating_history(550, 0.97, 50, peer)
        };
        for fb in history.iter() {
            store.append(Feedback::new(
                fb.time,
                ServerId::new(peer),
                fb.client,
                fb.rating,
            ));
        }
    }

    let assessor = TwoPhaseAssessor::new(
        MultiBehaviorTest::new(BehaviorTestConfig::default())?,
        BetaTrust::default(),
    );

    let classify = |store: &dyn FeedbackStore, label: &str| -> Result<(), CoreError> {
        let mut honest_pass = 0;
        let mut attackers_caught = 0;
        for peer in 0..40u64 {
            let history = store.history_of(ServerId::new(peer));
            if history.is_empty() {
                continue;
            }
            match assessor.assess(&history)? {
                Assessment::Rejected { .. } if peer >= 35 => attackers_caught += 1,
                Assessment::Accepted { .. } if peer < 35 => honest_pass += 1,
                _ => {}
            }
        }
        println!(
            "{label:45} honest accepted: {honest_pass}/35   attackers rejected: {attackers_caught}/5"
        );
        Ok(())
    };

    // --- 2. Assess with the full overlay healthy ---------------------------
    classify(&store, "healthy overlay (12 nodes, 3 replicas)")?;

    // --- 3. A third of the overlay goes down ------------------------------
    for node in [1u64, 4, 7, 10] {
        store.fail_node(NodeId::new(node));
    }
    classify(&store, "degraded overlay (4/12 nodes down)")?;
    for node in [1u64, 4, 7, 10] {
        store.heal_node(NodeId::new(node));
    }

    // --- 4. Assess through a partial-visibility vantage point --------------
    // A peer that can only reach 60% of the feedback still screens
    // correctly: an unbiased sample of an honest history is honest.
    let partial = PartialStore::new(store, 0.6, 42);
    classify(&partial, "partial visibility (60% of feedback)")?;

    Ok(())
}
