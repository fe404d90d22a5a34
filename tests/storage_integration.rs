//! Behavior testing over every storage regime the paper assumes:
//! central server, P2P sharding with failures, and partial visibility.

use honest_players::prelude::*;
use honest_players::sim::workload;
use honest_players::store::{NodeId, PartialStore, ShardedStore, ShardedStoreConfig};

fn fast_config() -> BehaviorTestConfig {
    BehaviorTestConfig::builder()
        .calibration_trials(500)
        .build()
        .unwrap()
}

fn populate<S: FeedbackStore>(store: &mut S) {
    // Servers 0..8 honest; servers 8..10 hibernating attackers.
    for s in 0..10u64 {
        let history = if s < 8 {
            workload::honest_history(600, 0.9, s)
        } else {
            workload::hibernating_history(560, 0.95, 40, s)
        };
        for fb in history.iter() {
            store.append(Feedback::new(
                fb.time,
                ServerId::new(s),
                fb.client,
                fb.rating,
            ));
        }
    }
}

fn classify<S: FeedbackStore>(store: &S) -> (usize, usize) {
    let test = MultiBehaviorTest::new(fast_config()).unwrap();
    let mut honest_ok = 0;
    let mut attackers_caught = 0;
    for s in 0..10u64 {
        let history = store.history_of(ServerId::new(s));
        if history.is_empty() {
            continue;
        }
        let suspicious = test.evaluate(&history).unwrap().outcome() == TestOutcome::Suspicious;
        if s < 8 && !suspicious {
            honest_ok += 1;
        }
        if s >= 8 && suspicious {
            attackers_caught += 1;
        }
    }
    (honest_ok, attackers_caught)
}

#[test]
fn central_store_classification() {
    let mut store = MemoryStore::new();
    populate(&mut store);
    let (honest_ok, caught) = classify(&store);
    assert!(honest_ok >= 7, "honest pass {honest_ok}/8");
    assert_eq!(caught, 2, "attackers caught {caught}/2");
}

#[test]
fn sharded_store_classification_survives_failures() {
    let mut store = ShardedStore::new(ShardedStoreConfig {
        nodes: 10,
        replication: 3,
        vnodes: 48,
    });
    populate(&mut store);

    let healthy = classify(&store);
    store.fail_node(NodeId::new(2));
    store.fail_node(NodeId::new(5));
    let degraded = classify(&store);
    assert_eq!(
        healthy, degraded,
        "classification must be identical on surviving replicas"
    );
}

#[test]
fn partial_visibility_preserves_classification() {
    let mut inner = MemoryStore::new();
    populate(&mut inner);
    let store = PartialStore::new(inner, 0.6, 99);
    let (honest_ok, caught) = classify(&store);
    // An unbiased 60% sample preserves the distributions; a burst of
    // cheating survives subsampling too (24 of 40 bad expected visible).
    assert!(honest_ok >= 7, "honest pass {honest_ok}/8 under sampling");
    assert!(caught >= 1, "attackers caught {caught}/2 under sampling");
}

#[test]
fn sharded_and_central_agree_bit_for_bit() {
    let mut central = MemoryStore::new();
    let mut sharded = ShardedStore::new(ShardedStoreConfig::default());
    populate(&mut central);
    populate(&mut sharded);
    let test = SingleBehaviorTest::new(fast_config()).unwrap();
    for s in 0..10u64 {
        let a = test
            .evaluate(&central.history_of(ServerId::new(s)))
            .unwrap();
        let b = test
            .evaluate(&sharded.history_of(ServerId::new(s)))
            .unwrap();
        assert_eq!(a, b, "server {s}");
    }
}

#[test]
fn recent_of_supports_windowed_trust() {
    let mut store = MemoryStore::new();
    populate(&mut store);
    let recent = store.recent_of(ServerId::new(8), 40);
    assert_eq!(recent.len(), 40);
    // Server 8 is the hibernator: its recent window is the attack spree.
    assert_eq!(recent.good_count(), 0);
    let windowed = WindowedAverageTrust::new(40).unwrap();
    let full = store.history_of(ServerId::new(8));
    assert_eq!(
        windowed.trust(&full).value(),
        recent.p_hat().unwrap(),
        "windowed trust over the full history equals the average of recent_of"
    );
}
