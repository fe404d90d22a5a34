//! Service-vs-offline equivalence: the incremental, sharded, cached
//! online path must produce **bit-identical** assessments — same variant,
//! same trust value, same phase-1 report — to a from-scratch
//! `hp_core::twophase` assessment of the same history.
//!
//! Strategy space: random honest histories (varying p), hibernating
//! attackers, periodic attackers, random batch splits, both trust models,
//! all short-history policies, interleaved multi-server ingest.

use hp_core::testing::BehaviorTestConfig;
use hp_core::twophase::{Assessment, ShortHistoryPolicy};
use hp_core::{Feedback, ServerId, TransactionHistory};
use hp_service::replay::{restamp, OfflineReference};
use hp_service::{ReputationService, ServiceConfig, SurfaceParams, TieringPolicy, TrustModel};
use hp_sim::workload;
use proptest::prelude::*;
use std::sync::Arc;

/// A fast but real behavior-test configuration (fewer Monte-Carlo trials;
/// still the exact shared deterministic calibration seed, so the service
/// and the reference compute identical thresholds).
fn fast_test_config() -> BehaviorTestConfig {
    BehaviorTestConfig::builder()
        .calibration_trials(300)
        .build()
        .expect("valid test config")
}

fn service_config(shards: usize, model: TrustModel, policy: ShortHistoryPolicy) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(shards)
        .with_test(fast_test_config())
        .with_trust(model)
        .with_short_history(policy)
        .with_calibration_surface(None) // keep property cases fast
}

fn model_from(selector: u8, lambda: f64) -> TrustModel {
    if selector.is_multiple_of(2) {
        TrustModel::Average
    } else {
        TrustModel::Weighted { lambda }
    }
}

fn policy_from(selector: u8) -> ShortHistoryPolicy {
    match selector % 3 {
        0 => ShortHistoryPolicy::Review,
        1 => ShortHistoryPolicy::Trust,
        _ => ShortHistoryPolicy::Reject,
    }
}

fn history_from(kind: u8, len: usize, p: f64, seed: u64) -> TransactionHistory {
    match kind % 3 {
        0 => workload::honest_history(len, p, seed),
        1 => {
            let attacks = (len / 5).max(1);
            workload::hibernating_history(len.saturating_sub(attacks), p, attacks, seed)
        }
        _ => workload::periodic_history(len, 10, 0.1, seed),
    }
}

/// Ingests `feedbacks` into `service` split at pseudo-random batch
/// boundaries derived from `split_seed`.
fn ingest_in_random_batches(
    service: &ReputationService,
    mut feedbacks: Vec<Feedback>,
    split_seed: u64,
) {
    let mut state = split_seed | 1;
    while !feedbacks.is_empty() {
        // xorshift64 for cheap deterministic split sizes in [1, 97].
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let take = 1 + (state % 97) as usize;
        let rest = feedbacks.split_off(take.min(feedbacks.len()));
        let batch = std::mem::replace(&mut feedbacks, rest);
        service
            .ingest_batch(batch)
            .expect("ingest must not fail in-process");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One server, arbitrary history and model: online verdict ==
    /// offline verdict, bit for bit (PartialEq on Assessment compares the
    /// trust float and the full report).
    #[test]
    fn single_server_matches_offline(
        kind in any::<u8>(),
        len in 0usize..900,
        p in 0.6f64..0.99,
        seed in any::<u64>(),
        split_seed in any::<u64>(),
        model_sel in any::<u8>(),
        lambda in 0.05f64..1.0,
        policy_sel in any::<u8>(),
        shards in 1usize..5,
    ) {
        let model = model_from(model_sel, lambda);
        let policy = policy_from(policy_sel);
        let config = service_config(shards, model, policy);
        let service = ReputationService::new(config.clone()).expect("service starts");
        let reference = OfflineReference::from_config(&config).expect("reference builds");

        let history = history_from(kind, len, p, seed);
        let server = ServerId::new(seed);
        let feedbacks = restamp(&history, server);
        let mut offline_history = TransactionHistory::with_capacity(feedbacks.len());
        for f in &feedbacks {
            offline_history.push(*f);
        }

        ingest_in_random_batches(&service, feedbacks, split_seed);
        let online = service.assess(server).expect("assess succeeds");
        let offline = reference.assess(&offline_history).expect("offline succeeds");
        prop_assert_eq!(*online, offline);
    }

    /// Several servers interleaved through the same service, assessed
    /// both singly and via `assess_many`, with cached re-assessment: all
    /// answers equal the offline reference.
    #[test]
    fn interleaved_servers_match_offline(
        base_seed in any::<u64>(),
        split_seed in any::<u64>(),
        servers in 2usize..7,
        len in 50usize..400,
        model_sel in any::<u8>(),
        lambda in 0.05f64..1.0,
    ) {
        let model = model_from(model_sel, lambda);
        let config = service_config(3, model, ShortHistoryPolicy::Review);
        let service = ReputationService::new(config.clone()).expect("service starts");
        let reference = OfflineReference::from_config(&config).expect("reference builds");

        let mut streams = Vec::new();
        for i in 0..servers {
            let seed = hp_stats::derive_seed(base_seed, i as u64);
            let history = history_from(i as u8, len + i * 13, 0.9, seed);
            let id = ServerId::new(i as u64);
            streams.push((id, restamp(&history, id)));
        }

        // Interleave: round-robin one feedback at a time into one big
        // stream, then split into random batches.
        let mut interleaved = Vec::new();
        let longest = streams.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        for i in 0..longest {
            for (_, stream) in &streams {
                if let Some(f) = stream.get(i) {
                    interleaved.push(*f);
                }
            }
        }
        ingest_in_random_batches(&service, interleaved, split_seed);

        let ids: Vec<ServerId> = streams.iter().map(|(id, _)| *id).collect();
        let batched = service.assess_many(&ids).expect("assess_many succeeds");
        for ((id, stream), (answered_id, answer)) in streams.iter().zip(&batched) {
            prop_assert_eq!(id, answered_id);
            let mut offline_history = TransactionHistory::with_capacity(stream.len());
            for f in stream {
                offline_history.push(*f);
            }
            let offline = reference.assess(&offline_history).expect("offline succeeds");
            let online = answer.clone().expect("per-server assess succeeds");
            prop_assert_eq!(&*online, &offline);
            // Second query must be served from cache with the same answer.
            let again = service.assess(*id).expect("cached assess succeeds");
            prop_assert_eq!(&*again, &offline);
        }
    }

    /// Incrementality across assessments: assessing, ingesting more, and
    /// assessing again always agrees with a from-scratch assessment of
    /// the grown history (the cache is correctly invalidated and the
    /// streaming trust state never drifts).
    #[test]
    fn grow_and_reassess_matches_offline(
        seed in any::<u64>(),
        first in 10usize..300,
        second in 1usize..300,
        p in 0.7f64..0.99,
        lambda in 0.05f64..1.0,
    ) {
        let model = TrustModel::Weighted { lambda };
        let config = service_config(2, model, ShortHistoryPolicy::Review);
        let service = ReputationService::new(config.clone()).expect("service starts");
        let reference = OfflineReference::from_config(&config).expect("reference builds");

        let server = ServerId::new(7);
        let full = restamp(&workload::honest_history(first + second, p, seed), server);

        let mut offline_history = TransactionHistory::with_capacity(first);
        for f in &full[..first] {
            offline_history.push(*f);
        }
        service.ingest_batch(full[..first].to_vec()).expect("ingest");
        prop_assert_eq!(
            *service.assess(server).expect("assess"),
            reference.assess(&offline_history).expect("offline")
        );

        for f in &full[first..] {
            offline_history.push(*f);
        }
        service.ingest_batch(full[first..].to_vec()).expect("ingest");
        prop_assert_eq!(
            *service.assess(server).expect("assess"),
            reference.assess(&offline_history).expect("offline")
        );
    }
}

/// A marketplace fed through `service` as live traffic would arrive:
/// `honest` honest servers (p cycling 0.85, 0.9, 0.95), then `attackers`
/// hibernating and `attackers` periodic ones, `len` transactions each,
/// interleaved round-robin into batches of `batch`. Returns, per server,
/// whether it is honest, its online verdict and the offline reference's.
fn replay_marketplace(
    service: &ReputationService,
    (honest, attackers, len, batch): (usize, usize, usize, usize),
) -> Vec<(bool, Arc<Assessment>, Assessment)> {
    let seed = |i: usize| hp_stats::derive_seed(0x5EED_4E91, i as u64);
    let streams: Vec<(bool, Vec<Feedback>)> = (0..honest + 2 * attackers)
        .map(|i| {
            let history = if i < honest {
                workload::honest_history(len, [0.85, 0.9, 0.95][i % 3], seed(i))
            } else if i < honest + attackers {
                workload::hibernating_history(len - len / 4, 0.95, len / 4, seed(i))
            } else {
                workload::periodic_history(len, 10, 0.1, seed(i))
            };
            (i < honest, restamp(&history, ServerId::new(i as u64)))
        })
        .collect();
    let longest = streams.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let interleaved: Vec<Feedback> = (0..longest)
        .flat_map(|t| streams.iter().filter_map(move |(_, s)| s.get(t).copied()))
        .collect();
    for chunk in interleaved.chunks(batch) {
        let outcome = service.ingest_batch(chunk.to_vec()).unwrap();
        assert_eq!(outcome.accepted, chunk.len());
    }
    let servers: Vec<ServerId> = (0..streams.len() as u64).map(ServerId::new).collect();
    let reference = OfflineReference::from_config(service.config()).expect("reference builds");
    let online = service.assess_many(&servers).expect("assess_many succeeds");
    online
        .into_iter()
        .zip(&streams)
        .map(|((_, verdict), (honest, stream))| {
            let mut history = TransactionHistory::with_capacity(stream.len());
            stream.iter().for_each(|f| history.push(*f));
            let offline = reference.assess(&history).expect("offline succeeds");
            let online = verdict.expect("per-server assess succeeds");
            (*honest, online, offline)
        })
        .collect()
}

#[test]
fn replay_matches_offline_and_detects() {
    let config = service_config(2, TrustModel::default(), ShortHistoryPolicy::default()).with_test(
        BehaviorTestConfig::builder()
            .calibration_trials(500)
            .build()
            .unwrap(),
    );
    let service = ReputationService::new(config).unwrap();
    let verdicts = replay_marketplace(&service, (6, 2, 400, 64));
    assert_eq!(verdicts.len(), 10);
    assert_eq!(service.stats().ingested_feedbacks, 4000);
    for (_, online, offline) in &verdicts {
        assert_eq!(**online, *offline, "online and offline verdicts diverged");
    }
    // (rejected, accepted) among one class; review verdicts count for neither.
    let tally = |honest: bool| {
        let class = verdicts.iter().filter(|(h, ..)| *h == honest);
        let rejected = class.clone().filter(|(_, v, _)| v.is_rejected()).count();
        (rejected, class.filter(|(_, v, _)| v.is_accepted()).count())
    };
    let (caught, missed) = tally(false);
    assert!(
        caught > missed,
        "attackers rejected {caught}, accepted {missed}"
    );
    let (false_positives, passed) = tally(true);
    assert!(
        false_positives < passed,
        "honest rejected {false_positives}, accepted {passed}"
    );
}

/// Everything at its default but the trial count (and the tolerance so
/// few trials need for a layer to serve), plus a horizon: 250 windows is
/// deep enough for the surface to answer, and for the horizon to cut
/// suffixes a reference without it would test.
#[test]
fn the_reference_of_a_default_shaped_service_runs_its_surface_and_horizon() {
    let surface = SurfaceParams {
        tolerance: 10.0,
        ..SurfaceParams::default()
    };
    let tiering = TieringPolicy {
        horizon: 1500,
        spill_budget_bytes: None,
    };
    let config = ServiceConfig::default()
        .with_shards(2)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(200)
                .build()
                .unwrap(),
        )
        .with_calibration_surface(Some(surface))
        .with_tiering(tiering);
    let service = ReputationService::new(config).unwrap();
    for (_, online, offline) in replay_marketplace(&service, (4, 1, 2500, 256)) {
        assert_eq!(*online, offline);
    }
    assert!(service.stats().calibration_surface_hits > 0);
}
