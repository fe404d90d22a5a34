//! Chaos tests: deterministic fault injection against the live service.
//!
//! Every test asserts the fault-tolerance invariant end to end: whatever
//! the injected failure (crash between accepting a batch and applying it,
//! a record torn half-way through its apply, a poison record that kills
//! every fold until quarantined, a panic while assessing, a stalled
//! worker, a journal append that fails), the verdicts the recovered
//! service serves are **bit-identical** to the offline `TwoPhaseAssessor`
//! folded over the accepted (minus quarantined) feedback sequence.
//!
//! The default configuration is ephemeral: no journal, the per-server
//! state survives the worker's panic and one record is rolled back. The
//! write-ahead assertions (records journaled before the crash, replay of
//! the whole journal) run on a `Durable` scratch-directory variant of the
//! same scenarios.
//!
//! Compiled only with `--features fault-injection` (ci.sh runs it).

#![cfg(feature = "fault-injection")]

use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
use hp_service::journal::read_journal;
use hp_service::obs::{LatencyPath, ShardMetric};
use hp_service::replay::{restamp, OfflineReference};
use hp_service::{
    AssessOutcome, BootProgress, DegradedReason, Durability, FaultPlan, FsyncPolicy, IngestOutcome,
    IngestPolicy, ReputationService, ServiceConfig, ServiceError, TearPoint, TieringPolicy,
};
use hp_sim::workload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One shard so the injected shard index is always the routed one.
fn fast_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(1)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None)
}

/// A unique scratch directory per call, removed by the caller on success.
fn temp_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hp-service-chaos-{}-{name}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `config` with a write-ahead journal in a fresh scratch directory.
fn durable(config: ServiceConfig, name: &str) -> (ServiceConfig, PathBuf) {
    let dir = temp_dir(name);
    let config = config.with_durability(Durability::Durable {
        dir: dir.clone(),
        fsync: FsyncPolicy::Never,
    });
    (config, dir)
}

fn offline_verdict(
    config: &ServiceConfig,
    feedbacks: impl IntoIterator<Item = Feedback>,
) -> hp_core::twophase::Assessment {
    let reference = OfflineReference::from_config(config).expect("reference builds");
    let mut history = TransactionHistory::new();
    for f in feedbacks {
        history.push(f);
    }
    reference.assess(&history).expect("offline assess")
}

/// The third ingest command is accepted (and, with a journal, journaled),
/// then the worker dies before applying any of it.
fn crash_before_apply(config: ServiceConfig, journaled: bool) {
    let server = ServerId::new(42);
    let feedbacks = restamp(&workload::honest_history(600, 0.9, 0xC0FFEE), server);
    let config = config.with_fault_plan(FaultPlan::default().panic_at(0, 3));
    let service = ReputationService::new(config.clone()).unwrap();
    for chunk in feedbacks.chunks(100) {
        let outcome = service.ingest_batch(chunk.to_vec()).unwrap();
        assert_eq!(outcome.accepted, chunk.len());
    }
    let online = service.assess(server).expect("assess after recovery");
    assert_eq!(*online, offline_verdict(&config, feedbacks));
    let stats = service.stats();
    assert_eq!(stats.shard_restarts, 1, "exactly one supervised respawn");
    assert_eq!(stats.quarantined_records, 0);
    assert_eq!(stats.failed_shards, 0);
    assert_eq!(stats.ingested_feedbacks, 600);
    // The per-shard block attributes the whole fault plan to shard 0.
    assert_eq!(stats.per_shard.len(), 1);
    assert_eq!(stats.per_shard[0].get(ShardMetric::Restarts), 1);
    assert_eq!(stats.per_shard[0].get(ShardMetric::Ingested), 600);

    // Histograms match the plan exactly: the crashed batch (100
    // feedbacks) reached state through the supervisor's fold, not the
    // measured live-apply path.
    let snap = service.metrics().snapshot();
    assert_eq!(snap.latency(LatencyPath::IngestApply).count, 500);
    assert_eq!(
        snap.latency(LatencyPath::AssessCompute).count,
        stats.assessments_served
    );
    if journaled {
        assert_eq!(
            stats.journal_records, 600,
            "the crashed batch was journaled"
        );
        assert_eq!(stats.per_shard[0].get(ShardMetric::JournalRecords), 600);
        assert_eq!(snap.latency(LatencyPath::JournalAppend).count, 6);
    } else {
        // No journal, and the counters say so: nothing framed, nothing
        // timed.
        assert_eq!(stats.journal_records, 0);
        assert_eq!(stats.journal_bytes, 0);
        assert_eq!(snap.latency(LatencyPath::JournalAppend).count, 0);
    }
}

#[test]
fn crash_before_apply_keeps_the_state_and_retries_the_batch() {
    crash_before_apply(fast_config(), false);
}

#[test]
fn crash_between_journal_and_apply_recovers_equivalently() {
    let (config, dir) = durable(fast_config(), "crash-before-apply");
    crash_before_apply(config, true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two servers interleaved record by record, so every batch touches both.
fn two_servers(len: usize) -> (Vec<Feedback>, [Vec<Feedback>; 2]) {
    let a = restamp(
        &workload::honest_history(len, 0.9, 0xA11CE),
        ServerId::new(1),
    );
    let b = restamp(&workload::honest_history(len, 0.8, 0xB0B), ServerId::new(2));
    let mixed = a.iter().zip(&b).flat_map(|(x, y)| [*x, *y]).collect();
    (mixed, [a, b])
}

const HORIZON: usize = 256;

/// Ephemeral with horizon compaction: the torn history has a folded
/// prefix, and the offline reference sweeps the same capped suffixes.
fn tiered_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(1)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .max_suffix(Some(HORIZON))
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None)
        .with_tiering(TieringPolicy {
            horizon: HORIZON,
            spill_budget_bytes: None,
        })
}

/// The batches of [`two_servers`]' records in two layouts: interleaved
/// `chunk` records at a time, where every run of one server's records is
/// one record long, and server-major, each server's whole history in one
/// batch, where a record torn part-way sits inside a long run.
fn both_layouts(
    mixed: &[Feedback],
    per_server: &[Vec<Feedback>; 2],
    chunk: usize,
) -> [Vec<Vec<Feedback>>; 2] {
    [
        mixed.chunks(chunk).map(<[Feedback]>::to_vec).collect(),
        per_server.to_vec(),
    ]
}

#[test]
fn mid_apply_crash_rolls_one_record_back_and_loses_nothing() {
    for base in [fast_config(), tiered_config()] {
        let (mixed, per_server) = two_servers(600);
        let torn = per_server[0][437];
        let config = base.with_fault_plan(FaultPlan::default().with_mid_apply_panic(
            torn.server.value(),
            torn.time,
            TearPoint::AfterHistoryPush,
        ));
        for batches in both_layouts(&mixed, &per_server, 150) {
            let service = ReputationService::new(config.clone()).unwrap();
            for batch in batches {
                service.ingest_batch(batch).unwrap();
            }
            // Every accepted record is in the verdict.
            assert_verdicts_match_offline(&service, &config, &per_server);
            let stats = service.stats();
            assert_eq!(stats.shard_restarts, 1);
            assert_eq!(stats.quarantined_records, 0);
            assert_eq!(stats.failed_shards, 0);
            assert_eq!(
                stats.tracked_feedbacks, 1200,
                "nothing lost, nothing doubled"
            );
        }
    }
}

#[test]
fn persistent_mid_apply_crash_is_quarantined() {
    let (mixed, per_server) = two_servers(400);
    let torn = per_server[1][250];
    let config = fast_config().with_fault_plan(
        FaultPlan::default()
            .with_mid_apply_panic(torn.server.value(), torn.time, TearPoint::AfterHistoryPush)
            .persistently(),
    );
    let survivors = per_server.clone().map(|history| {
        history
            .into_iter()
            .filter(|f| *f != torn)
            .collect::<Vec<Feedback>>()
    });
    for batches in both_layouts(&mixed, &per_server, 100) {
        let service = ReputationService::new(config.clone()).unwrap();
        for batch in batches {
            service.ingest_batch(batch).unwrap();
        }
        assert_verdicts_match_offline(&service, &config, &survivors);
        let stats = service.stats();
        assert_eq!(stats.quarantined_records, 1);
        assert_eq!(
            stats.shard_restarts, 1,
            "one live crash, then the refold retries"
        );
        assert_eq!(stats.failed_shards, 0);
        assert_eq!(stats.tracked_feedbacks, 799);
    }
}

#[test]
fn half_made_server_is_removed_by_the_rollback() {
    let known = ServerId::new(1);
    let newcomer = ServerId::new(77);
    let config = fast_config().with_fault_plan(
        FaultPlan::default()
            .with_mid_apply_panic(newcomer.value(), 0, TearPoint::AfterHistoryPush)
            .persistently(),
    );
    let service = ReputationService::new(config.clone()).unwrap();
    let head = restamp(&workload::honest_history(200, 0.9, 5), known);
    service.ingest_batch(head.clone()).unwrap();
    // The newcomer's first record tears every time it is applied: the
    // state the first attempt created must not outlive the rollback.
    let mut batch = vec![Feedback::new(
        0,
        newcomer,
        ClientId::new(3),
        Rating::Positive,
    )];
    let tail: Vec<Feedback> = (200..260)
        .map(|t| Feedback::new(t, known, ClientId::new(t % 5), Rating::Positive))
        .collect();
    batch.extend(&tail);
    service.ingest_batch(batch).unwrap();
    let online = service.assess(known).expect("assess after quarantine");
    assert_eq!(
        *online,
        offline_verdict(&config, head.into_iter().chain(tail))
    );
    let stats = service.stats();
    assert_eq!(stats.quarantined_records, 1);
    assert_eq!(stats.tracked_servers, 1, "the newcomer is gone");
    assert_eq!(stats.tracked_feedbacks, 260);
}

const DEEP_SERVERS: u64 = 200;
const DEEP_BATCH: usize = 1000;

/// 200 000 feedbacks over 200 servers in 1000-record batches, every
/// batch touching every server; returns each server's history.
fn ingest_200k(service: &ReputationService) -> Vec<Vec<Feedback>> {
    let histories: Vec<Vec<Feedback>> = (0..DEEP_SERVERS)
        .map(|s| {
            restamp(
                &workload::honest_history(1000, 0.9, 0xD0 + s),
                ServerId::new(s),
            )
        })
        .collect();
    let mut batch = Vec::with_capacity(DEEP_BATCH);
    for t in 0..1000 {
        for history in &histories {
            batch.push(history[t]);
            if batch.len() == DEEP_BATCH {
                service.ingest_batch(std::mem::take(&mut batch)).unwrap();
            }
        }
    }
    assert!(batch.is_empty());
    histories
}

/// Every given server's online verdict against one offline reference
/// (one calibrator, warmed once, for the whole sweep).
fn assert_verdicts_match_offline<'a>(
    service: &ReputationService,
    config: &ServiceConfig,
    histories: impl IntoIterator<Item = &'a Vec<Feedback>>,
) {
    let reference = OfflineReference::from_config(config).expect("reference builds");
    for feedbacks in histories {
        let server = feedbacks[0].server;
        let mut history = TransactionHistory::new();
        for f in feedbacks {
            history.push(*f);
        }
        let online = service.assess(server).expect("assess");
        assert_eq!(
            *online,
            reference.assess(&history).expect("offline assess"),
            "{server}"
        );
    }
}

/// Records recovery has folded back into state since the service
/// started (`hp_replayed_records_total`); its delta across a crash is
/// what the respawn re-folded.
fn replayed(service: &ReputationService) -> u64 {
    service
        .metrics()
        .snapshot()
        .total(ShardMetric::ReplayedRecords)
}

#[test]
fn assess_panic_after_200k_records_folds_nothing() {
    let config = fast_config().with_fault_plan(FaultPlan::default().with_assess_panic());
    let service = ReputationService::new(config.clone()).unwrap();
    let histories = ingest_200k(&service);
    assert_eq!(service.stats().tracked_feedbacks, 200_000);
    let before = replayed(&service);
    assert!(
        matches!(
            service.assess(ServerId::new(0)),
            Err(ServiceError::Interrupted { .. })
        ),
        "the assessment that panicked is lost, typed"
    );
    // The next one is served from the state the panic left in place.
    let online = service
        .assess(ServerId::new(0))
        .expect("assess after the panic");
    assert_eq!(
        *online,
        offline_verdict(&config, histories[0].iter().copied())
    );
    assert_eq!(replayed(&service) - before, 0, "no record was in flight");
    let stats = service.stats();
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.tracked_feedbacks, 200_000);
    assert_verdicts_match_offline(&service, &config, &histories);
}

#[test]
fn crash_before_apply_at_200k_records_folds_one_batch() {
    // The 201st ingest command dies before its first record.
    let config = fast_config().with_fault_plan(FaultPlan::default().panic_at(0, 201));
    let service = ReputationService::new(config.clone()).unwrap();
    let mut histories = ingest_200k(&service);
    let _ = service.stats(); // barrier: all 200 batches applied
    let before = replayed(&service);
    let extra: Vec<Feedback> = (0..DEEP_BATCH as u64)
        .map(|i| {
            let server = ServerId::new(i % DEEP_SERVERS);
            Feedback::new(
                1000 + i / DEEP_SERVERS,
                server,
                ClientId::new(i % 9),
                Rating::Positive,
            )
        })
        .collect();
    for f in &extra {
        histories[f.server.value() as usize].push(*f);
    }
    service.ingest_batch(extra).unwrap();
    let stats = service.stats(); // barrier: the respawned worker answers
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.tracked_feedbacks, 201_000);
    // A count, not a timer: the respawn folded the batch in flight and
    // none of the 200 000 records before it.
    assert_eq!(replayed(&service) - before, DEEP_BATCH as u64);
    assert_verdicts_match_offline(&service, &config, histories.iter().step_by(20));
}

/// A panic inside a tiering pass: the one mutation that is not an append.
#[test]
fn tiering_panic_fails_an_ephemeral_shard_typed() {
    let server = ServerId::new(4);
    let config = tiered_config().with_fault_plan(FaultPlan::default().with_tiering_panic());
    let service = ReputationService::new(config).unwrap();
    service
        .ingest_batch(restamp(&workload::honest_history(600, 0.9, 3), server))
        .unwrap();
    let mut failed = false;
    for _ in 0..500 {
        match service.assess(server) {
            Err(ServiceError::ShardUnavailable { shard: 0 }) => {
                failed = true;
                break;
            }
            Err(ServiceError::Interrupted { .. }) | Ok(_) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(failed, "a torn fold is never served from");
    let stats = service.stats();
    assert_eq!(stats.failed_shards, 1);
    assert_eq!(stats.quarantined_records, 0);
}

/// The same panic on a durable shard costs one replay: it has a trusted
/// copy to rebuild from. At cold start the fold runs in the supervisor
/// itself; a panic there must fail the shard and finish its boot, not
/// kill the thread with `/healthz` warming for ever.
#[test]
fn tiering_panic_on_a_durable_shard_replays_or_fails_at_boot() {
    let server = ServerId::new(4);
    let feedbacks = restamp(&workload::honest_history(600, 0.9, 3), server);
    let (plain, dir) = durable(tiered_config(), "tiering-panic");
    let config = plain
        .clone()
        .with_fault_plan(FaultPlan::default().with_tiering_panic());
    {
        let service = ReputationService::new(config.clone()).unwrap();
        service.ingest_batch(feedbacks.clone()).unwrap();
        let online = service.assess(server).expect("assess after the replay");
        assert_eq!(*online, offline_verdict(&config, feedbacks));
        let stats = service.stats();
        assert_eq!(stats.shard_restarts, 1);
        assert_eq!(stats.failed_shards, 0);
        service.shutdown();
    }
    // Reboot on the same journal: the cold-start re-tiering panics.
    let boot = Arc::new(BootProgress::new());
    let service = ReputationService::new_with_progress(config, Some(Arc::clone(&boot))).unwrap();
    let mut failed = false;
    for _ in 0..500 {
        if matches!(
            service.assess(server),
            Err(ServiceError::ShardUnavailable { shard: 0 })
        ) {
            failed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(failed, "the shard is failed, typed");
    assert_eq!(service.stats().failed_shards, 1);
    let status = boot.status();
    assert_eq!(
        status.shards_ready, status.shards_total,
        "boot finished: {status:?}"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_record_is_quarantined_and_skipped() {
    let server = ServerId::new(7);
    let feedbacks = restamp(&workload::honest_history(400, 0.92, 0xBEEF), server);
    let poison = feedbacks[250];
    assert_eq!(
        feedbacks.iter().filter(|f| f.time == poison.time).count(),
        1,
        "poison record must be unique"
    );
    let config = fast_config()
        .with_fault_plan(FaultPlan::default().with_poison(poison.server.value(), poison.time));
    let service = ReputationService::new(config.clone()).unwrap();
    // Live apply crashes on the poison record; the default supervision
    // quarantines it after two fold crashes at the same accepted record.
    service.ingest_batch(feedbacks.clone()).unwrap();
    let online = service.assess(server).expect("assess after quarantine");
    let survivors = feedbacks.iter().copied().filter(|f| f.time != poison.time);
    assert_eq!(*online, offline_verdict(&config, survivors));
    let stats = service.stats();
    assert_eq!(stats.quarantined_records, 1);
    assert_eq!(
        stats.shard_restarts, 1,
        "one live crash, then replay retries"
    );
    assert_eq!(stats.failed_shards, 0);
    assert_eq!(
        stats.per_shard[0].get(ShardMetric::Quarantined),
        1,
        "attributed to shard 0"
    );
    assert_eq!(stats.per_shard[0].get(ShardMetric::Restarts), 1);
}

#[test]
fn deadline_miss_serves_published_verdict_with_staleness() {
    let server = ServerId::new(3);
    let config = fast_config()
        .with_fault_plan(FaultPlan::default().with_assess_delay(Duration::from_millis(300)));
    let service = ReputationService::new(config).unwrap();
    service
        .ingest_batch(restamp(&workload::honest_history(300, 0.9, 1), server))
        .unwrap();
    // Slow but unbounded: publishes the verdict at version 300.
    let fresh = service.assess(server).unwrap();
    // 50 more feedbacks, then a stats round-trip as an ordering barrier
    // (the Snapshot reply proves the worker applied the ingest).
    let more: Vec<Feedback> = (300..350)
        .map(|t| Feedback::new(t, server, ClientId::new(t % 5), Rating::Positive))
        .collect();
    service.ingest_batch(more).unwrap();
    let _ = service.stats();

    let (outcome, _) = service
        .assess_observed(server, Some(Duration::from_millis(50)), 0)
        .expect("published verdict available");
    match outcome {
        AssessOutcome::Degraded(d) => {
            assert_eq!(
                d.assessment, fresh,
                "degraded answer is the last published verdict"
            );
            assert_eq!(d.computed_at_version, 300);
            assert_eq!(d.latest_version, 350);
            assert_eq!(d.staleness(), 50);
            assert_eq!(d.reason, DegradedReason::DeadlineExceeded);
        }
        AssessOutcome::Fresh(_) => panic!("a 300ms delay cannot beat a 50ms deadline"),
    }
    let stats = service.stats();
    assert_eq!(stats.degraded_answers, 1);
    assert_eq!(
        stats.cache_hits, 1,
        "a degraded answer is served from the published cache and counts as a cache event"
    );
    // Two computes: the initial fresh assess, plus the abandoned
    // deadline-missed request — the worker still finishes it (at version
    // 350) after the front end has answered degraded, and the stats
    // barrier waits for the worker, so the count is deterministic.
    assert_eq!(stats.cache_misses, 2, "fresh assess + abandoned recompute");
    // The degraded answer is still an end-to-end serve: e2e = fresh + degraded.
    let snap = service.metrics().snapshot();
    assert_eq!(snap.latency(LatencyPath::AssessE2e).count, 2);
    // Every serve, fresh or degraded, is one cache hit or miss.
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.assessments_served + stats.degraded_answers
    );
}

/// One-feedback batches the saturated test has its shard take before it
/// stalls it — as many as a shard queue holds.
const QUEUE_SLOTS: usize = 1024;

/// A shard stalled inside a delayed assessment takes nothing: a batch
/// offered to it is shed when the wait runs out, counted exactly by the
/// compare-exchange that decided it, and never reaches the state — the
/// worker drops the shed command unread when the stall ends.
#[test]
fn saturated_shard_sheds_exactly_and_verdicts_cover_accepted_only() {
    let config = fast_config()
        .with_ingest_policy(IngestPolicy::TryFor(Duration::from_millis(500)))
        .with_fault_plan(FaultPlan::default().with_assess_delay(Duration::from_secs(2)));
    let service = Arc::new(ReputationService::new(config.clone()).unwrap());
    let server = ServerId::new(5);
    let head = restamp(&workload::honest_history(200, 0.9, 9), server);
    service.ingest_batch(head.clone()).unwrap();

    let tail: Vec<Feedback> = (200..200 + QUEUE_SLOTS as u64 + 30)
        .map(|t| Feedback::new(t, server, ClientId::new(t % 3), Rating::Positive))
        .collect();
    // A worker that is not stalled takes every one-feedback batch within
    // the wait.
    for feedback in &tail[..QUEUE_SLOTS] {
        let accepted = service.ingest_batch(vec![*feedback]).unwrap();
        assert_eq!(
            accepted,
            IngestOutcome {
                accepted: 1,
                shed: 0
            }
        );
    }

    // Stall the worker inside a delayed assessment reply.
    let stalled = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.assess(server).unwrap())
    };
    std::thread::sleep(Duration::from_millis(100)); // worker holds the assess

    // The stalled worker cannot take the next batch within the wait: it
    // is shed whole, at the wait, not at a full queue.
    let shed = service.ingest_batch(tail[QUEUE_SLOTS..].to_vec()).unwrap();
    assert_eq!(
        shed,
        IngestOutcome {
            accepted: 0,
            shed: 30
        }
    );

    stalled.join().unwrap();
    let online = service.assess(server).unwrap();
    let durable = head.into_iter().chain(tail[..QUEUE_SLOTS].iter().copied());
    assert_eq!(*online, offline_verdict(&config, durable));
    let stats = service.stats();
    assert_eq!(stats.shed_feedbacks, 30);
    assert_eq!(stats.ingested_feedbacks, 200 + QUEUE_SLOTS as u64);
    assert_eq!(stats.tracked_feedbacks, 200 + QUEUE_SLOTS);
    assert!((stats.shed_rate() - 30.0 / (230 + QUEUE_SLOTS) as f64).abs() < 1e-12);
}

#[test]
fn try_for_policy_sheds_after_bounded_wait() {
    let config = fast_config()
        .with_ingest_policy(IngestPolicy::TryFor(Duration::from_millis(30)))
        .with_fault_plan(FaultPlan::default().with_assess_delay(Duration::from_secs(2)));
    let service = Arc::new(ReputationService::new(config).unwrap());
    let server = ServerId::new(6);
    service
        .ingest_batch(restamp(&workload::honest_history(150, 0.9, 2), server))
        .unwrap();

    let batch = |from: u64| -> Vec<Feedback> {
        (from..from + 10)
            .map(|t| Feedback::new(t, server, ClientId::new(0), Rating::Positive))
            .collect()
    };
    for slot in 0..QUEUE_SLOTS as u64 {
        let outcome = service.ingest_batch(batch(150 + 10 * slot)).unwrap();
        assert_eq!(
            outcome.shed, 0,
            "a shard that is not stalled takes each batch within the wait budget"
        );
    }

    let stalled = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.assess(server).unwrap())
    };
    std::thread::sleep(Duration::from_millis(100));

    let waited = std::time::Instant::now();
    let full = service
        .ingest_batch(batch(150 + 10 * QUEUE_SLOTS as u64))
        .unwrap();
    assert_eq!(
        full,
        IngestOutcome {
            accepted: 0,
            shed: 10
        },
        "a stalled shard's batch is shed after the bounded wait"
    );
    let waited = waited.elapsed();
    assert!(waited >= Duration::from_millis(30));
    assert!(
        waited < Duration::from_secs(1),
        "the wait is bounded, not the stall: {waited:?}"
    );
    stalled.join().unwrap();
}

/// A journal append that fails — half its frames written, then a full
/// disk — is a typed refusal: the batch is neither acknowledged nor
/// applied, the journal keeps none of it, the worker is not restarted,
/// and the next batch is journaled right behind the last acknowledged
/// one.
#[test]
fn failed_append_is_refused_typed_and_leaves_nothing_behind() {
    let server = ServerId::new(31);
    let feedbacks = restamp(&workload::honest_history(300, 0.9, 0xFA11), server);
    let (plain, dir) = durable(fast_config(), "append-failure");
    let config = plain
        .clone()
        .with_fault_plan(FaultPlan::default().with_append_failure(0, 2));
    let service = ReputationService::new(config.clone()).unwrap();
    let (first, refused, third) = (&feedbacks[..100], &feedbacks[100..200], &feedbacks[200..]);
    assert_eq!(service.ingest_batch(first.to_vec()).unwrap().accepted, 100);
    match service.ingest_batch(refused.to_vec()) {
        Err(ServiceError::AppendFailed { shard: 0, reason }) => {
            assert!(reason.contains("journal append failed"), "{reason}")
        }
        other => panic!("the refused append must be typed: {other:?}"),
    }
    assert_eq!(service.ingest_batch(third.to_vec()).unwrap().accepted, 100);

    let acked: Vec<Feedback> = first.iter().chain(third).copied().collect();
    let online = service.assess(server).expect("assess after the refusal");
    assert_eq!(*online, offline_verdict(&config, acked.clone()));
    let stats = service.stats();
    assert_eq!(stats.shard_restarts, 0, "a refusal is not a crash");
    assert_eq!(stats.ingested_feedbacks, 200);
    assert_eq!(stats.tracked_feedbacks, 200);
    assert_eq!(stats.journal_records, 200);
    service.shutdown();

    let journal = read_journal(&dir.join("shard-0.hpj"), Some((0, 1))).unwrap();
    assert_eq!(
        journal.feedbacks, acked,
        "the journal holds the acked records only"
    );
    assert_eq!(journal.torn_bytes, 0);
    // A reboot folds the same journal into the same verdict.
    let service = ReputationService::new(plain.clone()).unwrap();
    assert_eq!(
        *service.assess(server).unwrap(),
        offline_verdict(&plain, acked)
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real restart budget: eight respawns behind backoffs of 10 ms
/// doubling to the 1 s cap (2.27 s in all), then the shard is failed.
#[test]
fn restart_budget_exhaustion_fails_the_shard_typed() {
    let server = ServerId::new(11);
    let config =
        fast_config().with_fault_plan(FaultPlan::default().with_poison(server.value(), 999));
    let service = ReputationService::new(config).unwrap();
    service
        .ingest_batch(restamp(&workload::honest_history(100, 0.9, 77), server))
        .unwrap();
    // Nine separate poison ingests: each crashes the live worker once
    // (the supervisor's fold quarantines the in-flight copy at its second
    // crash), so the ninth crash exceeds the budget of 8 restarts and the
    // shard is declared failed.
    let poison = Feedback::new(999, server, ClientId::new(1), Rating::Negative);
    for _ in 0..9 {
        let _ = service.ingest_batch(vec![poison]);
    }
    let mut failed = false;
    for _ in 0..500 {
        match service.assess(server) {
            Err(ServiceError::ShardUnavailable { shard }) => {
                assert_eq!(shard, 0);
                failed = true;
                break;
            }
            Err(ServiceError::Interrupted { .. }) | Ok(_) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(failed, "shard must become typed-unavailable");
    let stats = service.stats();
    assert_eq!(stats.failed_shards, 1);
    assert_eq!(
        stats.shard_restarts, 8,
        "the budget of 8 respawns was spent"
    );
    assert_eq!(stats.quarantined_records, 8, "one per completed rebuild");
    assert_eq!(stats.per_shard[0].get(ShardMetric::Failed), 1);
}

/// The second ingest command is accepted, then the worker dies pre-apply;
/// the counters must tell that story: one batch applied live, the
/// restart, and what the respawn folded back.
fn crash_causality(config: ServiceConfig, journaled: bool) {
    let server = ServerId::new(23);
    let feedbacks = restamp(&workload::honest_history(200, 0.9, 0xACE), server);
    let config = config.with_fault_plan(FaultPlan::default().panic_at(0, 2));
    let service = ReputationService::new(config).unwrap();
    let before = replayed(&service);
    for chunk in feedbacks.chunks(100) {
        service.ingest_batch(chunk.to_vec()).unwrap();
    }
    // Recovery barrier: a served assessment proves the respawned worker
    // is back and holds both batches.
    service.assess(server).expect("assess after recovery");

    let stats = service.stats();
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.tracked_feedbacks, 200);
    // The live path applied the first batch only: the second died
    // before its first record.
    assert_eq!(stats.per_shard[0].get(ShardMetric::LastApplyVersion), 100);
    let replay = replayed(&service) - before;
    if journaled {
        // Both batches were journaled before the crash, but only the
        // first was applied — the dangling append is the write-ahead
        // invariant made visible — and the replay folds both back.
        assert_eq!(
            stats.journal_records, 200,
            "the crashed batch was journaled"
        );
        assert_eq!(replay, 200, "replay folds every journaled record");
    } else {
        // Nothing is journaled, the first batch is still in the state:
        // the respawn folds only the batch that was in flight.
        assert_eq!(stats.journal_records, 0);
        assert_eq!(replay, 100, "the respawn folds the in-flight batch only");
    }
}

#[test]
fn crash_before_apply_refolds_the_in_flight_batch() {
    crash_causality(fast_config(), false);
}

#[test]
fn crash_before_apply_on_a_durable_shard_replays_the_journaled_batch() {
    let (config, dir) = durable(fast_config(), "crash-causality");
    crash_causality(config, true);
    let _ = std::fs::remove_dir_all(&dir);
}
