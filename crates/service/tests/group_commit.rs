//! What an ingest reply promises, held by count.
//!
//! `ingest_batch` returns once every shard involved has *taken* its
//! sub-batch: journaled it (durable) or moved it into the supervisor's
//! in-flight buffer (ephemeral). A shard takes the whole run of ingest
//! commands queued at its head as one group commit. So:
//!
//! * concurrent writers share fsyncs — fewer fsyncs than acked batches;
//! * a shard queue holds at most one ingest command per waiting caller;
//! * whatever the interleaving of ingests, assessments and a worker panic
//!   part-way through an apply, every acked record is in the journal
//!   (durable) or the repaired state (ephemeral), and no shed one is.
//!
//! Compiled only with `--features fault-injection` (ci.sh runs it): the
//! stalls and the panic are fault plans.

#![cfg(feature = "fault-injection")]

use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
use hp_service::journal::read_journal;
use hp_service::obs::{LatencyPath, ShardMetric};
use hp_service::replay::OfflineReference;
use hp_service::{
    CheckpointGate, Durability, FaultPlan, FsyncPolicy, IngestPolicy, ReputationService,
    ServiceConfig, SnapshotPolicy, TearPoint,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One shard, so every caller meets the same queue.
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
        "hp-service-group-commit-{}-{name}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `len` feedbacks for `server` from time `from` on.
fn batch(server: u64, from: u64, len: u64) -> Vec<Feedback> {
    (from..from + len)
        .map(|t| {
            Feedback::new(
                t,
                ServerId::new(server),
                ClientId::new(t % 7),
                Rating::from_good(t % 9 != 0),
            )
        })
        .collect()
}

/// Stalls the shard worker inside a delayed assessment, returning once
/// it holds the command.
fn stall(service: &Arc<ReputationService>) -> std::thread::JoinHandle<()> {
    let service = Arc::clone(service);
    let stalled = std::thread::spawn(move || {
        service.assess(ServerId::new(999)).unwrap();
    });
    std::thread::sleep(Duration::from_millis(50));
    stalled
}

const WRITERS: u64 = 8;
const BATCHES: u64 = 25;
const BATCH_LEN: u64 = 20;

/// Eight writers against one durable `EveryBatch` shard: the first batch
/// of every writer queues behind a stalled worker, so at least that group
/// shares one fsync, and every append is one group's.
#[test]
fn concurrent_writers_share_fsyncs() {
    let dir = temp_dir("fsyncs");
    let config = fast_config()
        .with_durability(Durability::Durable {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryBatch,
        })
        .with_fault_plan(FaultPlan::default().with_assess_delay(Duration::from_millis(300)));
    let service = Arc::new(ReputationService::new(config).unwrap());
    let stalled = stall(&service);
    let writers: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..BATCHES {
                    let outcome = service
                        .ingest_batch(batch(writer, i * BATCH_LEN, BATCH_LEN))
                        .unwrap();
                    assert_eq!(outcome.accepted, BATCH_LEN as usize);
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    stalled.join().unwrap();

    let acked_batches = WRITERS * BATCHES;
    let snap = service.metrics().snapshot();
    let fsyncs = snap.total(ShardMetric::JournalFsyncs);
    assert!(
        fsyncs < acked_batches,
        "group commit shares fsyncs: {fsyncs} for {acked_batches} acked batches"
    );
    assert!(fsyncs > 0);
    assert_eq!(
        snap.latency(LatencyPath::JournalAppend).count,
        fsyncs,
        "one write and one fsync per group"
    );
    assert_eq!(
        service.stats().journal_records,
        acked_batches * BATCH_LEN,
        "every acked batch is journaled"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sampled `hp_shard_queue_depth` of the only shard.
fn queue_depth(service: &ReputationService) -> usize {
    let exposition = service.render_prometheus();
    exposition
        .lines()
        .find_map(|l| l.strip_prefix("hp_shard_queue_depth{shard=\"0\"} "))
        .and_then(|v| v.parse().ok())
        .expect("queue depth sample")
}

/// K callers that each ingest back to back against a slowed shard: each
/// waits for its reply, so the queue never holds more than K commands —
/// and, behind the stall, it holds all K.
#[test]
fn queue_holds_at_most_one_ingest_per_waiting_caller() {
    const CALLERS: usize = 6;
    let config = fast_config()
        .with_fault_plan(FaultPlan::default().with_assess_delay(Duration::from_millis(400)));
    let service = Arc::new(ReputationService::new(config).unwrap());
    let stalled = stall(&service);
    let done = Arc::new(AtomicUsize::new(0));
    let callers: Vec<_> = (0..CALLERS as u64)
        .map(|caller| {
            let (service, done) = (Arc::clone(&service), Arc::clone(&done));
            std::thread::spawn(move || {
                for i in 0..40 {
                    service.ingest_batch(batch(caller, i * 10, 10)).unwrap();
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    let mut deepest = 0;
    while done.load(Ordering::Relaxed) < CALLERS {
        deepest = deepest.max(queue_depth(&service));
        std::thread::sleep(Duration::from_millis(1));
    }
    for caller in callers {
        caller.join().unwrap();
    }
    stalled.join().unwrap();
    assert!(
        deepest <= CALLERS,
        "{deepest} commands queued by {CALLERS} callers"
    );
    assert_eq!(deepest, CALLERS, "behind the stall every caller queued one");
    assert_eq!(service.stats().tracked_feedbacks, CALLERS * 400);
}

/// One step of the property below: ingest `len` records for a server, or
/// assess it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Ingest { server: u64, len: u64 },
    Assess { server: u64 },
}

fn op((kind, server, len): (u8, u64, u64)) -> Op {
    match kind {
        0 => Op::Assess { server },
        _ => Op::Ingest { server, len },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of ingests and assessments, one record torn
    /// part-way through its apply (the worker panics there, once), on a
    /// durable or an ephemeral shard, blocking or shedding at once when
    /// the worker is busy. Every assessment equals the offline verdict
    /// over the records acked so far; at the end the state holds exactly
    /// the acked records, and so does the journal of a durable shard.
    #[test]
    fn acked_records_are_kept_and_shed_ones_are_not(
        steps in proptest::collection::vec((0u8..4, 0u64..3, 1u64..60), 1..14),
        durable in any::<bool>(),
        shed_when_busy in any::<bool>(),
        tear in any::<u64>(),
    ) {
        let ops: Vec<Op> = steps.into_iter().map(op).collect();
        // The records each ingest offers, numbered by one clock so that
        // every record is unique.
        let mut clock = 0;
        let batches: Vec<Vec<Feedback>> = ops
            .iter()
            .filter_map(|op| match *op {
                Op::Ingest { server, len } => {
                    clock += len;
                    Some(batch(server, clock - len, len))
                }
                Op::Assess { .. } => None,
            })
            .collect();
        let offered: Vec<Feedback> = batches.concat();
        let mut config = fast_config();
        if shed_when_busy {
            config = config.with_ingest_policy(IngestPolicy::TryFor(Duration::ZERO));
        }
        if !offered.is_empty() {
            let torn = offered[(tear % offered.len() as u64) as usize];
            config = config.with_fault_plan(FaultPlan::default().with_mid_apply_panic(
                torn.server.value(),
                torn.time,
                TearPoint::AfterHistoryPush,
            ));
        }
        let dir = temp_dir("property");
        if durable {
            config = config.with_durability(Durability::Durable {
                dir: dir.clone(),
                fsync: FsyncPolicy::Never,
            });
        }
        let reference = OfflineReference::from_config(&config).expect("reference builds");
        let offline = |records: &[Feedback], server: u64| {
            let mut history = TransactionHistory::new();
            for f in records.iter().filter(|f| f.server.value() == server) {
                history.push(*f);
            }
            reference.assess(&history).expect("offline assess")
        };

        let service = ReputationService::new(config).unwrap();
        let (mut acked, mut shed) = (Vec::new(), Vec::new());
        let mut batches = batches.into_iter();
        for op in &ops {
            match *op {
                Op::Ingest { .. } => {
                    let records = batches.next().expect("one batch per ingest");
                    let outcome = service.ingest_batch(records.clone()).unwrap();
                    // One shard: a sub-batch is the whole batch.
                    if outcome.accepted == records.len() {
                        acked.extend(records);
                    } else {
                        prop_assert_eq!(outcome.shed, records.len());
                        shed.extend(records);
                    }
                }
                Op::Assess { server } => {
                    let online = service.assess(ServerId::new(server)).unwrap();
                    prop_assert_eq!(&*online, &offline(&acked, server));
                }
            }
        }
        let stats = service.stats();
        prop_assert_eq!(stats.tracked_feedbacks, acked.len());
        prop_assert_eq!(stats.ingested_feedbacks, acked.len() as u64);
        prop_assert_eq!(stats.shed_feedbacks, shed.len() as u64);
        prop_assert!(shed_when_busy || shed.is_empty());
        let servers: BTreeSet<u64> = acked.iter().map(|f| f.server.value()).collect();
        for server in servers {
            let online = service.assess(ServerId::new(server)).unwrap();
            prop_assert_eq!(&*online, &offline(&acked, server));
        }
        service.shutdown();
        if durable {
            let journal = read_journal(&dir.join("shard-0.hpj"), Some((0, 1))).unwrap();
            prop_assert_eq!(&journal.feedbacks, &acked);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoints are due every 300 records, and four writers keep ingesting
/// while each is written: the batches acknowledged meanwhile are applied
/// after it and are not in its snapshot. A reboot from the newest
/// snapshot plus the journal tail serves every acked record, bit for bit.
#[test]
fn checkpoints_taken_while_acknowledging_recover_exactly() {
    let dir = temp_dir("checkpoint-overlap");
    let config = fast_config()
        .with_durability(Durability::Durable {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryBatch,
        })
        .with_snapshots(SnapshotPolicy {
            interval_records: 300,
            compact_journal: true,
        });
    let service = Arc::new(ReputationService::new(config.clone()).unwrap());
    let writers: Vec<_> = (0..4u64)
        .map(|writer| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let records = batch(writer, 0, 1_200);
                for chunk in records.chunks(40) {
                    let outcome = service.ingest_batch(chunk.to_vec()).unwrap();
                    assert_eq!(outcome.accepted, chunk.len());
                }
                records
            })
        })
        .collect();
    let acked: Vec<Vec<Feedback>> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    let stats = service.stats();
    // Fewer than 4 800 / 300: what arrives during a checkpoint is
    // applied as one backlog after it.
    assert!(stats.snapshots_written >= 3, "{stats:?}");
    assert_eq!(stats.tracked_feedbacks, 4_800);
    drop(service);

    let reference = OfflineReference::from_config(&config).expect("reference builds");
    let rebooted = ReputationService::new(config).unwrap();
    for records in &acked {
        let mut history = TransactionHistory::new();
        for f in records {
            history.push(*f);
        }
        let online = rebooted.assess(records[0].server).unwrap();
        assert_eq!(*online, reference.assess(&history).unwrap());
    }
    assert_eq!(rebooted.stats().tracked_feedbacks, 4_800);
    drop(rebooted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint's log-force never holds up an ack. With the checkpoint's
/// writer held at a gate before its fsyncs — with compaction on, after
/// the worker rolled the journal; with it off, holding the live file —
/// the worker goes on journaling and acknowledging ingests. Once the
/// gate opens, a reboot serves every acked record, bit for bit.
#[test]
fn acks_flow_while_a_log_force_is_held() {
    for compact_journal in [false, true] {
        let dir = temp_dir("held-log-force");
        let gate = CheckpointGate::default();
        let config = fast_config()
            .with_durability(Durability::Durable {
                dir: dir.clone(),
                fsync: FsyncPolicy::Never,
            })
            .with_snapshots(SnapshotPolicy {
                interval_records: 100,
                compact_journal,
            })
            .with_fault_plan(FaultPlan::default().with_checkpoint_gate(gate.clone()));
        let service = ReputationService::new(config.clone()).unwrap();
        // Applying these makes the first checkpoint due.
        let mut acked = batch(0, 0, 100);
        service.ingest_batch(acked.clone()).unwrap();
        assert!(
            gate.wait_reached(Duration::from_secs(30)),
            "the checkpoint's writer reached the gate"
        );
        for i in 1..=12 {
            let records = batch(i % 3, 100 * i, 25);
            let outcome = service.ingest_batch(records.clone()).unwrap();
            assert_eq!(outcome.accepted, records.len(), "acked behind a held fsync");
            acked.extend(records);
        }
        gate.open();
        drop(service);

        let reference = OfflineReference::from_config(&config).expect("reference builds");
        let rebooted = ReputationService::new(config).unwrap();
        for server in 0..3 {
            let mut history = TransactionHistory::new();
            for f in acked.iter().filter(|f| f.server.value() == server) {
                history.push(*f);
            }
            let online = rebooted.assess(ServerId::new(server)).unwrap();
            assert_eq!(*online, reference.assess(&history).unwrap());
        }
        let stats = rebooted.stats();
        assert_eq!(
            stats.tracked_feedbacks,
            acked.len(),
            "compact={compact_journal}"
        );
        assert_eq!(stats.failed_shards, 0);
        drop(rebooted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Ingests `records` on another thread and waits at most `ACK_BOUND` for
/// the ack: a stalled ack fails the test instead of hanging it.
fn ingest_within_bound(service: &Arc<ReputationService>, records: &[Feedback]) {
    const ACK_BOUND: Duration = Duration::from_secs(10);
    let (tx, rx) = std::sync::mpsc::channel();
    let (service, records) = (Arc::clone(service), records.to_vec());
    let len = records.len();
    std::thread::spawn(move || {
        let _ = tx.send(service.ingest_batch(records).unwrap().accepted);
    });
    assert_eq!(
        rx.recv_timeout(ACK_BOUND),
        Ok(len),
        "an ingest is acked within {ACK_BOUND:?} while a checkpoint is written"
    );
}

/// Calls `service.checkpoint()` on another thread and returns once its
/// writer waits at `gate`.
fn checkpoint_held_at(
    service: &Arc<ReputationService>,
    gate: &CheckpointGate,
) -> std::thread::JoinHandle<usize> {
    let service = Arc::clone(service);
    let checkpoint = std::thread::spawn(move || service.checkpoint().unwrap().shards_snapshotted);
    assert!(
        gate.wait_reached(Duration::from_secs(30)),
        "the checkpoint's writer reached the gate"
    );
    checkpoint
}

/// An explicit checkpoint acknowledges as a due one does. With its
/// writer held at the gate — with compaction on and off, no checkpoint
/// ever due — twelve ingests are each acked, the checkpoint answers once
/// the gate opens, and a reboot serves every acked record, bit for bit.
#[test]
fn an_explicit_checkpoint_never_stalls_an_ack() {
    for compact_journal in [false, true] {
        let dir = temp_dir("explicit-checkpoint");
        let gate = CheckpointGate::default();
        let config = fast_config()
            .with_durability(Durability::Durable {
                dir: dir.clone(),
                fsync: FsyncPolicy::Never,
            })
            .with_snapshots(SnapshotPolicy {
                interval_records: 0,
                compact_journal,
            })
            .with_fault_plan(FaultPlan::default().with_checkpoint_gate(gate.clone()));
        let service = Arc::new(ReputationService::new(config.clone()).unwrap());
        let mut acked = batch(0, 0, 100);
        service.ingest_batch(acked.clone()).unwrap();
        let checkpoint = checkpoint_held_at(&service, &gate);
        for i in 1..=12 {
            let records = batch(i % 3, 100 * i, 25);
            ingest_within_bound(&service, &records);
            acked.extend(records);
        }
        gate.open();
        assert_eq!(checkpoint.join().unwrap(), 1, "compact={compact_journal}");
        drop(service);

        let reference = OfflineReference::from_config(&config).expect("reference builds");
        let rebooted = ReputationService::new(config).unwrap();
        for server in 0..3 {
            let mut history = TransactionHistory::new();
            for f in acked.iter().filter(|f| f.server.value() == server) {
                history.push(*f);
            }
            let online = rebooted.assess(ServerId::new(server)).unwrap();
            assert_eq!(*online, reference.assess(&history).unwrap());
        }
        let stats = rebooted.stats();
        assert_eq!(stats.tracked_feedbacks, acked.len());
        assert_eq!(stats.failed_shards, 0);
        drop(rebooted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Read-your-writes across an explicit checkpoint: a batch acked while
/// the checkpoint's writer is held, then an assessment queued behind the
/// checkpoint. The assessment is served after that batch is applied.
#[test]
fn an_assess_behind_an_explicit_checkpoint_reads_what_it_acknowledged() {
    let dir = temp_dir("explicit-checkpoint-ryw");
    let gate = CheckpointGate::default();
    let config = fast_config()
        .with_durability(Durability::Durable {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
        })
        .with_snapshots(SnapshotPolicy {
            interval_records: 1_000_000,
            compact_journal: true,
        })
        .with_fault_plan(FaultPlan::default().with_checkpoint_gate(gate.clone()));
    let service = Arc::new(ReputationService::new(config.clone()).unwrap());
    let before = batch(7, 0, 100);
    service.ingest_batch(before.clone()).unwrap();
    let checkpoint = checkpoint_held_at(&service, &gate);
    let during = batch(7, 100, 60);
    ingest_within_bound(&service, &during);
    let assess = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.assess(ServerId::new(7)).unwrap())
    };
    std::thread::sleep(Duration::from_millis(100)); // queued behind the checkpoint
    gate.open();
    assert_eq!(checkpoint.join().unwrap(), 1);

    let reference = OfflineReference::from_config(&config).expect("reference builds");
    let offline = |records: &[Feedback]| {
        let mut history = TransactionHistory::new();
        for f in records {
            history.push(*f);
        }
        reference.assess(&history).unwrap()
    };
    let acked = [before.as_slice(), during.as_slice()].concat();
    assert_ne!(
        offline(&before),
        offline(&acked),
        "the batch moves the verdict"
    );
    assert_eq!(*assess.join().unwrap(), offline(&acked));
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
