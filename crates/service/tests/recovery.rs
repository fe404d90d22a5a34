//! Crash-recovery properties: the journal is the single source of truth.
//!
//! Whatever is appended, wherever the process dies (torn tail, flipped
//! byte, panic between journal write and apply, plain restart), the state
//! rebuilt from the journal is the same pure fold — and the service's
//! verdicts stay bit-identical to the offline `TwoPhaseAssessor` over the
//! recovered sequence.

use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
use hp_service::journal::{read_journal, FileJournal, FsyncPolicy};
use hp_service::replay::{restamp, OfflineReference};
use hp_service::{Durability, ReputationService, ServiceConfig, SnapshotPolicy, TieringPolicy};
use hp_sim::workload;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const HEADER_LEN: u64 = 16;
const RECORD_LEN: u64 = 33; // 8-byte frame + 25-byte payload

/// A unique scratch directory per call; callers clean up on success so
/// repeated runs don't accumulate, but a failing case leaves its journal
/// behind for inspection.
fn temp_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hp-service-recovery-{}-{name}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Deterministic pseudo-random feedback stream (xorshift64).
fn synth_feedbacks(len: usize, seed: u64) -> Vec<Feedback> {
    let mut state = seed | 1;
    (0..len as u64)
        .map(|t| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Feedback::new(
                t,
                ServerId::new(state % 17),
                ClientId::new((state >> 8) % 23),
                Rating::from_good(!state.is_multiple_of(10)),
            )
        })
        .collect()
}

/// One shard, small calibration, rows on demand: fast but real assessments.
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

/// Regression for the graceful-shutdown satellite: feedback acknowledged
/// just before shutdown must survive the restart — the worker drains its
/// queue and flushes the journal before exiting, even under
/// `FsyncPolicy::Never`.
#[test]
fn shutdown_drains_queue_and_loses_nothing() {
    let dir = temp_dir("shutdown-drain");
    let server = ServerId::new(9);
    let feedbacks = restamp(&workload::honest_history(350, 0.9, 0xD00D), server);
    let config = fast_config().with_durability(Durability::Durable {
        dir: dir.clone(),
        fsync: FsyncPolicy::Never,
    });
    {
        let service = ReputationService::new(config.clone()).unwrap();
        for chunk in feedbacks.chunks(37) {
            let outcome = service.ingest_batch(chunk.to_vec()).unwrap();
            assert_eq!(outcome.accepted, chunk.len());
        }
        // No assess, no stats barrier: shut down with commands possibly
        // still queued. Every acknowledged feedback must be drained to
        // the journal anyway.
        service.shutdown();
    }
    let recovered = read_journal(&dir.join("shard-0.hpj"), Some((0, 1))).unwrap();
    assert_eq!(
        recovered.feedbacks, feedbacks,
        "no feedback lost on shutdown"
    );
    assert_eq!(recovered.torn_bytes, 0);

    let service = ReputationService::new(config.clone()).unwrap();
    let online = service.assess(server).expect("assess after restart");
    assert_eq!(*online, offline_verdict(&config, feedbacks));
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Append in arbitrary chunk sizes; reading back yields exactly the
    /// appended sequence, and a reopened journal continues the count.
    #[test]
    fn journal_round_trips_any_sequence(
        len in 0usize..400,
        seed in any::<u64>(),
        chunk in 1usize..97,
        fsync_sel in any::<u8>(),
    ) {
        let dir = temp_dir("round-trip");
        let path = dir.join("shard-0.hpj");
        let feedbacks = synth_feedbacks(len, seed);
        let policy = match fsync_sel % 2 {
            0 => FsyncPolicy::Never,
            _ => FsyncPolicy::EveryBatch,
        };
        {
            let (mut journal, recovered) = FileJournal::open(&path, 0, 1, policy).unwrap();
            prop_assert!(recovered.feedbacks.is_empty());
            for batch in feedbacks.chunks(chunk) {
                journal.append_batch(batch).unwrap();
            }
            journal.sync().unwrap();
            prop_assert_eq!(journal.records(), len as u64);
        }
        let recovered = read_journal(&path, Some((0, 1))).unwrap();
        prop_assert_eq!(&recovered.feedbacks, &feedbacks);
        prop_assert_eq!(recovered.torn_bytes, 0);

        let (journal, recovered) = FileJournal::open(&path, 0, 1, policy).unwrap();
        prop_assert_eq!(&recovered.feedbacks, &feedbacks);
        prop_assert_eq!(journal.records(), len as u64);
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cut the file at *any* byte offset past the header: recovery keeps
    /// exactly the records wholly before the cut and reports the torn
    /// remainder, and reopening truncates so appends resume cleanly.
    #[test]
    fn any_torn_tail_recovers_whole_record_prefix(
        len in 1usize..120,
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("torn-tail");
        let path = dir.join("shard-0.hpj");
        let feedbacks = synth_feedbacks(len, seed);
        {
            let (mut journal, _) =
                FileJournal::open(&path, 0, 1, FsyncPolicy::EveryBatch).unwrap();
            journal.append_batch(&feedbacks).unwrap();
        }
        let body = len as u64 * RECORD_LEN;
        let cut = (cut_frac * body as f64) as u64; // bytes of body kept
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(HEADER_LEN + cut).unwrap();
        drop(file);

        let whole = (cut / RECORD_LEN) as usize;
        let recovered = read_journal(&path, Some((0, 1))).unwrap();
        prop_assert_eq!(&recovered.feedbacks, &feedbacks[..whole]);
        prop_assert_eq!(recovered.torn_bytes, cut % RECORD_LEN);

        let (mut journal, _) =
            FileJournal::open(&path, 0, 1, FsyncPolicy::EveryBatch).unwrap();
        let extra = synth_feedbacks(3, seed ^ 0xABCD);
        journal.append_batch(&extra).unwrap();
        drop(journal);
        let recovered = read_journal(&path, Some((0, 1))).unwrap();
        let mut expected = feedbacks[..whole].to_vec();
        expected.extend_from_slice(&extra);
        prop_assert_eq!(&recovered.feedbacks, &expected);
        prop_assert_eq!(recovered.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flip any single byte of any record: the CRC (or the length check)
    /// catches it, and recovery keeps exactly the records before the
    /// corrupted one.
    #[test]
    fn any_single_byte_flip_recovers_clean_prefix(
        len in 1usize..80,
        seed in any::<u64>(),
        victim_frac in 0.0f64..1.0,
        offset_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("byte-flip");
        let path = dir.join("shard-0.hpj");
        let feedbacks = synth_feedbacks(len, seed);
        {
            let (mut journal, _) =
                FileJournal::open(&path, 0, 1, FsyncPolicy::EveryBatch).unwrap();
            journal.append_batch(&feedbacks).unwrap();
        }
        let victim = ((victim_frac * len as f64) as usize).min(len - 1);
        let offset = ((offset_frac * RECORD_LEN as f64) as u64).min(RECORD_LEN - 1);
        let at = HEADER_LEN + victim as u64 * RECORD_LEN + offset;
        let mut data = std::fs::read(&path).unwrap();
        data[at as usize] ^= 0xFF; // a single-byte burst: CRC-32 always detects it
        std::fs::write(&path, &data).unwrap();

        let recovered = read_journal(&path, Some((0, 1))).unwrap();
        prop_assert_eq!(&recovered.feedbacks, &feedbacks[..victim]);
        prop_assert_eq!(
            recovered.torn_bytes,
            (len - victim) as u64 * RECORD_LEN,
            "everything from the corrupt record on is discarded"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    // Each case builds two services (each calibrates); keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Restart equivalence: a service reopened on the journal directory of
    /// a shut-down predecessor serves verdicts bit-identical to the
    /// offline assessor over everything the predecessor acknowledged.
    #[test]
    fn durable_restart_serves_identical_verdicts(
        len in 1usize..500,
        p in 0.7f64..0.98,
        seed in any::<u64>(),
        chunk in 1usize..120,
    ) {
        let dir = temp_dir("restart");
        let server = ServerId::new(seed % 97);
        let feedbacks = restamp(&workload::honest_history(len, p, seed), server);
        let config = fast_config().with_durability(Durability::Durable {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryBatch,
        });
        let first = {
            let service = ReputationService::new(config.clone()).unwrap();
            for batch in feedbacks.chunks(chunk) {
                service.ingest_batch(batch.to_vec()).unwrap();
            }
            let verdict = service.assess(server).expect("assess before shutdown");
            service.shutdown();
            verdict
        };
        let service = ReputationService::new(config.clone()).unwrap();
        let reborn = service.assess(server).expect("assess after restart");
        prop_assert_eq!(&reborn, &first);
        prop_assert_eq!(&*reborn, &offline_verdict(&config, feedbacks));
        prop_assert_eq!(service.stats().journal_records, len as u64);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Snapshot recovery properties: a snapshot is an *accelerator*, never a
/// second source of truth. Whatever happens to the snapshot files (torn
/// write, flipped byte, a stray temp), recovery walks the fallback
/// chain — older snapshot, then full journal replay — and lands on the
/// same bit-identical state; when the journal has been compacted past
/// the last valid snapshot, the shard fails loudly instead of answering
/// from a partial fold.
mod snapshots {
    use super::*;
    use hp_service::BootProgress;
    use std::sync::Arc;

    /// Durable journal + snapshots; automatic checkpoints disabled so
    /// tests place checkpoints deliberately via `checkpoint()`.
    fn snapshot_config(dir: &Path, compact: bool) -> ServiceConfig {
        fast_config()
            .with_durability(Durability::Durable {
                dir: dir.to_path_buf(),
                fsync: FsyncPolicy::EveryBatch,
            })
            .with_snapshots(SnapshotPolicy {
                interval_records: 0,
                compact_journal: compact,
            })
    }

    /// Snapshot files for shard 0, oldest first.
    fn snapshot_files(dir: &PathBuf) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "hps"))
            .collect();
        files.sort(); // seq is zero-padded hex, so name order = age order
        files
    }

    /// Two deliberate checkpoints with journal compaction: the journal
    /// prefix is gone, so a successful bit-identical restart *proves*
    /// recovery came through the snapshot.
    #[test]
    fn compacted_journal_restart_recovers_through_snapshot() {
        let dir = temp_dir("snap-compacted");
        let server = ServerId::new(3);
        let feedbacks = restamp(&workload::honest_history(600, 0.9, 0xBEEF), server);
        let config = snapshot_config(&dir, true);
        {
            let service = ReputationService::new(config.clone()).unwrap();
            service.ingest_batch(feedbacks[..400].to_vec()).unwrap();
            let summary = service.checkpoint().unwrap();
            assert_eq!(summary.shards_snapshotted, 1);
            assert!(summary.snapshot_bytes > 0);
            service.ingest_batch(feedbacks[400..].to_vec()).unwrap();
            // Second checkpoint: two retained snapshots, so the journal
            // compacts to the older one's offset (400).
            let summary = service.checkpoint().unwrap();
            assert_eq!(summary.journal_records_compacted, 400);
            assert!(service.stats().snapshots_written >= 2);
            service.shutdown();
        }
        let service = ReputationService::new(config.clone()).unwrap();
        let online = service.assess(server).expect("assess after restart");
        assert_eq!(*online, offline_verdict(&config, feedbacks));
        let stats = service.stats();
        assert_eq!(
            stats.journal_records, 600,
            "absolute count survives compaction"
        );
        assert_eq!(stats.snapshot_fallbacks, 0);
        assert_eq!(stats.failed_shards, 0);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery bounded by a count, not a clock: a restart past a
    /// checkpoint folds exactly the journal tail the snapshot does not
    /// cover (`hp_replayed_records_total` = journal records − snapshot
    /// offset), and the same directory with every snapshot wrecked folds
    /// the whole journal.
    #[test]
    fn restart_replays_only_the_journal_tail_past_the_snapshot() {
        let dir = temp_dir("snap-tail");
        let server = ServerId::new(5);
        let feedbacks = restamp(&workload::honest_history(600, 0.9, 0x7A11), server);
        let config = snapshot_config(&dir, false);
        let replayed = |service: &ReputationService| {
            let snap = service.metrics().snapshot();
            snap.total(hp_service::obs::ShardMetric::ReplayedRecords)
        };
        // A boot's own count: the records it recovered (a loaded
        // snapshot's prefix included) and the snapshots it loaded.
        let boot = || {
            let progress = Arc::new(BootProgress::new());
            let service =
                ReputationService::new_with_progress(config.clone(), Some(Arc::clone(&progress)))
                    .unwrap();
            (service, progress)
        };
        let recovered = |progress: &BootProgress| {
            let status = progress.status();
            (status.replayed_records, status.snapshots_loaded)
        };
        {
            let service = ReputationService::new(config.clone()).unwrap();
            service.ingest_batch(feedbacks[..400].to_vec()).unwrap();
            service.shutdown(); // the final checkpoint covers 400 records
        }
        // What a process killed after journaling 200 more leaves behind:
        // a journal that runs past the newest snapshot.
        let path = dir.join("shard-0.hpj");
        let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::EveryBatch).unwrap();
        journal.append_batch(&feedbacks[400..]).unwrap();
        drop(journal);

        let (service, progress) = boot();
        let online = service.assess(server).expect("assess after restart");
        assert_eq!(*online, offline_verdict(&config, feedbacks.clone()));
        let stats = service.stats();
        assert_eq!((stats.journal_records, stats.snapshot_fallbacks), (600, 0));
        assert_eq!(
            replayed(&service),
            stats.journal_records - 400,
            "the tail, nothing more"
        );
        assert_eq!(recovered(&progress), (600, 1), "(recovered, snapshots)");
        service.shutdown(); // checkpoints again, at 600

        for file in snapshot_files(&dir) {
            let mut data = std::fs::read(&file).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0xFF;
            std::fs::write(&file, &data).unwrap();
        }
        let (service, progress) = boot();
        let online = service.assess(server).expect("assess after full replay");
        assert_eq!(*online, offline_verdict(&config, feedbacks));
        let stats = service.stats();
        assert_eq!(
            stats.snapshot_fallbacks, 2,
            "both retained snapshots rejected"
        );
        assert_eq!(replayed(&service), 600, "the whole journal");
        assert_eq!(recovered(&progress), (600, 0), "(recovered, snapshots)");
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same law with compaction on: each checkpoint rolls the
    /// journal into a sealed segment and deletes the segments below the
    /// older retained snapshot, so the journal's head is gone, and a
    /// restart still folds exactly the records past the snapshot's offset
    /// (`hp_replayed_records_total` = journal records − snapshot offset).
    #[test]
    fn compacting_restart_replays_only_the_journal_tail_past_the_snapshot() {
        let dir = temp_dir("snap-tail-compact");
        let server = ServerId::new(5);
        let feedbacks = restamp(&workload::honest_history(600, 0.9, 0x7A11), server);
        let config = snapshot_config(&dir, true);
        {
            let service = ReputationService::new(config.clone()).unwrap();
            service.ingest_batch(feedbacks[..200].to_vec()).unwrap();
            service.checkpoint().unwrap();
            service.ingest_batch(feedbacks[200..400].to_vec()).unwrap();
            service.shutdown(); // the final checkpoint covers 400 records
        }
        let path = dir.join("shard-0.hpj");
        let head = read_journal(&path, Some((0, 1))).unwrap();
        assert_eq!(
            (head.first_record, head.feedbacks.len()),
            (200, 200),
            "compaction deleted the head below the older snapshot"
        );
        // What a process killed after journaling 200 more leaves behind.
        let (mut journal, _) = FileJournal::open(&path, 0, 1, FsyncPolicy::EveryBatch).unwrap();
        journal.append_batch(&feedbacks[400..]).unwrap();
        drop(journal);

        let progress = Arc::new(BootProgress::new());
        let service =
            ReputationService::new_with_progress(config.clone(), Some(Arc::clone(&progress)))
                .unwrap();
        let online = service.assess(server).expect("assess after restart");
        assert_eq!(*online, offline_verdict(&config, feedbacks));
        let stats = service.stats();
        assert_eq!((stats.journal_records, stats.snapshot_fallbacks), (600, 0));
        let replayed = service
            .metrics()
            .snapshot()
            .total(hp_service::obs::ShardMetric::ReplayedRecords);
        assert_eq!(
            replayed,
            stats.journal_records - 400,
            "the tail, nothing more"
        );
        let status = progress.status();
        assert_eq!((status.replayed_records, status.snapshots_loaded), (600, 1));
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest an older build left beside its snapshots — here
    /// garbage — and a stray `.tmp` from a writer killed mid-snapshot: the
    /// boot finds the snapshots by name, deletes both leftovers, and
    /// recovery stays bit-identical.
    #[test]
    fn a_leftover_manifest_and_a_stray_temp_are_removed() {
        let dir = temp_dir("snap-manifest");
        let server = ServerId::new(7);
        let feedbacks = restamp(&workload::honest_history(450, 0.88, 0xACE), server);
        let config = snapshot_config(&dir, false);
        {
            let service = ReputationService::new(config.clone()).unwrap();
            service.ingest_batch(feedbacks[..300].to_vec()).unwrap();
            service.checkpoint().unwrap();
            service.ingest_batch(feedbacks[300..].to_vec()).unwrap();
            service.shutdown();
        }
        let manifest = dir.join("shard-0.manifest");
        std::fs::write(&manifest, b"\x00\xffnot a manifest\n").unwrap();
        let stray = dir.join("shard-0-00000000000000aa.hps.tmp");
        std::fs::write(&stray, b"torn").unwrap();

        let service = ReputationService::new(config.clone()).unwrap();
        let online = service.assess(server).expect("assess after restart");
        assert_eq!(*online, offline_verdict(&config, feedbacks));
        let stats = service.stats();
        assert_eq!((stats.failed_shards, stats.snapshot_fallbacks), (0, 0));
        assert!(!manifest.exists(), "the manifest is deleted");
        assert!(!stray.exists(), "the temp is deleted");
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Disk stays bounded across restarts. A boot loads the newest
    /// snapshot, which makes its offset and cold-segment floor known, so
    /// the one checkpoint each run ends with (at shutdown) compacts the
    /// journal and reclaims cold segments. Without compaction the journal
    /// keeps every record, one sealed segment a checkpoint, and the cold
    /// tier is reclaimed all the same.
    #[test]
    fn restarts_keep_journal_and_cold_segments_bounded() {
        const RUN: usize = 300;
        const BATCH: usize = 60;
        for compact in [true, false] {
            let dir = temp_dir("snap-bounded");
            let feedbacks = synth_feedbacks(6 * RUN, 0xB0B);
            let config = snapshot_config(&dir, compact).with_tiering(TieringPolicy {
                horizon: 128,
                spill_budget_bytes: Some(0),
            });
            let files = |dir: &Path, keep: &dyn Fn(&str) -> bool| {
                std::fs::read_dir(dir)
                    .unwrap()
                    .filter(|e| keep(e.as_ref().unwrap().file_name().to_str().unwrap()))
                    .count()
            };
            // A boot, then five restarts, each run ending in a checkpoint.
            for run in 0..6 {
                let service = ReputationService::new(config.clone()).unwrap();
                for chunk in feedbacks[run * RUN..(run + 1) * RUN].chunks(BATCH) {
                    service.ingest_batch(chunk.to_vec()).unwrap();
                }
                let stats = service.stats();
                assert_eq!((stats.failed_shards, stats.snapshot_fallbacks), (0, 0));
                service.shutdown();
                let sealed = files(&dir, &|name| {
                    name.starts_with("shard-0-") && name.ends_with(".hpj")
                });
                let cold = files(&dir.join("shard-0.segments"), &|_| true);
                let context = format!("compact={compact}, run {run}: {sealed} sealed, {cold} cold");
                if compact {
                    assert_eq!(sealed, 1, "{context}");
                } else {
                    assert_eq!(sealed, run + 1, "{context}");
                    let journal = read_journal(&dir.join("shard-0.hpj"), Some((0, 1))).unwrap();
                    assert_eq!(journal.feedbacks, feedbacks[..(run + 1) * RUN], "{context}");
                }
                // A run spills one segment a batch, and the two retained
                // snapshots reference at most the last two runs' segments.
                assert!(cold <= 2 * RUN / BATCH, "{context}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// After a snapshot boot the automatic checkpoint counts from the
    /// loaded snapshot's offset: it comes `interval_records` past it, not
    /// at the boot's first apply.
    #[test]
    fn a_snapshot_boot_checkpoints_an_interval_past_the_loaded_offset() {
        let dir = temp_dir("snap-interval");
        let server = ServerId::new(2);
        let feedbacks = restamp(&workload::honest_history(400, 0.9, 0x1DE), server);
        let config = snapshot_config(&dir, true).with_snapshots(SnapshotPolicy {
            interval_records: 100,
            compact_journal: true,
        });
        {
            let service = ReputationService::new(config.clone()).unwrap();
            service.ingest_batch(feedbacks[..250].to_vec()).unwrap();
            service.shutdown(); // the newest snapshot covers 250 records
        }
        let service = ReputationService::new(config.clone()).unwrap();
        let written = |service: &ReputationService| service.stats().snapshots_written;
        service.ingest_batch(feedbacks[250..349].to_vec()).unwrap();
        assert_eq!(written(&service), 0, "99 records past the loaded offset");
        service.ingest_batch(feedbacks[349..350].to_vec()).unwrap();
        assert_eq!(written(&service), 1, "100 records past it");
        service.ingest_batch(feedbacks[350..].to_vec()).unwrap();
        assert_eq!(written(&service), 1, "50 past the new one");
        let online = service.assess(server).expect("assess after restart");
        assert_eq!(*online, offline_verdict(&config, feedbacks));
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every snapshot corrupted *and* the journal compacted past them:
    /// there is no consistent state to rebuild, and the shard must fail
    /// loudly (unavailable) rather than answer from a partial fold.
    #[test]
    fn unrecoverable_shard_fails_loudly_never_answers_wrong() {
        let dir = temp_dir("snap-unrecoverable");
        let server = ServerId::new(4);
        let feedbacks = restamp(&workload::honest_history(500, 0.9, 0xF00), server);
        let config = snapshot_config(&dir, true);
        {
            let service = ReputationService::new(config.clone()).unwrap();
            service.ingest_batch(feedbacks[..350].to_vec()).unwrap();
            service.checkpoint().unwrap();
            service.ingest_batch(feedbacks[350..].to_vec()).unwrap();
            service.checkpoint().unwrap(); // compacts the journal to 350
            service.shutdown();
        }
        for file in snapshot_files(&dir) {
            let mut data = std::fs::read(&file).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0xFF;
            std::fs::write(&file, &data).unwrap();
        }
        let service = ReputationService::new(config).unwrap();
        assert!(
            service.assess(server).is_err(),
            "no answer beats a wrong answer"
        );
        let stats = service.stats();
        assert_eq!(stats.failed_shards, 1);
        assert!(stats.snapshot_fallbacks >= 1);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        // Each case builds two services (each calibrates); keep it low.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Corrupt the newest snapshot at *any* byte — flip or truncate,
        /// the torn-write and bit-rot cases — and recovery falls back
        /// (older snapshot + longer journal tail, or full replay when
        /// every snapshot is wrecked) to a bit-identical verdict.
        #[test]
        fn corrupt_snapshot_at_any_byte_falls_back_bit_identical(
            n1 in 80usize..300,
            n2 in 1usize..150,
            p in 0.7f64..0.98,
            seed in any::<u64>(),
            at_frac in 0.0f64..1.0,
            truncate in any::<bool>(),
            wreck_all in any::<bool>(),
        ) {
            let dir = temp_dir("snap-corrupt");
            let server = ServerId::new(seed % 89);
            let feedbacks =
                restamp(&workload::honest_history(n1 + n2, p, seed), server);
            // No compaction: the journal keeps everything, so even a
            // total snapshot loss must recover via full replay.
            let config = snapshot_config(&dir, false);
            {
                let service = ReputationService::new(config.clone()).unwrap();
                service.ingest_batch(feedbacks[..n1].to_vec()).unwrap();
                service.checkpoint().unwrap();
                service.ingest_batch(feedbacks[n1..].to_vec()).unwrap();
                service.shutdown(); // final checkpoint at n1+n2
            }
            let files = snapshot_files(&dir);
            prop_assert!(files.len() >= 2);
            let victims: Vec<PathBuf> = if wreck_all {
                files
            } else {
                vec![files.last().unwrap().clone()]
            };
            let wrecked = victims.len() as u64;
            for file in victims {
                let mut data = std::fs::read(&file).unwrap();
                let at = ((at_frac * data.len() as f64) as usize).min(data.len() - 1);
                if truncate {
                    data.truncate(at);
                } else {
                    data[at] ^= 0xFF;
                }
                std::fs::write(&file, &data).unwrap();
            }

            let service = ReputationService::new(config.clone()).unwrap();
            let online = service.assess(server).expect("assess after fallback");
            prop_assert_eq!(&*online, &offline_verdict(&config, feedbacks));
            let stats = service.stats();
            prop_assert_eq!(stats.snapshot_fallbacks, wrecked);
            prop_assert_eq!(stats.journal_records, (n1 + n2) as u64);
            prop_assert_eq!(stats.failed_shards, 0);
            drop(service);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Crash-anywhere property: panic the worker at *any* ingest command with
/// a durable journal; recovery replays the journal and the verdict stays
/// bit-identical to the offline fold of everything journaled.
#[cfg(feature = "fault-injection")]
mod crash_points {
    use super::*;
    use hp_service::FaultPlan;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn panic_at_any_ingest_recovers_equivalently(
            len in 50usize..400,
            seed in any::<u64>(),
            chunk in 20usize..90,
            crash_frac in 0.0f64..1.0,
        ) {
            let dir = temp_dir("crash-point");
            let server = ServerId::new(5);
            let feedbacks = restamp(&workload::honest_history(len, 0.9, seed), server);
            let commands = feedbacks.chunks(chunk).count() as u64;
            let nth = 1 + (crash_frac * commands as f64) as u64; // 1..=commands(+1 edge)
            let config = fast_config()
                .with_durability(Durability::Durable {
                    dir: dir.clone(),
                    fsync: FsyncPolicy::EveryBatch,
                })
                .with_fault_plan(FaultPlan::default().panic_at(0, nth));
            let service = ReputationService::new(config.clone()).unwrap();
            for batch in feedbacks.chunks(chunk) {
                let outcome = service.ingest_batch(batch.to_vec()).unwrap();
                prop_assert_eq!(outcome.accepted, batch.len());
            }
            let online = service.assess(server).expect("assess after recovery");
            prop_assert_eq!(&*online, &offline_verdict(&config, feedbacks));
            let stats = service.stats();
            prop_assert_eq!(stats.journal_records, len as u64, "crashed batch was journaled");
            prop_assert_eq!(stats.shard_restarts, u64::from(nth <= commands));
            prop_assert_eq!(stats.failed_shards, 0);
            drop(service);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
