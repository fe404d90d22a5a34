//! Durability benchmarks: journal append overhead and time-to-recover.
//!
//! Timed and written by the shared `hp_bench` harness into
//! `experiments/out/bench_recovery.json`.
//!
//! Shapes to look for:
//!
//! * `journal_append/*` — per-record append cost. `durable_never` should
//!   sit within a small constant of `ephemeral` (one buffered write);
//!   `durable_fsync_batch` is dominated by the fsync and shows the price
//!   of the strongest durability setting;
//! * `ingest_1k/*` — the same comparison end-to-end through
//!   `ingest_batch`, where assessment bookkeeping dilutes the journal
//!   cost;
//! * `recover/len=*` — raw journal scan time, linear in journal length;
//! * `service_restart/len=*` — full `ReputationService::new` on an
//!   existing journal directory (replay + fold); compare against
//!   `service_restart/len=0` to isolate the recovery share from the
//!   fixed calibration cost;
//! * `service_restart_snapshot/len=*` — the same restart with a
//!   checkpoint present, so boot loads the snapshot and replays only
//!   the journal tail. The JSON carries a `restart` object with the
//!   snapshot-boot/full-replay speedup at the largest length, reported,
//!   not gated.
//!
//! The gate is a count, not a clock: every boot asserts how many journal
//! records it recovered and how many of those it folded — the whole
//! journal on a full replay, none past a snapshot that covers it.

use hp_bench::{measure, measure_span, print_rows, write_json, Row};
use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_service::journal::{read_journal, FileJournal, FsyncPolicy};
use hp_service::obs::ShardMetric;
use hp_service::{
    BootProgress, Durability, ReputationService, ServiceConfig, ServiceStats, SnapshotPolicy,
    TieringPolicy,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const APPEND_BATCH: usize = 1_024;

fn batch(start_t: u64, len: usize) -> Vec<Feedback> {
    (0..len as u64)
        .map(|i| {
            let t = start_t + i;
            Feedback::new(
                t,
                ServerId::new(t % 32),
                ClientId::new(t % 101),
                Rating::from_good(!t.is_multiple_of(19)),
            )
        })
        .collect()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hp-bench-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn fast_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(1)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(500)
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None)
}

/// Raw journal append cost per 1 024-record batch, by backend.
fn bench_journal_append(rows: &mut Vec<Row>) {
    let feedbacks = batch(0, APPEND_BATCH);

    let mut log = Vec::new();
    rows.push(measure(
        "journal_append/ephemeral",
        200,
        APPEND_BATCH as u64,
        || {
            log.extend_from_slice(&feedbacks);
        },
    ));

    for (label, policy, samples) in [
        ("journal_append/durable_never", FsyncPolicy::Never, 200),
        (
            "journal_append/durable_fsync_batch",
            FsyncPolicy::EveryBatch,
            50,
        ),
    ] {
        let dir = scratch_dir(label.rsplit('/').next().unwrap());
        let (mut journal, _) = FileJournal::open(&dir.join("shard-0.hpj"), 0, 1, policy).unwrap();
        rows.push(measure(label, samples, APPEND_BATCH as u64, || {
            journal.append_batch(&feedbacks).unwrap();
        }));
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// End-to-end `ingest_batch` cost (send + journal + apply, bounded by a
/// stats round-trip) per durability setting.
fn bench_ingest_overhead(rows: &mut Vec<Row>) {
    let configs: Vec<(&str, ServiceConfig, Option<PathBuf>)> = vec![
        ("ingest_1k/ephemeral", fast_config(), None),
        {
            let dir = scratch_dir("ingest-never");
            (
                "ingest_1k/durable_never",
                fast_config().with_durability(Durability::Durable {
                    dir: dir.clone(),
                    fsync: FsyncPolicy::Never,
                }),
                Some(dir),
            )
        },
        {
            let dir = scratch_dir("ingest-fsync");
            (
                "ingest_1k/durable_fsync_batch",
                fast_config().with_durability(Durability::Durable {
                    dir: dir.clone(),
                    fsync: FsyncPolicy::EveryBatch,
                }),
                Some(dir),
            )
        },
    ];
    for (label, config, dir) in configs {
        let service = ReputationService::new(config).unwrap();
        let mut t = 0u64;
        rows.push(measure(label, 50, APPEND_BATCH as u64, || {
            service.ingest_batch(batch(t, APPEND_BATCH)).unwrap();
            t += APPEND_BATCH as u64;
            // Round-trip the shard queue so the worker's journal+apply
            // work is inside the timed window.
            black_box(service.stats().ingested_feedbacks)
        }));
        drop(service);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Boots `config` on its `len`-record journal, timed until replay is
/// complete; the drain after it (where a snapshot boot writes a fresh
/// checkpoint) stays untimed. The gate is a count: the boot recovers the
/// whole journal (`BootStatus` credits a loaded snapshot's prefix as
/// recovered) and folds exactly the records past its snapshot, which
/// covers the first `offset` (0: no snapshot), into
/// `hp_replayed_records_total`.
fn boot(config: &ServiceConfig, len: usize, offset: usize) -> (Duration, ServiceStats) {
    let t0 = Instant::now();
    let progress = Arc::new(BootProgress::new());
    let service =
        ReputationService::new_with_progress(config.clone(), Some(Arc::clone(&progress))).unwrap();
    // Barrier: recovery replay is complete once stats round-trips.
    let stats = service.stats();
    let elapsed = t0.elapsed();
    let registry = service.metrics().snapshot();
    service.shutdown();
    let status = progress.status();
    let folded = registry.total(ShardMetric::ReplayedRecords);
    let got = (status.replayed_records, folded, status.snapshots_loaded);
    let want = (len as u64, (len - offset) as u64, u64::from(offset > 0));
    assert_eq!(stats.journal_records, len as u64);
    assert_eq!(got, want, "gate failed: (recovered, folded, snapshots)");
    (elapsed, stats)
}

/// Prints the count every sample of one boot shape was held to.
fn print_gate(what: &str, len: usize, offset: usize) {
    let folded = len - offset;
    println!("gate: {what} at len={len} recovers {len} records, folds {folded}");
}

fn write_journal(path: &Path, len: usize) {
    let (mut journal, _) = FileJournal::open(path, 0, 1, FsyncPolicy::Never).unwrap();
    for start in (0..len).step_by(APPEND_BATCH) {
        let n = APPEND_BATCH.min(len - start);
        journal.append_batch(&batch(start as u64, n)).unwrap();
    }
    journal.sync().unwrap();
}

/// Raw recovery scan and full service restart versus journal length.
fn bench_recovery(rows: &mut Vec<Row>) {
    for &len in &[0usize, 10_000, 100_000, 400_000] {
        let dir = scratch_dir(&format!("recover-{len}"));
        let path = dir.join("shard-0.hpj");
        write_journal(&path, len);

        if len > 0 {
            rows.push(measure(
                &format!("recover/len={len}"),
                20,
                len as u64,
                || {
                    let recovered = read_journal(&path, Some((0, 1))).unwrap();
                    assert_eq!(recovered.feedbacks.len(), len);
                    recovered
                },
            ));
        }

        let config = fast_config().with_durability(Durability::Durable {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
        });
        rows.push(measure_span(
            &format!("service_restart/len={len}"),
            5,
            len as u64,
            || boot(&config, len, 0).0,
        ));
        print_gate("full replay", len, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Restart with a checkpoint present: boot recovers from snapshot +
/// journal tail instead of re-folding the whole journal. The journal is
/// left uncompacted (`compact_journal: false`) so both this and the
/// `service_restart` rows read the same on-disk journal; only the
/// recovery path differs.
fn bench_snapshot_restart(rows: &mut Vec<Row>) {
    for &len in &[10_000usize, 100_000, 400_000] {
        let dir = scratch_dir(&format!("recover-snap-{len}"));
        write_journal(&dir.join("shard-0.hpj"), len);

        let config = fast_config()
            .with_durability(Durability::Durable {
                dir: dir.clone(),
                fsync: FsyncPolicy::Never,
            })
            .with_snapshots(SnapshotPolicy {
                interval_records: 0,
                compact_journal: false,
            });

        // Seed the checkpoint: one full-replay boot, snapshot, drain.
        {
            let service = ReputationService::new(config.clone()).unwrap();
            assert_eq!(service.stats().journal_records, len as u64);
            let summary = service.checkpoint().unwrap();
            assert_eq!(summary.shards_snapshotted, 1);
            service.shutdown();
        }

        // The seed checkpoint was taken after folding the whole journal.
        rows.push(measure_span(
            &format!("service_restart_snapshot/len={len}"),
            5,
            len as u64,
            || boot(&config, len, len).0,
        ));
        print_gate("snapshot boot", len, len);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Restart after the whole population has been spilled to cold
/// segments: the checkpoint holds segment *references*, so boot
/// revalidates every reference (one fault + checksum + decode per
/// spilled server) on top of the snapshot load, and replays no more of
/// the journal than a snapshot boot does.
fn bench_spill_restart(rows: &mut Vec<Row>) {
    const LEN: usize = 400_000;
    let dir = scratch_dir("recover-spill");
    write_journal(&dir.join("shard-0.hpj"), LEN);

    let config = fast_config()
        .with_durability(Durability::Durable {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
        })
        .with_snapshots(SnapshotPolicy {
            interval_records: 0,
            compact_journal: false,
        })
        .with_tiering(TieringPolicy {
            horizon: 2048,
            spill_budget_bytes: Some(0),
        });

    // Seed: a full-replay boot compacts and evicts everything (zero
    // budget), and the checkpoint captures the spilled residency.
    {
        let service = ReputationService::new(config.clone()).unwrap();
        assert_eq!(service.stats().journal_records, LEN as u64);
        let summary = service.checkpoint().unwrap();
        assert_eq!(summary.shards_snapshotted, 1);
        service.shutdown();
    }

    rows.push(measure_span(
        &format!("service_restart_spill/len={LEN}"),
        5,
        LEN as u64,
        || {
            let (elapsed, stats) = boot(&config, LEN, LEN);
            assert!(
                stats.tier_spilled_bytes > 0,
                "gate failed: boot must re-attach spilled servers, not fault them hot"
            );
            elapsed
        },
    ));
    print_gate("spill boot", LEN, LEN);
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let mut rows = Vec::new();
    println!("recovery benchmarks (journal append overhead, time-to-recover)\n");
    bench_journal_append(&mut rows);
    bench_ingest_overhead(&mut rows);
    bench_recovery(&mut rows);
    bench_snapshot_restart(&mut rows);
    bench_spill_restart(&mut rows);
    print_rows(&rows);

    // Snapshot-boot speedup over full replay at the largest journal,
    // reported: the replay counts above are the gate.
    let mean_of = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ns)
            .expect("restart row missing")
    };
    let full = mean_of("service_restart/len=400000");
    let snap = mean_of("service_restart_snapshot/len=400000");
    let spill = mean_of("service_restart_spill/len=400000");
    let speedup = full as f64 / snap as f64;
    let spill_speedup = full as f64 / spill as f64;
    let restart = format!(
        "\"restart\": {{\"len\": 400000, \"full_replay_ms\": {:.2}, \"snapshot_boot_ms\": {:.2}, \
         \"snapshot_restart_speedup\": {:.2}, \"spill_boot_ms\": {:.2}, \
         \"spill_restart_speedup\": {:.2}}}",
        full as f64 / 1e6,
        snap as f64 / 1e6,
        speedup,
        spill as f64 / 1e6,
        spill_speedup,
    );
    println!(
        "\nsnapshot-boot at 400k records: {:.2}ms vs {:.2}ms full replay ({speedup:.1}x)",
        snap as f64 / 1e6,
        full as f64 / 1e6,
    );
    println!(
        "spill-restart at 400k records: {:.2}ms vs {:.2}ms full replay ({spill_speedup:.1}x)",
        spill as f64 / 1e6,
        full as f64 / 1e6,
    );
    write_json("recovery", &rows, &restart);
}
