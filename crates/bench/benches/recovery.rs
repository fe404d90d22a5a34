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
//!   the journal tail. The JSON carries a `gate` object with the
//!   snapshot-boot/full-replay speedup at the largest length, which
//!   `ci.sh` compares against
//!   `experiments/baselines/bench_recovery_baseline.json`.

use hp_bench::{measure, measure_span, print_rows, write_json, Row};
use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_service::journal::{read_journal, FileJournal, FsyncPolicy};
use hp_service::{
    BootProgress, Durability, ReputationService, ServiceConfig, SnapshotPolicy, TieringPolicy,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

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
            || {
                let t0 = Instant::now();
                let service = ReputationService::new(config.clone()).unwrap();
                // Barrier: recovery replay is complete once stats round-trips.
                assert_eq!(service.stats().journal_records, len as u64);
                let boot = t0.elapsed();
                service.shutdown();
                boot
            },
        ));
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

        rows.push(measure_span(
            &format!("service_restart_snapshot/len={len}"),
            5,
            len as u64,
            || {
                let t0 = Instant::now();
                let boot = Arc::new(BootProgress::new());
                let service =
                    ReputationService::new_with_progress(config.clone(), Some(Arc::clone(&boot)))
                        .unwrap();
                assert_eq!(service.stats().journal_records, len as u64);
                let elapsed = t0.elapsed();
                assert_eq!(
                    boot.status().snapshots_loaded,
                    1,
                    "snapshot-boot fell back to full replay"
                );
                // The drain below writes a fresh checkpoint; that is
                // steady-state work, not recovery, so it stays untimed.
                service.shutdown();
                elapsed
            },
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Restart after the whole population has been spilled to cold
/// segments: the checkpoint holds segment *references*, so boot
/// revalidates every reference (one fault + checksum + decode per
/// spilled server) on top of the snapshot load. The added cost must not
/// push recovery out of the snapshot-restart gate.
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
            let t0 = Instant::now();
            let boot = Arc::new(BootProgress::new());
            let service =
                ReputationService::new_with_progress(config.clone(), Some(Arc::clone(&boot)))
                    .unwrap();
            let stats = service.stats();
            assert_eq!(stats.journal_records, LEN as u64);
            assert!(
                stats.tier_spilled_bytes > 0,
                "boot must re-attach spilled servers, not fault them hot"
            );
            let elapsed = t0.elapsed();
            assert_eq!(
                boot.status().snapshots_loaded,
                1,
                "spill-restart fell back to full replay"
            );
            service.shutdown();
            elapsed
        },
    ));
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

    // Snapshot-boot speedup over full replay at the largest journal —
    // the number ci.sh gates against the committed baseline.
    let mean_of = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ns)
            .expect("gate row missing")
    };
    let full = mean_of("service_restart/len=400000");
    let snap = mean_of("service_restart_snapshot/len=400000");
    let spill = mean_of("service_restart_spill/len=400000");
    let speedup = full as f64 / snap as f64;
    let spill_speedup = full as f64 / spill as f64;
    let gate = format!(
        "\"gate\": {{\"len\": 400000, \"full_replay_ms\": {:.2}, \"snapshot_boot_ms\": {:.2}, \
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
    write_json("recovery", &rows, &gate);
}
