//! Tiered-storage integration: eviction to cold segment files, fault-in
//! on access, restart-after-spill, corrupt-segment recovery, a segment
//! damaged under a running service, and a failed spill.
//!
//! The invariants under test:
//!
//! * Evicting a server's history and faulting it back never changes a
//!   verdict — bit-identical to an untiered control running the same
//!   horizon-capped test.
//! * A restart re-attaches spilled servers from the snapshot's segment
//!   references without replaying or rereading their history, and their
//!   post-restart verdicts match.
//! * A corrupted cold segment is detected at recovery (every spilled
//!   reference is faulted and checksum-verified before a snapshot is
//!   accepted) and the boot falls back to journal replay — degraded
//!   recovery time, never a wrong or missing history.
//! * A segment damaged while the service runs is a typed error on the
//!   next fault: the shard restarts and rebuilds from its journal, and
//!   no call answers a wrong verdict.
//! * A spill that cannot write its segment is counted in
//!   `hp_tier_spill_failures_total` and leaves the histories hot; the
//!   next batch spills them.

use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_service::obs::ShardMetric;
use hp_service::{
    Durability, FsyncPolicy, ReputationService, ServiceConfig, SnapshotPolicy, TieringPolicy,
};
use std::path::{Path, PathBuf};

const HORIZON: usize = 128;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hp-spill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast_test() -> BehaviorTestConfig {
    BehaviorTestConfig::builder()
        .calibration_trials(200)
        .build()
        .unwrap()
}

/// Durable single-shard service with tiering; a zero byte budget evicts
/// every cold history at each batch boundary — maximal spill coverage.
fn tiered_config(dir: PathBuf) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(1)
        .with_test(fast_test())
        .with_calibration_surface(None)
        .with_durability(Durability::Durable {
            dir,
            fsync: FsyncPolicy::Never,
        })
        .with_snapshots(SnapshotPolicy {
            interval_records: 1_000_000,
            compact_journal: true,
        })
        .with_tiering(TieringPolicy {
            horizon: HORIZON,
            spill_budget_bytes: Some(0),
        })
}

/// In-memory control with the *same effective test* (suffix sweep capped
/// at the horizon) but no tiering — the bit-identity baseline.
fn control_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(1)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(200)
                .max_suffix(Some(HORIZON))
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None)
}

fn feedbacks(servers: u64, per_server: u64, time_base: u64) -> Vec<Feedback> {
    let mut out = Vec::new();
    for t in 0..per_server {
        for s in 0..servers {
            out.push(Feedback::new(
                time_base + t,
                ServerId::new(s),
                ClientId::new((t + s) % 7),
                Rating::from_good(!(t * servers + s).is_multiple_of(13)),
            ));
        }
    }
    out
}

#[test]
fn eviction_and_fault_in_keep_verdicts_bit_identical() {
    let dir = tmp_dir("bit-identical");
    let tiered = ReputationService::new(tiered_config(dir.clone())).unwrap();
    let control = ReputationService::new(control_config()).unwrap();

    // Several batch boundaries: compaction folds past the horizon and
    // the zero budget evicts every history at each boundary.
    for round in 0..4 {
        let batch = feedbacks(10, 150, round * 150);
        tiered.ingest_batch(batch.clone()).unwrap();
        control.ingest_batch(batch).unwrap();
    }
    let mid = tiered.stats();
    assert!(
        mid.tier_compacted_records > 0,
        "histories crossed the horizon"
    );
    assert!(mid.tier_evictions > 0, "the zero budget must evict");
    assert!(
        mid.tier_spilled_bytes > 0 && mid.tier_hot_suffix_bytes == 0,
        "everything is cold between batches (spilled {}, hot {})",
        mid.tier_spilled_bytes,
        mid.tier_hot_suffix_bytes,
    );

    // Every assessment faults a cold history back in — and matches the
    // resident control bit-for-bit.
    for s in 0..10 {
        let server = ServerId::new(s);
        let a = tiered.assess(server).unwrap();
        let b = control.assess(server).unwrap();
        assert_eq!(*a, *b, "server {s}: spilled verdict diverged from control");
    }
    let stats = tiered.stats();
    assert!(stats.tier_faults >= 10, "each first assess faults in");
    assert!(
        tiered
            .render_prometheus()
            .contains("hp_history_resident_bytes"),
        "per-tier residency gauges are exported"
    );

    tiered.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_reattaches_spilled_servers_from_segment_refs() {
    let dir = tmp_dir("restart");
    let service = ReputationService::new(tiered_config(dir.clone())).unwrap();
    service.ingest_batch(feedbacks(6, 400, 0)).unwrap();

    // Assess everything (faults all in, fills the verdict caches), then
    // one more batch touching ONLY server 0: its boundary pass re-evicts
    // every hot history, but servers 1..6 keep their current caches, so
    // assessing them is served cold — they stay spilled through the
    // shutdown snapshot.
    for s in 0..6 {
        service.assess(ServerId::new(s)).unwrap();
    }
    service.ingest_batch(feedbacks(1, 1, 400)).unwrap();
    let mut after = Vec::new();
    for s in 0..6 {
        after.push(service.assess(ServerId::new(s)).unwrap());
    }
    assert!(
        service.stats().tier_spilled_bytes > 0,
        "cache-served assessments must not fault the histories back"
    );
    // The graceful shutdown takes a final snapshot capturing the spilled
    // residency by reference.
    service.shutdown();

    let revived = ReputationService::new(tiered_config(dir.clone())).unwrap();
    let boot = revived.stats();
    assert_eq!(boot.tracked_servers, 6);
    assert!(
        boot.tier_spilled_bytes > 0,
        "recovery re-attaches spilled servers without faulting them hot"
    );
    for s in 0..6 {
        let verdict = revived.assess(ServerId::new(s)).unwrap();
        assert_eq!(
            *verdict, *after[s as usize],
            "server {s}: post-restart verdict diverged"
        );
    }
    assert!(
        revived.stats().tier_faults > 0,
        "post-restart assessments fault from the reloaded segment refs"
    );
    revived.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flips a byte in the middle of every sealed segment file under `dir`.
fn corrupt_segments(dir: &Path) -> usize {
    let seg_dir = dir.join("shard-0.segments");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&seg_dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        if bytes.is_empty() {
            continue;
        }
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        corrupted += 1;
    }
    corrupted
}

#[test]
fn corrupt_segment_rejects_snapshot_and_replays_journal() {
    let dir = tmp_dir("corrupt");
    let service = ReputationService::new(tiered_config(dir.clone())).unwrap();
    service.ingest_batch(feedbacks(4, 300, 0)).unwrap();
    for s in 0..4 {
        service.assess(ServerId::new(s)).unwrap();
    }
    // Touch only server 0: the boundary re-evicts everything, servers
    // 1..4 stay spilled (their caches are still current), and the
    // shutdown snapshot references their cold segments.
    service.ingest_batch(feedbacks(1, 1, 300)).unwrap();
    let mut after = Vec::new();
    for s in 0..4 {
        after.push(service.assess(ServerId::new(s)).unwrap());
    }
    service.shutdown();

    assert!(corrupt_segments(&dir) > 0, "segments were written");

    // Every snapshot candidate references the now-corrupt segments, so
    // recovery must reject them all and fall back to journal replay —
    // slower, never wrong.
    let revived = ReputationService::new(tiered_config(dir.clone())).unwrap();
    assert_eq!(revived.stats().tracked_servers, 4);
    for s in 0..4 {
        let verdict = revived.assess(ServerId::new(s)).unwrap();
        assert_eq!(
            *verdict, *after[s as usize],
            "server {s}: replayed verdict diverged"
        );
    }
    revived.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that `tiered` and `control` give every one of `servers` the
/// same verdict, bit for bit.
fn assert_verdicts_match(tiered: &ReputationService, control: &ReputationService, servers: u64) {
    for s in 0..servers {
        let server = ServerId::new(s);
        let a = tiered.assess(server).unwrap();
        let b = control.assess(server).unwrap();
        assert_eq!(*a, *b, "server {s}: tiered verdict diverged from control");
    }
}

#[test]
fn a_segment_truncated_under_a_running_service_restarts_the_shard() {
    const SERVERS: u64 = 256;
    let dir = tmp_dir("truncated-live");
    let tiered = ReputationService::new(tiered_config(dir.clone())).unwrap();
    let control = ReputationService::new(control_config()).unwrap();
    let batch = feedbacks(SERVERS, 150, 0);
    tiered.ingest_batch(batch.clone()).unwrap();
    control.ingest_batch(batch).unwrap();
    // A stats round trip waits out the batch's tiering pass.
    assert_eq!(tiered.stats().tier_evictions, SERVERS);
    let segment = dir.join("shard-0.segments").join("seg-0000000000000000");
    let len = std::fs::metadata(&segment).unwrap().len();
    assert!(len > 3 * 4096, "the first segment spans pages ({len} B)");

    // One fault reads the segment, then it loses all but its header.
    let first = tiered.assess(ServerId::new(0)).unwrap();
    assert_eq!(*first, *control.assess(ServerId::new(0)).unwrap());
    assert_eq!(tiered.stats().tier_faults, 1);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap()
        .set_len(20)
        .unwrap();

    // Newest record first: the segment holds the victims coldest first,
    // so the first faults ask for bytes past its first page.
    for s in (0..SERVERS).rev() {
        let server = ServerId::new(s);
        if let Ok(verdict) = tiered.assess(server) {
            let truth = control.assess(server).unwrap();
            assert_eq!(*verdict, *truth, "server {s}: a wrong verdict");
        }
    }
    let stats = tiered.stats();
    assert!(
        stats.shard_restarts >= 1,
        "the failed fault restarts the shard"
    );
    assert_eq!(stats.failed_shards, 0);
    // The rebuilt shard spilled its journal's fold to a new segment.
    assert_verdicts_match(&tiered, &control, SERVERS);

    tiered.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_spill_is_counted_and_the_next_batch_spills() {
    const SERVERS: u64 = 8;
    let dir = tmp_dir("spill-failure");
    let tiered = ReputationService::new(tiered_config(dir.clone())).unwrap();
    let control = ReputationService::new(control_config()).unwrap();
    let failures = |service: &ReputationService| {
        service.stats().per_shard[0].get(ShardMetric::TierSpillFailures)
    };
    // A directory where the next segment's temp goes: its create fails.
    let blocker = dir
        .join("shard-0.segments")
        .join("seg-0000000000000000.tmp");
    std::fs::create_dir(&blocker).unwrap();

    let batch = feedbacks(SERVERS, 150, 0);
    tiered.ingest_batch(batch.clone()).unwrap();
    control.ingest_batch(batch).unwrap();
    assert_eq!(failures(&tiered), 1);
    assert_eq!(
        tiered.stats().tier_evictions,
        0,
        "nothing left the hot tier"
    );
    assert_verdicts_match(&tiered, &control, SERVERS);

    std::fs::remove_dir(&blocker).unwrap();
    let batch = feedbacks(SERVERS, 150, 150);
    tiered.ingest_batch(batch.clone()).unwrap();
    control.ingest_batch(batch).unwrap();
    assert!(tiered.stats().tier_evictions > 0, "the next batch spills");
    assert_eq!(failures(&tiered), 1);
    assert_verdicts_match(&tiered, &control, SERVERS);

    tiered.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
