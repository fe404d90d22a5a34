//! A durable directory written before the issuers left the served
//! history boots through its snapshots, and serves the verdicts a fresh
//! fold would.
//!
//! `tests/fixtures/issuer-layout` is the directory the build that still
//! kept an issuer column in every history (commit 64da238) wrote for
//! [`config`] and the stream [`feedback`] below: [`FIRST`] records, a
//! checkpoint, [`SECOND`] more (each batch evicting every history to a
//! cold segment), servers 0–2 assessed back into memory, a second
//! checkpoint — which compacted the journal to the first one's offset —
//! and [`TAIL`] records more, left in the journal without a checkpoint.
//! Its two retained snapshots per shard hold hot servers in the old
//! payload layout (issuer dictionary, per-issuer folded counts and codes
//! between the header and the outcome words) and spilled ones by
//! reference into segments of the same layout.
//!
//! The journal no longer holds the first records, so this directory can
//! only boot through a snapshot: a reader that refused the old layout
//! would fail the shard, not fall back.

use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
use hp_service::obs::ShardMetric;
use hp_service::{
    BootProgress, Durability, FsyncPolicy, OfflineReference, ReputationService, ServiceConfig,
    SnapshotPolicy, TieringPolicy,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SERVERS: u64 = 6;
/// Records before the first checkpoint.
const FIRST: u64 = 720;
/// Records between the two checkpoints.
const SECOND: u64 = 720;
/// Records journaled after the second checkpoint.
const TAIL: u64 = 60;

/// Feedback `t` of the stream: servers round-robin, issuers from a pool
/// of 23 regulars and a newcomer every fifth record.
fn feedback(t: u64) -> Feedback {
    let server = t % SERVERS;
    let client = if t.is_multiple_of(5) {
        1_000 + t
    } else {
        (t * 7 + server) % 23
    };
    Feedback::new(
        t / SERVERS,
        ServerId::new(server),
        ClientId::new(client),
        Rating::from_good(!t.is_multiple_of(13) && t % 17 != 3),
    )
}

/// The configuration the fixture was written under.
fn config(dir: PathBuf) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(2)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(200)
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None)
        .with_durability(Durability::Durable {
            dir,
            fsync: FsyncPolicy::Never,
        })
        .with_snapshots(SnapshotPolicy {
            interval_records: 0,
            compact_journal: true,
        })
        .with_tiering(TieringPolicy {
            horizon: 128,
            spill_budget_bytes: Some(0),
        })
}

/// A copy of the fixture directory to boot from (a boot writes).
fn fixture_copy() -> PathBuf {
    fn copy(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy(&entry.path(), &target);
            } else {
                std::fs::copy(entry.path(), target).unwrap();
            }
        }
    }
    let dir = std::env::temp_dir().join(format!("hp-upgrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/issuer-layout");
    copy(&fixture, &dir);
    dir
}

/// Every server's online verdict equals the offline reference's over the
/// first `records` of the stream.
fn assert_verdicts_match_offline(service: &ReputationService, records: u64) {
    let reference = OfflineReference::from_config(service.config()).unwrap();
    for server in (0..SERVERS).map(ServerId::new) {
        let rows: TransactionHistory = (0..records)
            .map(feedback)
            .filter(|f| f.server == server)
            .collect();
        let online = service.assess(server).unwrap();
        assert_eq!(
            *online,
            reference.assess(&rows).unwrap(),
            "{server:?} after {records} records"
        );
    }
}

#[test]
fn a_directory_of_the_issuer_layout_boots_through_its_snapshots() {
    let dir = fixture_copy();
    let journaled = FIRST + SECOND + TAIL;
    let progress = Arc::new(BootProgress::new());
    let service =
        ReputationService::new_with_progress(config(dir.clone()), Some(progress.clone())).unwrap();
    let stats = service.stats();
    assert_eq!(
        (stats.snapshot_fallbacks, stats.failed_shards),
        (0, 0),
        "(fallbacks, failed shards)"
    );
    assert_eq!(progress.status().snapshots_loaded, 2, "one per shard");
    let replayed = service
        .metrics()
        .snapshot()
        .total(ShardMetric::ReplayedRecords);
    assert_eq!(
        replayed, TAIL,
        "the journal past the snapshots, nothing more"
    );
    assert_eq!(stats.journal_records, journaled);
    assert!(stats.tier_spilled_bytes > 0, "the cold tier is in use");
    assert_verdicts_match_offline(&service, journaled);

    // The upgraded histories take new records, and the next checkpoint
    // writes them in the current layout, which boots too.
    let more = journaled + 2 * SERVERS * 40;
    service
        .ingest_batch((journaled..more).map(feedback))
        .unwrap();
    assert_verdicts_match_offline(&service, more);
    service.shutdown();
    let service = ReputationService::new(config(dir.clone())).unwrap();
    assert_eq!(service.stats().snapshot_fallbacks, 0);
    assert_verdicts_match_offline(&service, more);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
