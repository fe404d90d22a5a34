//! No service-side term grows with accepted feedback, or with the depth
//! of the histories assessed.
//!
//! The per-server histories are the one thing an ephemeral service is
//! meant to keep per feedback, and they report their own heap bytes
//! exactly (`crates/core/tests/resident_accounting.rs`). A counting global
//! allocator measures everything the process holds; what is left after
//! subtracting the histories — queues, the in-flight batch, counters, the
//! state map, the cached verdicts — must be the same after 200 000
//! accepted feedbacks as after 100 000, and the same after assessing
//! 20 000-feedback servers as after assessing 2 000-feedback ones. A
//! second copy of the accepted records anywhere in the service (the
//! in-memory journal this guard was written against kept 32 B each:
//! 3.2 MB per 100 000) fails the first; a cached verdict that keeps one
//! report per suffix tested (88 B × history / step, which no gauge and no
//! spill budget counted: 1.27 MB here) fails the second.
//!
//! Nor does a history grow with the ids that feed it: a server flooded
//! from fresh identities holds its retained outcomes and nothing per
//! issuer, the same bytes after a second flood as after the first.

use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
use hp_service::{OfflineReference, ReputationService, ServiceConfig, TieringPolicy};
use hp_stats::SurfaceParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// Heap bytes live in the whole process (allocated − freed): the shard
/// worker allocates on its own thread, so the count is global, and the
/// tests of this file take [`ALONE`] so that none runs beside another.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static ALONE: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SERVERS: u64 = 8;
const BATCH: u64 = 1000;
const ROUND: u64 = 100_000;

/// Feedback `t` of the stream: servers round-robin, every other issuer
/// new to its server, the rest from a pool of 40 regulars.
fn feedback(t: u64) -> Feedback {
    let client = if t.is_multiple_of(2) {
        t.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    } else {
        t % 40
    };
    Feedback::new(
        t / SERVERS,
        ServerId::new(t % SERVERS),
        ClientId::new(client),
        Rating::from_good(!t.is_multiple_of(11)),
    )
}

fn config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(1)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(200)
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None)
}

/// Live heap minus what the histories account for, once every batch sent
/// so far is applied.
fn overhead_beside_histories(service: &ReputationService, feedbacks: u64) -> isize {
    // The stats round-trip is a FIFO barrier (every batch sent before it
    // is applied) and samples Σ `TieredHistory::resident_bytes()`.
    let stats = service.stats();
    assert_eq!(stats.tracked_feedbacks as u64, feedbacks);
    assert_eq!(stats.tracked_servers as u64, SERVERS);
    let histories = stats.tier_hot_suffix_bytes;
    assert!(histories > 0);
    LIVE.load(Ordering::Relaxed) - histories as isize
}

#[test]
fn service_overhead_does_not_grow_with_accepted_feedback() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let service = ReputationService::new(config()).unwrap();
    let mut overhead = Vec::new();
    for round in 0..2 {
        for batch in 0..ROUND / BATCH {
            let from = round * ROUND + batch * BATCH;
            service
                .ingest_batch((from..from + BATCH).map(feedback))
                .unwrap();
        }
        overhead.push(overhead_beside_histories(&service, (round + 1) * ROUND));
    }
    let growth = overhead[1] - overhead[0];
    assert!(
        growth.abs() < 64 * 1024,
        "service heap beside the histories moved by {growth} B over {ROUND} more \
         accepted feedbacks ({} B after the first {ROUND}, {} B after the second)",
        overhead[0],
        overhead[1]
    );
}

#[test]
fn a_cached_verdict_does_not_grow_with_the_history_it_was_computed_from() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    // With the surface on, as every deployment runs: the row cache then
    // holds the rows below the surface's k_min, which both depths visit.
    // The tolerance is wide because 200 trials measure a wide error bound
    // and a bypassed layer would send every k to a row job.
    let service = ReputationService::new(config().with_calibration_surface(Some(SurfaceParams {
        tolerance: 10.0,
        ..SurfaceParams::default()
    })))
    .unwrap();
    let servers: Vec<ServerId> = (0..SERVERS).map(ServerId::new).collect();
    let mut overhead = Vec::new();
    let mut sent = 0;
    for per_server in [2_000, 20_000] {
        while sent < per_server * SERVERS {
            service
                .ingest_batch((sent..sent + BATCH).map(feedback))
                .unwrap();
            sent += BATCH;
        }
        // Every server's verdict is computed — ≈ per_server / 10 suffix
        // tests each — and cached, in the state and the published map.
        for (_, verdict) in service.assess_many(&servers).unwrap() {
            verdict.unwrap();
        }
        overhead.push(overhead_beside_histories(&service, sent));
    }
    let growth = overhead[1] - overhead[0];
    assert!(
        growth.abs() < 64 * 1024,
        "service heap beside the histories moved by {growth} B between assessing {SERVERS} \
         servers at 2 000 and at 20 000 feedbacks ({} B, then {} B)",
        overhead[0],
        overhead[1]
    );
}

/// Feedbacks per flood, a whole number of batches. The adversary of
/// ROADMAP item 6 sends 10⁶ from as many new ids, then 10⁶ more; at a
/// quarter of that the debug run takes a few seconds and the oracle's row
/// history (≈ 110 B per record, most of it its per-client index) stays
/// under 60 MB.
const FLOOD: u64 = 256 * BATCH;
/// The assessment horizon of the flooded server.
const FLOOD_HORIZON: usize = 2048;
/// What the flooded server's history may hold: the bits and per-word
/// prefix popcounts (two `u64` per 64 outcomes) of at most
/// `FLOOD_HORIZON + 63` retained outcomes — a compaction leaves whole
/// words — with one doubling of growth on top.
const FLOOD_CEILING: u64 = 2 * 8 * 2 * (FLOOD_HORIZON as u64 + 63).div_ceil(64);

/// Feedback `t` of the flood: one server, every issuer an id never seen
/// before.
fn sybil(t: u64) -> Feedback {
    Feedback::new(
        t,
        ServerId::new(0),
        ClientId::new(t.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        Rating::from_good(!t.is_multiple_of(10)),
    )
}

#[test]
fn a_sybil_flood_cannot_grow_a_server() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let config = config().with_tiering(TieringPolicy {
        horizon: FLOOD_HORIZON,
        spill_budget_bytes: None,
    });
    let service = ReputationService::new(config.clone()).unwrap();
    let mut held = Vec::new();
    for flood in 0..2 {
        for from in (flood * FLOOD..(flood + 1) * FLOOD).step_by(BATCH as usize) {
            service
                .ingest_batch((from..from + BATCH).map(sybil))
                .unwrap();
        }
        held.push(service.stats().tier_hot_suffix_bytes);
    }
    println!(
        "a server flooded by {FLOOD} new ids holds {} B, by {} more {} B (ceiling {FLOOD_CEILING} B)",
        held[0], FLOOD, held[1]
    );
    assert!(held[0] > 0);
    assert!(
        held[1].abs_diff(held[0]) <= held[0],
        "the second flood moved the history from {} B to {} B",
        held[0],
        held[1]
    );
    assert!(
        held[1] <= FLOOD_CEILING,
        "{} B > {FLOOD_CEILING} B",
        held[1]
    );

    let reference = OfflineReference::from_config(&config).unwrap();
    let rows: TransactionHistory = (0..2 * FLOOD).map(sybil).collect();
    let online = service.assess(ServerId::new(0)).unwrap();
    assert_eq!(*online, reference.assess(&rows).unwrap());
}
