//! No service-side term grows with accepted feedback.
//!
//! The per-server histories are the one thing an ephemeral service is
//! meant to keep per feedback, and they report their own heap bytes
//! exactly (`crates/core/tests/resident_accounting.rs`). A counting global
//! allocator measures everything the process holds; what is left after
//! subtracting the histories — queues, the in-flight batch, counters, the
//! state map — must be the same after 200 000 accepted feedbacks as after
//! 100 000. A second copy of the accepted records anywhere in the service
//! (the in-memory journal this guard was written against kept 32 B each:
//! 3.2 MB per 100 000) fails it.

use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_service::{ReputationService, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Heap bytes live in the whole process (allocated − freed): the shard
/// worker allocates on its own thread, so the count is global. This file
/// holds a single test, so nothing else runs beside it.
static LIVE: AtomicIsize = AtomicIsize::new(0);

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
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
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

#[test]
fn service_overhead_does_not_grow_with_accepted_feedback() {
    let config = ServiceConfig::default()
        .with_shards(1)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(200)
                .build()
                .unwrap(),
        )
        .with_prewarm_grid(vec![], vec![]);
    let service = ReputationService::new(config).unwrap();
    let mut overhead = Vec::new();
    for round in 0..2 {
        for batch in 0..ROUND / BATCH {
            let from = round * ROUND + batch * BATCH;
            service
                .ingest_batch((from..from + BATCH).map(feedback))
                .unwrap();
        }
        // The stats round-trip is a FIFO barrier (every batch above is
        // applied) and samples Σ `TieredHistory::resident_bytes()`.
        let stats = service.stats();
        assert_eq!(stats.tracked_feedbacks as u64, (round + 1) * ROUND);
        assert_eq!(stats.tracked_servers as u64, SERVERS);
        let histories = stats.tier_hot_suffix_bytes + stats.tier_summary_bytes;
        assert!(histories > 0);
        overhead.push(LIVE.load(Ordering::Relaxed) - histories as isize);
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
