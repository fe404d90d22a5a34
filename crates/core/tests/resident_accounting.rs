//! `resident_bytes()` is what the process holds, not an estimate.
//!
//! `/healthz`, `hp_history_resident_bytes` and the spill budget all read
//! [`TieredHistory::suffix_resident_bytes`] / `summary_resident_bytes`.
//! A counting global allocator measures the heap bytes a history actually
//! keeps live, and the reported figure must sit within ±10 % of it on the
//! shapes where an estimate used to go wrong: almost every feedback from
//! a new issuer (the million-client populations of `benchmark/`), a young
//! server, and a compacted one.

use hp_core::{ClientId, Feedback, Rating, ServerId, TieredHistory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap bytes live on this thread's account (allocated − freed). Per
    /// thread, so tests running beside this one do not disturb it; const
    /// and `Drop`-free, so the allocator may touch it at any time.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn account(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Builds a history with `build` and returns it with the heap bytes it
/// keeps live (everything allocated and not freed while building).
fn measured(build: impl FnOnce() -> TieredHistory) -> (TieredHistory, usize) {
    let before = LIVE.with(Cell::get);
    let history = build();
    let live = LIVE.with(Cell::get) - before;
    (
        history,
        usize::try_from(live).expect("a history holds memory"),
    )
}

/// `pushes` feedbacks whose issuers cycle over `issuers` distinct ids
/// (spread over the id space the way `hp-load`'s populations are).
fn pushed(pushes: u64, issuers: u64) -> TieredHistory {
    let mut history = TieredHistory::new();
    for t in 0..pushes {
        let client = (t % issuers).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        history.push(Feedback::new(
            t,
            ServerId::new(1),
            ClientId::new(client),
            Rating::from_good(t % 7 != 0),
        ));
    }
    history
}

fn assert_accounted(shape: &str, history: &TieredHistory, live: usize) {
    let reported = history.resident_bytes();
    assert_eq!(
        reported,
        history.suffix_resident_bytes() + history.summary_resident_bytes()
    );
    let (low, high) = (live as f64 * 0.9, live as f64 * 1.1);
    assert!(
        (low..=high).contains(&(reported as f64)),
        "{shape}: resident_bytes() reports {reported} B, the heap holds {live} B"
    );
}

#[test]
fn deep_history_of_all_distinct_issuers() {
    const PUSHES: u64 = 20_000;
    let (history, live) = measured(|| pushed(PUSHES, PUSHES));
    assert_accounted("20000 pushes, all distinct", &history, live);
    let per_feedback = live as f64 / PUSHES as f64;
    assert!(
        per_feedback <= 32.0,
        "all-distinct issuers cost {per_feedback:.1} B/feedback of heap (ceiling 32)"
    );
}

#[test]
fn young_history_of_all_distinct_issuers() {
    let (history, live) = measured(|| pushed(256, 256));
    assert_accounted("256 pushes, all distinct", &history, live);
}

#[test]
fn compacted_history_over_a_small_dictionary() {
    let (history, live) = measured(|| {
        let mut history = pushed(4096, 256);
        assert_eq!(history.compact(2048), 2048);
        history
    });
    assert_accounted(
        "4096 pushes over 256 issuers, compact(2048)",
        &history,
        live,
    );
    assert!(history.summary_resident_bytes() > 0);
}
