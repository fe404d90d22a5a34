//! `resident_bytes()` is what the process holds, not an estimate.
//!
//! `/healthz`, `hp_history_resident_bytes` and the spill budget all read
//! [`TieredHistory::resident_bytes`]. A counting global allocator measures
//! the heap bytes a history actually keeps live, and the reported figure
//! must sit within ±10 % of it: on a young server, a deep one and a
//! compacted one, and after a rollback. The reported bytes per server are
//! held to 110 % of the figures the layout met, and a history decoded from
//! its bytes must do the resident one's work.
//!
//! A history holds outcomes only — two bits per feedback, whoever issued
//! it.

use hp_core::testing::{BehaviorTestConfig, MultiBehaviorTest};
use hp_core::{ClientId, Feedback, HistoryView, Rating, ServerId, TieredHistory};
use proptest::prelude::*;
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

fn assert_accounted(shape: &str, history: &TieredHistory, live: usize) {
    let reported = history.resident_bytes();
    let (low, high) = (live as f64 * 0.9, live as f64 * 1.1);
    assert!(
        (low..=high).contains(&(reported as f64)),
        "{shape}: resident_bytes() reports {reported} B, the heap holds {live} B"
    );
}

fn feedback(t: usize, client: u64, good: bool) -> Feedback {
    Feedback::new(
        t as u64,
        ServerId::new(1),
        ClientId::new(client),
        Rating::from_good(good),
    )
}

/// `pushes` feedbacks, every one from a new issuer: the Sybil shape, which
/// costs a history no more than any other.
fn all_distinct(pushes: u64) -> TieredHistory {
    (0..pushes)
        .map(|t| {
            feedback(
                t as usize,
                t.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                t % 7 != 0,
            )
        })
        .collect()
}

#[test]
fn young_deep_compacted_and_decoded_histories_report_what_they_hold() {
    for pushes in [256u64, 20_000] {
        let (history, live) = measured(|| all_distinct(pushes));
        assert_accounted(&format!("{pushes} pushes"), &history, live);
    }
    let (history, live) = measured(|| {
        let mut history = TieredHistory::new();
        for t in 0..100_000u64 {
            history.push(feedback(t as usize, t, t % 7 != 0));
            if t % 1000 == 999 {
                history.compact(2048);
            }
        }
        history
    });
    assert_accounted("100 000 pushes, compact(2048) per 1000", &history, live);
    let bytes = history.encode();
    let (decoded, live) = measured(|| TieredHistory::decode(&bytes).expect("round trip"));
    assert_accounted("decoded", &decoded, live);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rolling back to a mark leaves the history that only saw the
    /// records before it — bytes, window counts and heap — whether or not
    /// the prefix was folded before the mark.
    #[test]
    fn truncate_to_is_the_history_that_never_saw_the_tail(
        raw in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..600),
        split in 0usize..600,
        fold_before in (any::<bool>(), 0usize..300).prop_map(|(fold, horizon)| fold.then_some(horizon)),
        fold_after in 0usize..300,
    ) {
        let stream: Vec<Feedback> = raw
            .iter()
            .enumerate()
            .map(|(t, &(client, good))| feedback(t, u64::from(client), good))
            .collect();
        let (head, tail) = stream.split_at(split.min(stream.len()));
        let head_only = || {
            let mut history: TieredHistory = head.iter().copied().collect();
            if let Some(horizon) = fold_before {
                history.compact(horizon);
            }
            history
        };
        let mut never = head_only();
        let (mut cut, live) = measured(|| {
            let mut history = head_only();
            let mark = history.mark();
            history.extend(tail.iter().copied());
            history.truncate_to(&mark).expect("no fold since the mark");
            history
        });
        prop_assert_eq!(&cut, &never);
        prop_assert_eq!(cut.encode(), never.encode());
        prop_assert_eq!(cut.resident_bytes(), live, "reported vs heap after the cut");

        let next = feedback(stream.len(), 4242, true);
        cut.push(next);
        never.push(next);
        cut.compact(fold_after);
        never.compact(fold_after);
        prop_assert_eq!(&cut, &never);
        let (start, end) = (never.retained_start(), never.len());
        for m in [1usize, 7, 64] {
            prop_assert_eq!(cut.window_counts(start, end, m), never.window_counts(start, end, m));
        }
    }
}

/// Feedbacks in the classic single-server stream.
const N: u64 = 10_000;
/// The tiered figures are taken at 10× that length: memory must track the
/// retained suffix, not the history.
const N10: u64 = 10 * N;
/// The service's default assessment horizon.
const HORIZON: usize = 2048;
/// Feedbacks in one `deep_assess` server of the repo benchmark.
const DEEP: u64 = 20_000;

/// Each ceiling is 110 % of the figure measured when it was set, the
/// figure written beside it.
const MAX_TIERED_BYTES: f64 = 1.10 * 5_200.0;
/// A compacted history holds at most this share of the untiered bytes.
const MAX_TIERED_OVER_UNTIERED: f64 = 0.25;
/// The outcome-only figures: a 10 000-feedback server's 157 words and
/// their prefix popcounts, each `Vec` at the 256 words doubling left; a
/// `deep_assess` server's 313, at 512; the compacted 10× server's 33
/// retained words, allocated to the word by the fold.
const MAX_OUTCOMES_BYTES: f64 = 1.10 * 4_096.0;
const MAX_DEEP_OUTCOMES_BYTES: f64 = 1.10 * 8_192.0;
const MAX_COMPACTED_OUTCOMES_BYTES: f64 = 1.10 * 528.0;

/// One server's worth of feedback: skewed issuers (one heavy client, a
/// small honest pool).
fn skewed_stream(n: u64) -> impl Iterator<Item = Feedback> {
    (0..n).map(|t| {
        let client = if t % 3 == 0 { 997 } else { t % 23 };
        feedback(t as usize, client, t % 17 != 0)
    })
}

fn at_most(what: &str, got: f64, ceiling: f64) {
    println!("{what}: {got:.3} (ceiling {ceiling:.3})");
    assert!(got <= ceiling, "{what} {got} > {ceiling}");
}

/// Reported bytes per server, held to the figures the layout met: a
/// skewed 10 000-feedback server, a `deep_assess` server with the ids
/// `hp-load` draws (a seeded hash modulo a million clients, about 1 %
/// repeats), and the skewed server at 10× length compacted to the
/// horizon — against the ceilings the histories met while they held
/// issuers too, and against their own.
#[test]
fn resident_bytes_per_server_stay_within_their_ceilings() {
    let skewed: TieredHistory = skewed_stream(N).collect();
    let load_ids: TieredHistory = (0..DEEP)
        .map(|t| {
            let client = hp_stats::derive_seed(0x4850_4c44_434c, t) % 1_000_000;
            feedback(t as usize, client, t % 17 != 0)
        })
        .collect();
    let untiered: TieredHistory = skewed_stream(N10).collect();
    let mut tiered: TieredHistory = skewed_stream(N10).collect();
    tiered.compact(HORIZON);

    let bytes = |h: &TieredHistory| h.resident_bytes() as f64;
    at_most("outcome bytes", bytes(&skewed), MAX_OUTCOMES_BYTES);
    at_most(
        "deep outcome bytes",
        bytes(&load_ids),
        MAX_DEEP_OUTCOMES_BYTES,
    );
    at_most("tiered bytes", bytes(&tiered), MAX_TIERED_BYTES);
    at_most(
        "compacted outcome bytes",
        bytes(&tiered),
        MAX_COMPACTED_OUTCOMES_BYTES,
    );
    at_most(
        "tiered over untiered bytes",
        bytes(&tiered) / bytes(&untiered),
        MAX_TIERED_OVER_UNTIERED,
    );
    // The Sybil shape weighs what the skewed one does: no issuer is kept.
    assert_eq!(all_distinct(N).resident_bytes(), skewed.resident_bytes());
}

/// A history faulted back from its bytes answers the multi-test as the
/// resident one does: the same report, the same windows read and the same
/// threshold lookups. The fault's clock is `hp-store.segment_fault_us` in
/// `BENCHMARK.json`.
#[test]
fn a_decoded_history_does_the_work_of_the_hot_one() {
    let mut hot: TieredHistory = skewed_stream(N10).collect();
    hot.compact(HORIZON);
    let cold = TieredHistory::decode(&hot.encode()).expect("round trip");
    let test = MultiBehaviorTest::new(
        BehaviorTestConfig::builder()
            .calibration_trials(200)
            .max_suffix(Some(HORIZON))
            .build()
            .unwrap(),
    )
    .unwrap();
    // The first evaluation calibrates; the counted ones only look up.
    test.evaluate_detailed(&hot).unwrap();
    let counted = |history: &TieredHistory| {
        let lookups = || {
            let stats = test.calibrator().stats();
            stats.hits + stats.misses + stats.surface_hits
        };
        let before = lookups();
        let report = test.evaluate_detailed(history).unwrap();
        let windows: usize = report.suffixes.iter().map(|s| s.report.windows).sum();
        (report, windows, lookups() - before)
    };
    let (hot_report, hot_windows, hot_lookups) = counted(&hot);
    let (cold_report, cold_windows, cold_lookups) = counted(&cold);
    assert!(hot_lookups > 0);
    assert_eq!(cold_report, hot_report);
    assert_eq!(
        (cold_windows, cold_lookups),
        (hot_windows, hot_lookups),
        "(windows, lookups)"
    );
}
