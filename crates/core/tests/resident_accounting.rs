//! `resident_bytes()` is what the process holds, not an estimate.
//!
//! `/healthz`, `hp_history_resident_bytes` and the spill budget all read
//! [`TieredHistory::suffix_resident_bytes`] / `summary_resident_bytes`.
//! A counting global allocator measures the heap bytes a history actually
//! keeps live, and the reported figure must sit within ±10 % of it on the
//! shapes where an estimate used to go wrong: almost every feedback from
//! a new issuer (the million-client populations of `benchmark/`), a young
//! server, and a compacted one — each with the ids `hp-load` sends, which
//! fit 20 bits, and with ids over all 64. The ceilings are the measured
//! heap plus at most 3 %; the full-width ones are the ceilings the column
//! met before ids and codes were bit-packed, so no input got fatter.
//! The reported bytes per server are held to 110 % of the figures the
//! layout met, and a history decoded from its bytes must do the resident
//! one's work.

use hp_core::history::HistoryView;
use hp_core::testing::{BehaviorTestConfig, MultiBehaviorTest};
use hp_core::{ClientId, Feedback, Rating, ServerId, TieredHistory, TransactionHistory};
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

/// How a test population's client ids are spread.
#[derive(Debug, Clone, Copy)]
enum Ids {
    /// The way `hp-load` draws them (`crates/load/src/population.rs`):
    /// `% clients`, with at most a million clients, so below 2^20.
    Load,
    /// Over all 64 bits, which no workload sends: the column with 64-bit
    /// ids, held to the ceilings it met before ids were bit-packed.
    FullWidth,
}

impl Ids {
    /// The id of the `issuer`-th client. An odd multiplier permutes the
    /// `u64`s and, in its low 20 bits, the ids below 2^20: distinct
    /// issuers below 2^20 get distinct ids either way.
    fn of(self, issuer: u64) -> u64 {
        let spread = issuer.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        match self {
            Ids::Load => spread % (1 << 20),
            Ids::FullWidth => spread,
        }
    }
}

/// `pushes` feedbacks whose issuers cycle over `issuers` distinct ids,
/// spread as `ids` says.
fn pushed(pushes: u64, issuers: u64, ids: Ids) -> TieredHistory {
    let mut history = TieredHistory::new();
    for t in 0..pushes {
        let client = ids.of(t % issuers);
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

/// Pushes `pushes` feedbacks, each from a new issuer with an id spread
/// as `ids` says, checks `resident_bytes()` against the heap, and returns
/// the heap bytes per feedback.
fn all_distinct(pushes: u64, ids: Ids) -> f64 {
    let (history, live) = measured(|| pushed(pushes, pushes, ids));
    let shape = format!("{pushes} pushes, all distinct, {ids:?} ids");
    assert_accounted(&shape, &history, live);
    live as f64 / pushes as f64
}

#[test]
fn deep_history_of_all_distinct_issuers() {
    const PUSHES: u64 = 20_000;
    // 13.0 B measured (13.2 with 16-bit codes and slots, 15.3 while every
    // transaction stored a code).
    let per_feedback = all_distinct(PUSHES, Ids::FullWidth);
    assert!(
        per_feedback <= 13.6,
        "all-distinct issuers cost {per_feedback:.2} B/feedback of heap (ceiling 13.6)"
    );
    // The ids every workload sends fit 20 bits and 20 000 codes 15: 6.74 B
    // measured (8.55 with 32-bit ids and 16-bit codes, 10.7 with a code
    // per transaction).
    let per_feedback = all_distinct(PUSHES, Ids::Load);
    assert!(
        per_feedback <= 6.9,
        "all-distinct load ids cost {per_feedback:.2} B/feedback of heap (ceiling 6.9)"
    );
}

#[test]
fn the_65_535th_issuer_costs_a_bit_per_code_not_two_bytes() {
    // 65 534 issuers, one short of the mint that took codes and slots to
    // 32 bits: 16-bit codes and, since the 49 153rd issuer, 2^17 slots of
    // 17 bits. 13.3 B measured with 64-bit ids (13.0 with 16-bit slots,
    // under the same ceiling), 7.5 B with load ids (8.7 B while those took
    // 32 bits).
    for (ids, ceiling) in [(Ids::FullWidth, 13.4), (Ids::Load, 7.6)] {
        let per_feedback = all_distinct(65_534, ids);
        assert!(
            per_feedback <= ceiling,
            "65 534 distinct {ids:?} ids cost {per_feedback:.2} B/feedback (ceiling {ceiling})"
        );
    }
    // Widening codes and slots to 32 bits cost +4.0 B/feedback at the
    // 65 535th issuer. Now neither it nor the 65 536th, which takes codes
    // to 17 bits, costs anything where no issuer repeats (+0.0 B
    // measured).
    for ids in [Ids::FullWidth, Ids::Load] {
        for pushes in [65_535, 65_536] {
            let (short, widened) = (all_distinct(pushes - 1, ids), all_distinct(pushes, ids));
            assert!(
                widened - short <= 0.3,
                "issuer {pushes} of {ids:?} ids costs {:.2} B/feedback more",
                widened - short
            );
        }
    }
}

#[test]
fn young_history_of_all_distinct_issuers() {
    const PUSHES: u64 = 256;
    // 10.6 and 6.6 B measured (12.4 and 8.4 with whole-byte ids, codes
    // and slots; 14.3 and 10.3 while every transaction stored a code).
    let per_feedback = all_distinct(PUSHES, Ids::FullWidth);
    assert!(
        per_feedback <= 12.7,
        "all-distinct issuers cost {per_feedback:.2} B/feedback of heap (ceiling 12.7)"
    );
    let per_feedback = all_distinct(PUSHES, Ids::Load);
    assert!(
        per_feedback <= 6.8,
        "all-distinct load ids cost {per_feedback:.2} B/feedback of heap (ceiling 6.8)"
    );
}

/// The price of the `first_seen` bit where it buys nothing: a
/// `durable_tiered` server, whose writes are Zipf over the servers and
/// whose issuers are drawn as `hp-load` draws them from 256 clients, so
/// almost every feedback repeats one. A 1024-feedback server and a
/// 4096-feedback one compacted to the 2048 horizon both held 4.25 B per
/// retained feedback with a 2 B code per transaction and 4.38 B with the
/// bit beside 2 B repeats; at 9-bit repeats and 8-bit ids they hold 2.2
/// and 2.9 B, and the fold must give back what it freed.
#[test]
fn repeat_heavy_history_pays_at_most_a_bit_per_feedback() {
    for (pushes, horizon) in [(1024u64, None), (4096, Some(2048))] {
        let (history, live) = measured(|| {
            let mut history = TieredHistory::new();
            for t in 0..pushes {
                let client = hp_stats::derive_seed(0xfeed, t) % 256;
                history.push(feedback(t as usize, client, t % 7 != 0));
            }
            if let Some(horizon) = horizon {
                history.compact(horizon);
            }
            history
        });
        let shape = format!("{pushes} pushes over 256 load ids, horizon {horizon:?}");
        assert_accounted(&shape, &history, live);
        let per_feedback = live as f64 / history.suffix_len() as f64;
        assert!(
            per_feedback <= 3.0,
            "{shape}: {per_feedback:.3} B per retained feedback (ceiling 3.0)"
        );
    }
}

/// A compacted history of all-distinct issuers — the fold took thousands
/// of mints away — comes back from its bytes with the columns the pushes
/// left: a bit for each retained feedback, not 2 048 codes spelled out
/// (4 KiB more, which the equal heap would show).
#[test]
fn a_restored_compacted_history_is_as_compact_as_the_live_one() {
    for ids in [Ids::Load, Ids::FullWidth] {
        let mut history = pushed(8192, 8192, ids);
        assert_eq!(history.compact(2048), 6144);
        let restored = TieredHistory::decode(&history.encode()).expect("round trip");
        assert!(restored
            .issuer_column()
            .codes()
            .eq(history.issuer_column().codes()));
        let at_length = history.issuer_column().clone().resident_bytes();
        assert_eq!(
            restored.issuer_column().resident_bytes(),
            at_length,
            "{ids:?}"
        );
    }
}

#[test]
fn compacted_history_over_a_small_dictionary() {
    for ids in [Ids::FullWidth, Ids::Load] {
        let (history, live) = measured(|| {
            let mut history = pushed(4096, 256, ids);
            assert_eq!(history.compact(2048), 2048);
            history
        });
        assert_accounted(
            &format!("4096 pushes over 256 {ids:?} ids, compact(2048)"),
            &history,
            live,
        );
        assert!(history.summary_resident_bytes() > 0);
    }
}

fn feedback(t: usize, client: u64, good: bool) -> Feedback {
    Feedback::new(
        t as u64,
        ServerId::new(1),
        ClientId::new(client),
        Rating::from_good(good),
    )
}

/// Every query the assessment paths issue, plus the serialized bytes.
fn assert_same_history(cut: &TieredHistory, never: &TieredHistory) {
    assert_eq!(cut.encode(), never.encode());
    assert!(cut
        .issuer_column()
        .codes()
        .eq(never.issuer_column().codes()));
    assert_eq!(
        cut.issuer_column().frequency_order(),
        never.issuer_column().frequency_order()
    );
    assert_eq!(
        HistoryView::issuer_groups(cut),
        HistoryView::issuer_groups(never)
    );
    let (start, end) = (never.retained_start(), never.len());
    for m in [1usize, 7, 8, 10, 64] {
        assert_eq!(
            cut.window_counts(start, end, m),
            never.window_counts(start, end, m),
            "m = {m}"
        );
    }
    // Held at the widths, and with the first implicit code, the pushes
    // chose: a clone cuts each allocation to its length, so equal columns
    // at equal widths weigh the same. A decode (a snapshot load, a
    // fault-in) allocates to the byte and recovers the first implicit
    // code from the folded counts, so it weighs that too — compacted or
    // not.
    let at_length = |h: &TieredHistory| h.issuer_column().clone().resident_bytes();
    assert_eq!(at_length(cut), at_length(never));
    let decoded = TieredHistory::decode(&never.encode()).expect("round trip");
    assert_eq!(decoded.issuer_column().resident_bytes(), at_length(never));
    assert!(decoded
        .issuer_column()
        .codes()
        .eq(never.issuer_column().codes()));
    assert_eq!(decoded.encode(), never.encode());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rolling back to a mark leaves the history that only saw the
    /// records before it — bytes, orderings, counts, widths and heap —
    /// whether the tail brought new issuers or repeated old ones, whether
    /// or not the prefix was folded before the mark, and whether the mark
    /// sits before or after the first id above `u32::MAX`.
    #[test]
    fn truncate_to_is_the_history_that_never_saw_the_tail(
        raw in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..600),
        pool in (any::<bool>(), 1u64..=8, 9u64..=2000).prop_map(|(few, a, b)| if few { a } else { b }),
        split in 0usize..600,
        fold_before in (any::<bool>(), 0usize..300).prop_map(|(fold, horizon)| fold.then_some(horizon)),
        fold_after in 0usize..300,
        long_from in (any::<bool>(), 0usize..600).prop_map(|(long, at)| long.then_some(at)),
    ) {
        // From `long_from` on, an odd draw is an id at or above 2^32.
        let long = |t: usize, raw: u16| long_from.is_some_and(|at| t >= at) && raw % 2 == 1;
        let stream: Vec<Feedback> = raw
            .iter()
            .enumerate()
            .map(|(t, &(raw, good))| {
                let client = u64::from(raw) % pool + u64::from(long(t, raw)) * (1 << 32);
                feedback(t, client, good)
            })
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
        assert_same_history(&cut, &never);
        prop_assert_eq!(cut.resident_bytes(), live, "reported vs heap after the cut");

        // A long id after the cut widens what the cut may have narrowed.
        let next = feedback(stream.len(), 4242 + (u64::from(long_from.is_some()) << 32), true);
        cut.push(next);
        never.push(next);
        assert_same_history(&cut, &never);
        cut.compact(fold_after);
        never.compact(fold_after);
        assert_same_history(&cut, &never);
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
const MAX_COLUMNAR_BYTES: f64 = 1.10 * 14_416.0;
const MAX_COLUMNAR_DISTINCT_BYTES: f64 = 1.10 * 134_240.0;
const MAX_COLUMNAR_LOAD_IDS_BYTES: f64 = 1.10 * 135_256.0;
const MAX_TIERED_BYTES: f64 = 1.10 * 5_200.0;
/// The row store holds at least this many times the columnar bytes.
const MIN_ROWS_OVER_COLUMNAR: f64 = 4.0;
/// A compacted history holds at most this share of the untiered bytes.
const MAX_TIERED_OVER_UNTIERED: f64 = 0.25;

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
/// skewed 10 000-feedback server, the same one with every issuer distinct
/// and spread over 64 bits, a `deep_assess` server with the ids `hp-load`
/// draws (a seeded hash modulo a million clients, about 1 % repeats), and
/// the skewed server at 10× length compacted to the horizon.
#[test]
fn resident_bytes_per_server_stay_within_their_ceilings() {
    let columnar: TieredHistory = skewed_stream(N).collect();
    let mut rows = TransactionHistory::with_capacity(N as usize);
    skewed_stream(N).for_each(|f| rows.push(f));
    let distinct: TieredHistory = skewed_stream(N)
        .map(|f| Feedback {
            client: ClientId::new(f.time.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ..f
        })
        .collect();
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
    at_most("columnar bytes", bytes(&columnar), MAX_COLUMNAR_BYTES);
    at_most(
        "columnar distinct bytes",
        bytes(&distinct),
        MAX_COLUMNAR_DISTINCT_BYTES,
    );
    at_most(
        "columnar load-ids bytes",
        bytes(&load_ids),
        MAX_COLUMNAR_LOAD_IDS_BYTES,
    );
    at_most("tiered bytes", bytes(&tiered), MAX_TIERED_BYTES);
    let rows_over_columnar = rows.resident_bytes() as f64 / bytes(&columnar);
    println!("rows over columnar bytes: {rows_over_columnar:.1}");
    assert!(rows_over_columnar >= MIN_ROWS_OVER_COLUMNAR);
    at_most(
        "tiered over untiered bytes",
        bytes(&tiered) / bytes(&untiered),
        MAX_TIERED_OVER_UNTIERED,
    );
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
