//! Property tests: tiered (horizon-compacted) histories are *bit-identical*
//! to the row reference whenever the queries fit the retained suffix, and
//! degrade with a **typed** error — never a silently wrong answer — when
//! they do not.
//!
//! The invariant the tiered-storage refactor rests on: for any feedback
//! sequence, any compaction horizon and any interleaving of compaction
//! with ingest, a multi-test capped at `max_suffix ≤ horizon` must produce
//! the same verdicts and reports against the [`TieredHistory`] as against
//! a [`TransactionHistory`] fed the same stream. Queries that would
//! need bits from the folded prefix surface
//! [`StatsError::HorizonExceeded`] instead of an approximation. The
//! service-side half (eviction to cold segments and fault-in) is covered
//! by `crates/service/tests/spill.rs`.

use hp_core::testing::{BehaviorTestConfig, CollusionResilientTest, MultiBehaviorTest};
use hp_core::{
    ClientId, CoreError, Feedback, HistoryView, Rating, ServerId, TieredHistory, TransactionHistory,
};
use hp_stats::StatsError;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A generated feedback stream: monotone times, issuers drawn from a small
/// pool (guaranteeing duplicates), arbitrary outcomes. Long enough that
/// compaction has whole words to fold past a three-digit horizon.
fn feedback_stream() -> impl Strategy<Value = Vec<Feedback>> {
    (
        1u64..=8, // issuer pool size
        proptest::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 0..600),
    )
        .prop_map(|(pool, raw)| {
            let mut time = 0u64;
            raw.into_iter()
                .map(|(good, client, gap)| {
                    time += u64::from(gap % 4);
                    Feedback::new(
                        time,
                        ServerId::new(7),
                        ClientId::new(u64::from(client) % pool),
                        Rating::from_good(good),
                    )
                })
                .collect()
        })
}

/// Feeds the same stream into both layouts, compacting the tiered copy
/// every `cadence` pushes (compaction interleaved with ingest, not just a
/// single terminal pass).
fn both(
    stream: &[Feedback],
    horizon: usize,
    cadence: usize,
) -> (TransactionHistory, TieredHistory) {
    let mut rows = TransactionHistory::new();
    let mut tiered = TieredHistory::new();
    for (i, &f) in stream.iter().enumerate() {
        rows.push(f);
        tiered.push(f);
        if (i + 1) % cadence == 0 {
            tiered.compact(horizon);
        }
    }
    tiered.compact(horizon);
    (rows, tiered)
}

fn capped_config(max_suffix: usize) -> BehaviorTestConfig {
    BehaviorTestConfig::builder()
        .calibration_trials(200)
        .max_suffix(Some(max_suffix))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline equivalence: a horizon-capped multi-test cannot tell
    /// a compacted history from the full-resolution original.
    #[test]
    fn capped_multi_test_is_bit_identical_after_compaction(
        stream in feedback_stream(),
        horizon in 100usize..=200,
        cadence in 1usize..=97,
    ) {
        let (rows, tiered) = both(&stream, horizon, cadence);
        let test = MultiBehaviorTest::new(capped_config(horizon)).unwrap();
        prop_assert_eq!(
            test.evaluate_detailed(&tiered).unwrap(),
            test.evaluate_detailed(&rows).unwrap()
        );
        // A cap *below* the horizon still fits the retained suffix.
        let tighter = MultiBehaviorTest::new(capped_config(100)).unwrap();
        prop_assert_eq!(
            tighter.evaluate_detailed(&tiered).unwrap(),
            tighter.evaluate_detailed(&rows).unwrap()
        );
    }

    /// Aggregates are exact across both tiers, and suffix-resident
    /// queries answer identically; the compaction cadence is irrelevant.
    #[test]
    fn aggregates_and_suffix_queries_agree(
        stream in feedback_stream(),
        horizon in 100usize..=200,
        cadence in 1usize..=97,
    ) {
        let (rows, tiered) = both(&stream, horizon, cadence);
        prop_assert_eq!(rows.len(), tiered.len());
        prop_assert_eq!(rows.good_count(), tiered.good_count());
        prop_assert_eq!(rows.p_hat(), tiered.p_hat());
        let start = tiered.retained_start();
        let n = rows.len();
        for i in start..n {
            prop_assert_eq!(rows.outcome(i), tiered.outcome(i));
        }
        prop_assert_eq!(
            rows.count_range(start, n),
            tiered.count_range(start, n)
        );
        for m in [1usize, 3, 10] {
            prop_assert_eq!(
                rows.window_counts(start, n, m).unwrap(),
                tiered.window_counts(start, n, m).unwrap()
            );
        }
        // The whole-prefix range stitches folded_good onto suffix counts.
        prop_assert_eq!(rows.count_range(0, n), tiered.count_range(0, n));
    }

    /// The retained suffix stays word-aligned and inside
    /// `[horizon, horizon + 63]` once the history is long enough, and
    /// compaction never bumps the ingest version (the service's verdict
    /// cache stays valid across compaction passes).
    #[test]
    fn compaction_bounds_the_suffix_and_preserves_the_version(
        stream in feedback_stream(),
        horizon in 100usize..=200,
        cadence in 1usize..=97,
    ) {
        let (_, tiered) = both(&stream, horizon, cadence);
        let n = tiered.len();
        prop_assert_eq!(tiered.version(), n as u64);
        prop_assert!(tiered.retained_start() % 64 == 0);
        if n >= horizon {
            prop_assert!(tiered.suffix_len() >= horizon);
            prop_assert!(tiered.suffix_len() <= horizon + 63);
        } else {
            prop_assert_eq!(tiered.suffix_len(), n);
        }
    }

    /// Queries that need folded bits degrade with the typed error: the
    /// collusion test permutes the *whole* history, so it refuses a
    /// compacted view instead of reordering a partial sequence.
    #[test]
    fn folded_prefix_queries_fail_typed_never_wrong(
        stream in feedback_stream(),
        cadence in 1usize..=97,
    ) {
        let (rows, tiered) = both(&stream, 100, cadence);
        // Streams too short to fold a word have nothing to degrade.
        let start = tiered.retained_start();
        if start > 0 {
            // A window scan reaching into the folded prefix without
            // covering it is typed, not approximated.
            prop_assert!(matches!(
                tiered.window_counts(start - 1, tiered.len(), 1),
                Err(StatsError::HorizonExceeded { .. })
            ));
            let collusion = CollusionResilientTest::new(capped_config(100)).unwrap();
            prop_assert!(collusion.evaluate_detailed(&rows).is_ok());
            prop_assert!(matches!(
                collusion.evaluate_detailed(&tiered),
                Err(CoreError::Stats(StatsError::HorizonExceeded { .. }))
            ));
        }
    }

    /// The wire payload round-trips losslessly — column, summaries,
    /// version, identity — and any truncation is rejected, never
    /// reinterpreted.
    #[test]
    fn encode_decode_round_trips_and_rejects_truncation(
        stream in feedback_stream(),
        horizon in 100usize..=200,
        cadence in 1usize..=97,
    ) {
        let (_, tiered) = both(&stream, horizon, cadence);
        let bytes = tiered.encode();
        let decoded = TieredHistory::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.column(), tiered.column());
        prop_assert_eq!(decoded.version(), tiered.version());
        prop_assert_eq!(decoded.server(), tiered.server());
        prop_assert_eq!(decoded.good_count(), tiered.good_count());
        // Summaries round-trip padded to the dictionary length; absent
        // entries read (0, 0).
        let pad = |h: &TieredHistory| {
            let mut v = h.folded_by_code().to_vec();
            v.resize(h.issuer_column().dict_len(), (0, 0));
            v
        };
        prop_assert_eq!(pad(&decoded), pad(&tiered));
        for keep in (0..bytes.len()).step_by(7) {
            prop_assert!(TieredHistory::decode(&bytes[..keep]).is_none());
        }
    }
}

/// Distinct issuers a history holds before its repeated codes go from 16
/// to 17 bits (the 65 536th mint repacks them).
const NARROW_ISSUERS: usize = 65_535;

fn boundary_feedback(t: usize, client: u64, good: bool) -> Feedback {
    Feedback::new(
        t as u64,
        ServerId::new(7),
        ClientId::new(client),
        Rating::from_good(good),
    )
}

/// Both layouts fed 65 000 feedbacks, every one from a new issuer: 534
/// mints short of the promotion. Built once and cloned per case.
fn short_of_the_boundary() -> (TransactionHistory, TieredHistory) {
    static BASE: OnceLock<(TransactionHistory, TieredHistory)> = OnceLock::new();
    BASE.get_or_init(|| {
        let stream: Vec<Feedback> = (0..65_000usize)
            .map(|t| boundary_feedback(t, t as u64, t % 5 != 0))
            .collect();
        (
            stream.iter().copied().collect(),
            stream.iter().copied().collect(),
        )
    })
    .clone()
}

/// Heap bytes of the one column whose layout depends on its width.
fn issuer_heap(history: &TieredHistory) -> usize {
    history.issuer_column().resident_bytes()
}

/// Heap bytes of the issuer column with every allocation cut to its
/// length (a clone's): equal for equal columns exactly when they are held
/// at equal widths.
fn issuer_heap_at_length(history: &TieredHistory) -> usize {
    history.issuer_column().clone().resident_bytes()
}

/// Everything §4 and the snapshot writer read of an uncompacted history,
/// against the row oracle fed the same feedbacks.
fn assert_answers_like_rows(tiered: &TieredHistory, rows: &TransactionHistory) {
    assert_eq!(tiered.len(), rows.len());
    assert_eq!(
        HistoryView::issuer_groups(tiered),
        HistoryView::issuer_groups(rows)
    );
    let issuers = tiered.issuer_column();
    let order: Vec<usize> = issuers
        .frequency_order()
        .into_iter()
        .map(|i| i as usize)
        .collect();
    assert_eq!(order, rows.issuer_frequency_order());
    let reordered: Vec<u32> = rows
        .reordered_outcomes()
        .into_iter()
        .map(u32::from)
        .collect();
    assert_eq!(
        tiered
            .reordered_column()
            .as_col()
            .window_counts(0, rows.len(), 1)
            .unwrap(),
        reordered
    );
    let clients: Vec<ClientId> = issuers.issuers().collect();
    let expected: Vec<ClientId> = rows.iter().map(|feedback| feedback.client).collect();
    assert_eq!(clients, expected, "issuer of each transaction");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The width of a history's issuer codes shows in its heap bytes and
    /// nowhere else: across the 65 536th issuer — pushed over, rolled back
    /// over, pushed over again, spilled and faulted in, folded — a history
    /// answers like the row oracle, encodes to the bytes of, and holds the
    /// heap of, a history that was only ever pushed to. In about half the
    /// cases the tail's new issuers take ids at or above 2^32 from
    /// `long_from` on, so the id width changes too, before or after the
    /// code width and the mark.
    #[test]
    fn crossing_the_16_bit_issuer_boundary_is_invisible(
        tail in proptest::collection::vec((any::<u16>(), any::<bool>(), any::<bool>()), 700..1400),
        mark_at in 0usize..700,
        horizon in 0usize..70_000,
        long_from in 0usize..2800,
    ) {
        let (mut rows, mut tiered) = short_of_the_boundary();
        // One in nine of the tail repeats an issuer the base already met.
        let tail: Vec<Feedback> = tail
            .iter()
            .enumerate()
            .map(|(i, &(raw, repeat, good))| {
                let met_before = repeat && raw % 4 == 0;
                let new = 100_000 + i as u64 + (u64::from(i >= long_from) << 32);
                let client = if met_before { u64::from(raw) } else { new };
                boundary_feedback(65_000 + i, client, good)
            })
            .collect();
        let (head, rest) = tail.split_at(mark_at);
        rows.extend(head.iter().copied());
        tiered.extend(head.iter().copied());
        // Fed push by push as well: a clone's allocations are cut to size.
        let pushed = |upto: &[Feedback]| {
            let mut history = short_of_the_boundary().1;
            history.extend(upto.iter().copied());
            history
        };
        let (rows_at_mark, never) = (rows.clone(), pushed(head));
        prop_assert!(never.issuer_column().dict_len() <= NARROW_ISSUERS);
        let mark = tiered.mark();

        rows.extend(rest.iter().copied());
        tiered.extend(rest.iter().copied());
        prop_assert!(tiered.issuer_column().dict_len() > NARROW_ISSUERS, "the tail promotes");
        assert_answers_like_rows(&tiered, &rows);
        let mut pushed_only = pushed(&tail);
        let (bytes, heap) = (pushed_only.encode(), issuer_heap(&pushed_only));
        prop_assert_eq!(tiered.encode(), bytes.clone());
        prop_assert_eq!(issuer_heap(&tiered), heap);

        // Back over the boundary: 16-bit codes again, so no more heap than
        // the history that never saw the tail plus the 10 B of code and
        // client capacity a tail record can have left behind.
        tiered.truncate_to(&mark).unwrap();
        assert_answers_like_rows(&tiered, &rows_at_mark);
        prop_assert_eq!(tiered.encode(), never.encode());
        prop_assert!(issuer_heap(&tiered) <= issuer_heap(&never) + 10 * rest.len());

        // And forward again.
        tiered.extend(rest.iter().copied());
        assert_answers_like_rows(&tiered, &rows);
        prop_assert_eq!(tiered.encode(), bytes.clone());
        prop_assert_eq!(issuer_heap(&tiered), heap);

        // A fault-in allocates to the byte, so it is no larger — on
        // either side of the boundary.
        let faulted = TieredHistory::decode(&bytes).unwrap();
        assert_answers_like_rows(&faulted, &rows);
        prop_assert_eq!(faulted.encode(), bytes);
        prop_assert_eq!(issuer_heap(&faulted), issuer_heap_at_length(&pushed_only));
        let faulted = TieredHistory::decode(&never.encode()).unwrap();
        assert_answers_like_rows(&faulted, &rows_at_mark);
        prop_assert_eq!(issuer_heap(&faulted), issuer_heap_at_length(&never));

        // A fold keeps the dictionary, and with it the width.
        prop_assert_eq!(tiered.compact(horizon), pushed_only.compact(horizon));
        prop_assert_eq!(HistoryView::issuer_groups(&tiered), HistoryView::issuer_groups(&rows));
        prop_assert_eq!(tiered.encode(), pushed_only.encode());
        prop_assert_eq!(issuer_heap(&tiered), issuer_heap(&pushed_only));
        let faulted = TieredHistory::decode(&tiered.encode()).unwrap();
        prop_assert_eq!(HistoryView::issuer_groups(&faulted), HistoryView::issuer_groups(&rows));
        prop_assert_eq!(faulted.encode(), tiered.encode());
        prop_assert_eq!(issuer_heap(&faulted), issuer_heap_at_length(&tiered));
    }
}
