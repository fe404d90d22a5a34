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

    /// Queries that need folded bits degrade with the typed error, and
    /// the collusion test, which groups by issuer, refuses a history that
    /// keeps none — never a partial or approximated answer.
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
        }
        let collusion = CollusionResilientTest::new(capped_config(100)).unwrap();
        prop_assert!(collusion.evaluate_detailed(&rows).is_ok());
        prop_assert_eq!(
            collusion.evaluate_detailed(&tiered),
            Err(CoreError::IssuersNotKept)
        );
    }

    /// The wire payload round-trips losslessly — column, folded counts,
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
        prop_assert_eq!(TieredHistory::decode(&bytes), Some(tiered));
        for keep in (0..bytes.len()).step_by(7) {
            prop_assert!(TieredHistory::decode(&bytes[..keep]).is_none());
        }
    }
}
