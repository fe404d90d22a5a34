//! Property tests: the columnar history engine is *bit-identical* to the
//! row-oriented reference on every assessment path.
//!
//! The invariant the refactor rests on: for any feedback sequence —
//! duplicate issuers, skewed issuer distributions, arbitrary outcome
//! patterns, arbitrary (monotone) times — feeding the sequence through an
//! uncompacted [`TieredHistory`] must produce the same verdicts, reports
//! and trust values as feeding it through [`TransactionHistory`]. The
//! columns keep no timestamps, so the one time-reading trust function is
//! compared on the clock it falls back to (the transaction index), and
//! no issuers, so the §4 scheme refuses them with a typed error. The
//! compacted half is `tiered_equivalence.rs`; the service-side half
//! (torn-tail journal recovery replaying into columns) is property-tested
//! in `crates/service/tests/recovery.rs`.

use hp_core::history::BitColumn;
use hp_core::testing::{
    BehaviorTestConfig, CollusionResilientTest, MultiBehaviorTest, MultiTestMode,
    SingleBehaviorTest,
};
use hp_core::trust::{AverageTrust, BetaTrust, TrustFunction, WeightedTrust};
use hp_core::{
    ClientId, CoreError, Feedback, HistoryView, Rating, ServerId, TieredHistory,
    TransactionHistory, TwoPhaseAssessor,
};
use hp_stats::PrefixSums;
use proptest::prelude::*;

/// A generated feedback stream: monotone times, issuers drawn from a small
/// pool (guaranteeing duplicates), arbitrary outcomes.
fn feedback_stream() -> impl Strategy<Value = Vec<Feedback>> {
    (
        1u64..=8, // issuer pool size
        proptest::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 0..300),
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

fn both(stream: &[Feedback]) -> (TransactionHistory, TieredHistory) {
    (
        stream.iter().copied().collect(),
        stream.iter().copied().collect(),
    )
}

fn fast_config() -> BehaviorTestConfig {
    BehaviorTestConfig::builder()
        .calibration_trials(200)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn view_queries_agree(stream in feedback_stream()) {
        let (rows, cols) = both(&stream);
        prop_assert_eq!(rows.len(), cols.len());
        prop_assert_eq!(rows.good_count(), cols.good_count());
        prop_assert_eq!(rows.p_hat(), cols.p_hat());
        prop_assert_eq!(HistoryView::server(&rows), HistoryView::server(&cols));
        for i in 0..rows.len() {
            prop_assert_eq!(rows.outcome(i), cols.outcome(i));
        }
        let n = rows.len();
        prop_assert_eq!(rows.count_range(n / 3, n), cols.count_range(n / 3, n));
        for m in [1usize, 3, 10] {
            prop_assert_eq!(
                rows.window_counts(0, n, m).unwrap(),
                cols.window_counts(0, n, m).unwrap()
            );
        }
        // The columns keep no issuers: §4 gets no answer, not a wrong one.
        prop_assert!(rows.issuer_groups().is_some());
        prop_assert_eq!(cols.issuer_groups(), None);
    }

    #[test]
    fn all_three_schemes_agree(stream in feedback_stream()) {
        let (rows, cols) = both(&stream);
        let single = SingleBehaviorTest::new(fast_config()).unwrap();
        prop_assert_eq!(
            single.evaluate_detailed(&rows).unwrap(),
            single.evaluate_detailed(&cols).unwrap()
        );
        let multi = MultiBehaviorTest::new(fast_config()).unwrap();
        prop_assert_eq!(
            multi.evaluate_detailed(&rows).unwrap(),
            multi.evaluate_detailed(&cols).unwrap()
        );
        // The collusion-resilient scheme groups by issuer, which only the
        // rows keep: the columns refuse it, typed.
        let collusion = CollusionResilientTest::new(fast_config()).unwrap();
        prop_assert!(collusion.evaluate_detailed(&rows).is_ok());
        prop_assert_eq!(
            collusion.evaluate_detailed(&cols),
            Err(CoreError::IssuersNotKept)
        );
    }

    #[test]
    fn trust_functions_agree(stream in feedback_stream()) {
        let (rows, cols) = both(&stream);
        let average = AverageTrust::default();
        prop_assert_eq!(average.trust(&rows), average.trust(&cols));
        let weighted = WeightedTrust::new(0.6).unwrap();
        prop_assert_eq!(weighted.trust(&rows), weighted.trust(&cols));
        let beta = BetaTrust::new(1.0, 1.0).unwrap();
        prop_assert_eq!(beta.trust(&rows), beta.trust(&cols));
    }

    /// `BitColumn::window_counts` answers exactly like the prefix-sum
    /// reference for every `(start, m)`: unaligned starts, windows
    /// straddling several u64 words, `m` dividing 64, `m` longer than the
    /// whole history, and empty ranges.
    #[test]
    fn window_counts_match_the_prefix_sum_reference(
        bits in proptest::collection::vec(any::<bool>(), 0..420),
        start_frac in 0.0f64..1.0,
        m in 1usize..=192,
    ) {
        let col = BitColumn::from_bools(bits.iter().copied());
        let reference = PrefixSums::from_bools(bits.iter().copied());
        let n = col.len();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let start = ((n as f64) * start_frac) as usize;
        // The drawn width, the widths a u64 divides into, an empty range
        // and a width past the remaining length (both an empty grid).
        for (end, m) in [(n, m), (n, 8), (n, 16), (n, 32), (n, 64), (start, m), (n, n - start + 1)] {
            prop_assert_eq!(
                col.window_counts(start, end, m).unwrap(),
                reference.window_counts(start, end, m).unwrap(),
                "[{start},{end}) m={m}"
            );
        }
    }

    /// The fused multi-suffix sweep (what the default mode runs at the
    /// default, window-aligned step) is bit-identical to the per-suffix
    /// oracle: same verdicts, same suffix reports, on rows and columns
    /// alike — so `MultiTestMode` is purely a performance knob.
    #[test]
    fn fused_multi_matches_per_suffix_oracle(stream in feedback_stream()) {
        let (rows, cols) = both(&stream);
        let naive = MultiBehaviorTest::new(fast_config())
            .unwrap()
            .with_mode(MultiTestMode::Naive);
        let fused = MultiBehaviorTest::new(fast_config()).unwrap();
        let reference = naive.evaluate_detailed(&rows).unwrap();
        prop_assert_eq!(&fused.evaluate_detailed(&rows).unwrap(), &reference);
        prop_assert_eq!(&naive.evaluate_detailed(&cols).unwrap(), &reference);
        prop_assert_eq!(&fused.evaluate_detailed(&cols).unwrap(), &reference);
    }

    /// End-to-end: two-phase verdicts are unchanged by the kernel choice.
    #[test]
    fn two_phase_verdicts_agree_across_kernels(stream in feedback_stream()) {
        let (rows, cols) = both(&stream);
        let via = |mode: MultiTestMode| {
            TwoPhaseAssessor::new(
                MultiBehaviorTest::new(fast_config()).unwrap().with_mode(mode),
                WeightedTrust::new(0.5).unwrap(),
            )
        };
        let naive = via(MultiTestMode::Naive);
        let fused = via(MultiTestMode::Auto);
        let reference = naive.assess(&rows).unwrap();
        prop_assert_eq!(&fused.assess(&rows).unwrap(), &reference);
        prop_assert_eq!(&naive.assess(&cols).unwrap(), &reference);
        prop_assert_eq!(&fused.assess(&cols).unwrap(), &reference);
    }

    #[test]
    fn two_phase_verdicts_agree(stream in feedback_stream()) {
        let (rows, cols) = both(&stream);
        let assessor = TwoPhaseAssessor::new(
            MultiBehaviorTest::new(fast_config()).unwrap(),
            WeightedTrust::new(0.5).unwrap(),
        );
        prop_assert_eq!(assessor.assess(&rows).unwrap(), assessor.assess(&cols).unwrap());
    }
}
