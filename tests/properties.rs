//! Cross-crate property tests: invariants that must hold for *any*
//! transaction history, not just the workloads we thought of.

use honest_players::prelude::*;
use honest_players::testing::{
    shared_calibrator, CollusionResilientTest, MultiBehaviorTest, MultiTestMode,
};
use honest_players::TransactionHistory;
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary transaction history: random length, random outcomes,
/// random (small-population) clients.
fn arb_history() -> impl Strategy<Value = TransactionHistory> {
    proptest::collection::vec((any::<bool>(), 0u64..12), 0..600).prop_map(|items| {
        let mut h = TransactionHistory::new();
        for (t, (good, client)) in items.into_iter().enumerate() {
            h.push(Feedback::new(
                t as u64,
                ServerId::new(1),
                ClientId::new(client),
                Rating::from_good(good),
            ));
        }
        h
    })
}

fn fast_config() -> BehaviorTestConfig {
    BehaviorTestConfig::builder()
        .calibration_trials(200)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The paper's O(n) optimization must be *exactly* equivalent to the
    /// naive evaluation on any input.
    #[test]
    fn naive_and_optimized_multi_agree_on_any_history(h in arb_history()) {
        let config = fast_config();
        let cal = shared_calibrator(&config).unwrap();
        let naive = MultiBehaviorTest::with_calibrator(config.clone(), Arc::clone(&cal))
            .unwrap()
            .with_mode(MultiTestMode::Naive);
        let optimized = MultiBehaviorTest::with_calibrator(config, cal).unwrap();
        prop_assert_eq!(
            naive.evaluate_detailed(&h).unwrap(),
            optimized.evaluate_detailed(&h).unwrap()
        );
    }

    /// The equivalence also holds under the geometric suffix schedule.
    #[test]
    fn naive_and_optimized_agree_with_geometric_schedule(h in arb_history()) {
        use honest_players::testing::SuffixSchedule;
        let config = BehaviorTestConfig::builder()
            .calibration_trials(200)
            .schedule(SuffixSchedule::Geometric)
            .build()
            .unwrap();
        let cal = shared_calibrator(&config).unwrap();
        let naive = MultiBehaviorTest::with_calibrator(config.clone(), Arc::clone(&cal))
            .unwrap()
            .with_mode(MultiTestMode::Naive);
        let optimized = MultiBehaviorTest::with_calibrator(config, cal).unwrap();
        prop_assert_eq!(
            naive.evaluate_detailed(&h).unwrap(),
            optimized.evaluate_detailed(&h).unwrap()
        );
    }

    /// The issuer-frequency reordering is a permutation: same multiset of
    /// outcomes, same counts, grouped by client.
    #[test]
    fn reordering_is_a_permutation(h in arb_history()) {
        let reordered = h.reordered_outcomes();
        prop_assert_eq!(reordered.len(), h.len());
        let good_before = h.good_count();
        let good_after = reordered.iter().filter(|&&g| g).count() as u64;
        prop_assert_eq!(good_before, good_after);

        let order = h.issuer_frequency_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), h.len(), "indices must be distinct");
    }

    /// Reordered groups are contiguous and ordered by decreasing issuer
    /// frequency.
    #[test]
    fn reordering_groups_clients_contiguously(h in arb_history()) {
        let order = h.issuer_frequency_order();
        let clients: Vec<ClientId> = order
            .iter()
            .map(|&i| h.get(i).unwrap().client)
            .collect();
        // Contiguity: once we leave a client's block we never return.
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<ClientId> = None;
        let mut prev_count = usize::MAX;
        for c in clients {
            if prev != Some(c) {
                prop_assert!(seen.insert(c), "client {c} appears in two blocks");
                let count = h.client_count(c);
                prop_assert!(
                    count <= prev_count,
                    "blocks must be ordered by frequency"
                );
                prev_count = count;
                prev = Some(c);
            }
        }
    }

    /// Assessment trichotomy: every history is accepted, rejected or sent
    /// to review — and trust values are produced exactly when expected.
    #[test]
    fn assessment_trichotomy(h in arb_history()) {
        let assessor = TwoPhaseAssessor::new(
            SingleBehaviorTest::new(fast_config()).unwrap(),
            AverageTrust::default(),
        );
        let assessment = assessor.assess(&h).unwrap();
        match assessment {
            Assessment::Accepted { trust, .. } => {
                prop_assert!((0.0..=1.0).contains(&trust.value()));
            }
            Assessment::NeedsReview { trust, .. } => {
                prop_assert!((0.0..=1.0).contains(&trust.value()));
                prop_assert!(h.len() < 100, "review only for short histories (m=10, min 5 windows … but alignment may cover less)");
            }
            Assessment::Rejected { report } => {
                prop_assert!(report.is_suspicious() || h.len() < 100);
            }
        }
    }

    /// Trust functions always produce values in [0, 1] and the average
    /// matches the good ratio exactly.
    #[test]
    fn trust_functions_bounded_on_any_history(h in arb_history()) {
        let functions: Vec<Box<dyn TrustFunction>> = vec![
            Box::new(AverageTrust::default()),
            Box::new(WeightedTrust::new(0.5).unwrap()),
            Box::new(BetaTrust::default()),
        ];
        for f in &functions {
            let t = f.trust(&h).value();
            prop_assert!((0.0..=1.0).contains(&t), "{} gave {t}", f.name());
        }
        if let Some(p) = h.p_hat() {
            let avg = AverageTrust::default().trust(&h).value();
            prop_assert!((avg - p).abs() < 1e-12);
        }
    }

    /// Push/pop round-trips leave every derived statistic unchanged.
    #[test]
    fn push_pop_roundtrip_preserves_state(
        h in arb_history(),
        extra in proptest::collection::vec((any::<bool>(), 0u64..12), 1..20)
    ) {
        let mut mutated = h.clone();
        for (i, (good, client)) in extra.iter().enumerate() {
            mutated.push(Feedback::new(
                10_000 + i as u64,
                ServerId::new(1),
                ClientId::new(*client),
                Rating::from_good(*good),
            ));
        }
        for _ in 0..extra.len() {
            mutated.pop();
        }
        prop_assert_eq!(mutated.feedbacks(), h.feedbacks());
        prop_assert_eq!(mutated.good_count(), h.good_count());
        prop_assert_eq!(mutated.distinct_clients(), h.distinct_clients());
        prop_assert_eq!(mutated.reordered_outcomes(), h.reordered_outcomes());
    }

    /// The collusion test never errors on any history and its verdict is
    /// deterministic.
    #[test]
    fn collusion_test_total_and_deterministic(h in arb_history()) {
        let test = CollusionResilientTest::new(fast_config()).unwrap();
        let a = test.evaluate_detailed(&h).unwrap();
        let b = test.evaluate_detailed(&h).unwrap();
        prop_assert_eq!(a, b);
    }
}
