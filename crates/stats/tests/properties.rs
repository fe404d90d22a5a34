//! Property-based tests for the statistics substrate.

use hp_stats::distance::{l1_distance, DistanceKind};
use hp_stats::{quantile, Bernoulli, Binomial, Histogram, PrefixSums};
use proptest::prelude::*;

fn prob() -> impl Strategy<Value = f64> {
    0.0f64..=1.0
}

proptest! {
    #[test]
    fn binomial_pmf_sums_to_one(n in 0u32..80, p in prob()) {
        let b = Binomial::new(n, p).unwrap();
        let total: f64 = b.pmf_table().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn binomial_pmf_nonnegative(n in 0u32..60, p in prob(), k in 0u32..100) {
        let b = Binomial::new(n, p).unwrap();
        let v = b.pmf(k);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        if k > n {
            prop_assert_eq!(v, 0.0);
        }
    }

    /// The hoisted table is `pmf(k)` entry for entry, by bits — at the
    /// degenerate endpoints too, which keep their exact 0/1 masses, and
    /// into a buffer that held something else.
    #[test]
    fn fill_pmf_matches_pmf_entry_by_entry(
        n in 1u32..=64,
        p in (0usize..8, prob()).prop_map(|(pick, p)| match pick {
            0 => 0.0,
            1 => 1.0,
            2 => f64::MIN_POSITIVE,
            3 => 1.0 - f64::EPSILON,
            _ => p,
        }),
        stale in proptest::collection::vec(any::<f64>(), 0..80),
    ) {
        let b = Binomial::new(n, p).unwrap();
        let mut table = stale;
        b.fill_pmf(&mut table);
        let want: Vec<u64> = (0..=n).map(|k| b.pmf(k).to_bits()).collect();
        let got: Vec<u64> = table.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&got, &want);
        prop_assert!(table.iter().all(|v| !v.is_nan()));
        if p == 0.0 || p == 1.0 {
            let at = if p == 0.0 { 0 } else { n as usize };
            prop_assert_eq!(table[at], 1.0);
            prop_assert_eq!(table.iter().filter(|&&v| v == 0.0).count(), n as usize);
        }
        let fresh: Vec<u64> = b.pmf_table().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&fresh, &want);
    }

    #[test]
    fn binomial_cdf_monotone(n in 1u32..60, p in prob()) {
        let b = Binomial::new(n, p).unwrap();
        let mut prev = 0.0;
        for k in 0..=n {
            let c = b.cdf(k);
            prop_assert!(c + 1e-12 >= prev);
            prev = c;
        }
        prop_assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binomial_quantile_bounds(n in 1u32..40, p in prob(), q in 0.01f64..1.0) {
        let b = Binomial::new(n, p).unwrap();
        let k = b.quantile(q).unwrap();
        prop_assert!(k <= n);
        prop_assert!(b.cdf(k) >= q - 1e-9);
    }

    #[test]
    fn binomial_samples_within_support(n in 0u32..50, p in prob(), seed in any::<u64>()) {
        let b = Binomial::new(n, p).unwrap();
        let mut rng = hp_stats::seeded_rng(seed);
        for _ in 0..32 {
            prop_assert!(b.sample(&mut rng) <= n);
        }
    }

    #[test]
    fn bernoulli_count_matches_len(p in prob(), n in 0usize..200, seed in any::<u64>()) {
        let b = Bernoulli::new(p).unwrap();
        let mut rng = hp_stats::seeded_rng(seed);
        let c = b.count_successes(&mut rng, n);
        prop_assert!(c <= n);
    }

    #[test]
    fn histogram_pmf_sums_to_one_when_nonempty(
        samples in proptest::collection::vec(0u32..=15, 1..200)
    ) {
        let h = Histogram::from_samples(15, samples.iter().copied()).unwrap();
        let sum: f64 = h.pmf_table().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(h.len() as usize, samples.len());
    }

    #[test]
    fn histogram_add_then_remove_is_identity(
        base in proptest::collection::vec(0u32..=9, 0..100),
        extra in proptest::collection::vec(0u32..=9, 1..50)
    ) {
        let original = Histogram::from_samples(9, base.iter().copied()).unwrap();
        let mut h = original.clone();
        for &v in &extra {
            h.add(v).unwrap();
        }
        for &v in &extra {
            h.remove(v).unwrap();
        }
        prop_assert_eq!(h, original);
    }

    #[test]
    fn l1_distance_bounded_by_two(
        samples in proptest::collection::vec(0u32..=10, 1..100),
        p in prob()
    ) {
        let h = Histogram::from_samples(10, samples.iter().copied()).unwrap();
        let b = Binomial::new(10, p).unwrap();
        let d = l1_distance(&h, &b.pmf_table());
        prop_assert!((0.0..=2.0 + 1e-9).contains(&d), "d = {d}");
    }

    #[test]
    fn distance_metrics_agree_on_zero(
        samples in proptest::collection::vec(0u32..=6, 1..60)
    ) {
        // Every metric is zero iff distributions coincide; compare emp to
        // itself as the reference pmf.
        let h = Histogram::from_samples(6, samples.iter().copied()).unwrap();
        let self_pmf = h.pmf_table();
        for kind in DistanceKind::all() {
            let d = kind.distance(&h, &self_pmf).unwrap();
            prop_assert!(d.abs() < 1e-12, "{kind:?} gave {d}");
        }
    }

    #[test]
    fn tv_is_half_l1(
        samples in proptest::collection::vec(0u32..=8, 1..80),
        p in prob()
    ) {
        let h = Histogram::from_samples(8, samples.iter().copied()).unwrap();
        let pmf = Binomial::new(8, p).unwrap().pmf_table();
        let l1 = DistanceKind::L1.distance(&h, &pmf).unwrap();
        let tv = DistanceKind::TotalVariation.distance(&h, &pmf).unwrap();
        prop_assert!((tv * 2.0 - l1).abs() < 1e-12);
    }

    #[test]
    fn ks_bounded_by_tv(
        samples in proptest::collection::vec(0u32..=8, 1..80),
        p in prob()
    ) {
        // KS distance over a discrete line is at most total variation.
        let h = Histogram::from_samples(8, samples.iter().copied()).unwrap();
        let pmf = Binomial::new(8, p).unwrap().pmf_table();
        let ks = DistanceKind::KolmogorovSmirnov.distance(&h, &pmf).unwrap();
        let tv = DistanceKind::TotalVariation.distance(&h, &pmf).unwrap();
        prop_assert!(ks <= tv + 1e-12, "ks {ks} > tv {tv}");
    }

    #[test]
    fn prefix_sums_consistent_with_direct_count(
        bools in proptest::collection::vec(any::<bool>(), 0..300),
        a in 0usize..300,
        b in 0usize..300
    ) {
        let ps = PrefixSums::from_bools(bools.iter().copied());
        let (lo, hi) = (a.min(b).min(bools.len()), a.max(b).min(bools.len()));
        let direct = bools[lo..hi].iter().filter(|&&g| g).count() as u64;
        prop_assert_eq!(ps.count_range(lo, hi), direct);
    }

    #[test]
    fn quantile_within_range(
        xs in proptest::collection::vec(-1e4f64..1e4, 1..200),
        q in 0.0f64..=1.0
    ) {
        let v = quantile(&xs, q).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }
}
