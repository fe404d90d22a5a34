//! Distribution distances between an empirical [`Histogram`] and a
//! reference pmf.
//!
//! The paper uses the **L¹ norm** of the difference between the empirical
//! window-count distribution and the binomial model (§3.2). We also provide
//! total variation (= L¹/2), L², Kolmogorov–Smirnov, and a χ² statistic so
//! the ablation benches can compare metric choices.

use crate::empirical::Histogram;
use crate::error::StatsError;

/// The distance metric used by a behavior test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceKind {
    /// `Σ_j |f̂(j) − p(j)|` — the paper's choice.
    #[default]
    L1,
    /// `max_A |F̂(A) − P(A)| = L1 / 2`.
    TotalVariation,
    /// `sqrt(Σ_j (f̂(j) − p(j))²)`.
    L2,
    /// `max_k |F̂(k) − P(k)|` over cumulative distributions.
    KolmogorovSmirnov,
    /// `Σ_j (f̂(j) − p(j))² / p(j)` over bins with `p(j) > 0`.
    ChiSquare,
}

impl DistanceKind {
    /// Computes this distance between `hist` and the reference `pmf`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] if the histogram holds no samples
    /// and [`StatsError::OutOfSupport`] if the supports disagree.
    pub fn distance(&self, hist: &Histogram, pmf: &[f64]) -> Result<f64, StatsError> {
        check_inputs(hist, pmf)?;
        let (counts, total) = (hist.counts(), hist.len() as f64);
        let [d] = self.of_masses(pmf, |bin| [counts[bin] as f64 / total]);
        Ok(d)
    }

    /// This distance between `L` empirical pmfs and the one reference
    /// `pmf`, lane by lane: `masses(j)` is every lane's mass at bin `j`,
    /// asked once per bin in support order. The one definition of the
    /// arithmetic, shared by [`Self::distance`] (one lane) and the
    /// calibration kernel (a lane per Monte-Carlo trial, its masses derived
    /// from bin counts without materializing a [`Histogram`]). Every lane
    /// runs the same IEEE operations in the same order, so a lane's result
    /// has the bits a one-lane call on its masses would have. The caller
    /// guarantees matching supports.
    #[inline(always)]
    pub(crate) fn of_masses<const L: usize>(
        &self,
        pmf: &[f64],
        mut masses: impl FnMut(usize) -> [f64; L],
    ) -> [f64; L] {
        // The metric is matched once, outside the bin loop, so each arm
        // runs a loop of its own over `[f64; L]` that the compiler can
        // vectorize.
        match self {
            DistanceKind::L1 => sum_over_bins(pmf, masses, |e, p| (e - p).abs()),
            DistanceKind::TotalVariation => {
                sum_over_bins(pmf, masses, |e, p| (e - p).abs()).map(|l1| l1 / 2.0)
            }
            DistanceKind::L2 => sum_over_bins(pmf, masses, |e, p| (e - p) * (e - p)).map(f64::sqrt),
            DistanceKind::KolmogorovSmirnov => {
                let mut acc_e = [0.0; L];
                let mut acc_p = 0.0;
                let mut worst = [0.0f64; L];
                for (bin, &p) in pmf.iter().enumerate() {
                    let e = masses(bin);
                    acc_p += p;
                    for lane in 0..L {
                        acc_e[lane] += e[lane];
                        worst[lane] = worst[lane].max((acc_e[lane] - acc_p).abs());
                    }
                }
                worst
            }
            // A bin with p = 0 adds +0.0, which leaves a sum of
            // non-negative terms bit for bit where it was.
            DistanceKind::ChiSquare => sum_over_bins(pmf, masses, |e, p| {
                if p > 0.0 {
                    (e - p) * (e - p) / p
                } else {
                    0.0
                }
            }),
        }
    }

    /// All supported metrics, for sweeps and ablations.
    pub fn all() -> [DistanceKind; 5] {
        [
            DistanceKind::L1,
            DistanceKind::TotalVariation,
            DistanceKind::L2,
            DistanceKind::KolmogorovSmirnov,
            DistanceKind::ChiSquare,
        ]
    }

    /// Stable human-readable name (used in reports and CSV headers).
    pub fn name(&self) -> &'static str {
        match self {
            DistanceKind::L1 => "l1",
            DistanceKind::TotalVariation => "tv",
            DistanceKind::L2 => "l2",
            DistanceKind::KolmogorovSmirnov => "ks",
            DistanceKind::ChiSquare => "chi2",
        }
    }
}

fn check_inputs(hist: &Histogram, pmf: &[f64]) -> Result<(), StatsError> {
    if hist.is_empty() {
        return Err(StatsError::EmptyInput {
            what: "distance over an empty histogram",
        });
    }
    if pmf.len() != hist.max_value() as usize + 1 {
        return Err(StatsError::OutOfSupport {
            value: pmf.len() as u64,
            max: hist.max_value() as u64 + 1,
        });
    }
    Ok(())
}

/// `Σ_j term(e_j, p_j)` in each lane, summed in bin order.
#[inline(always)]
fn sum_over_bins<const L: usize>(
    pmf: &[f64],
    mut masses: impl FnMut(usize) -> [f64; L],
    term: impl Fn(f64, f64) -> f64,
) -> [f64; L] {
    let mut sum = [0.0; L];
    for (bin, &p) in pmf.iter().enumerate() {
        let e = masses(bin);
        for lane in 0..L {
            sum[lane] += term(e[lane], p);
        }
    }
    sum
}

/// L¹ distance between an empirical histogram and a reference pmf —
/// the paper's metric, as a convenience free function.
///
/// # Panics
///
/// Panics if the histogram is empty or the supports disagree; use
/// [`DistanceKind::distance`] for a fallible variant.
///
/// # Examples
///
/// ```
/// use hp_stats::{Binomial, Histogram, distance::l1_distance};
///
/// let b = Binomial::new(2, 0.5)?;
/// let h = Histogram::from_samples(2, [1u32, 1, 0, 2].into_iter())?;
/// let d = l1_distance(&h, &b.pmf_table());
/// assert!(d < 2.0);
/// # Ok::<(), hp_stats::StatsError>(())
/// ```
pub fn l1_distance(hist: &Histogram, pmf: &[f64]) -> f64 {
    DistanceKind::L1
        .distance(hist, pmf)
        .expect("histogram must be non-empty and supports must match")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Binomial;

    fn hist(samples: &[u32], max: u32) -> Histogram {
        Histogram::from_samples(max, samples.iter().copied()).unwrap()
    }

    #[test]
    fn identical_distributions_have_zero_distance() {
        // Empirical exactly matching the pmf: B(1, 0.5) with samples 0,1.
        let h = hist(&[0, 1], 1);
        let pmf = [0.5, 0.5];
        for kind in DistanceKind::all() {
            let d = kind.distance(&h, &pmf).unwrap();
            assert!(d.abs() < 1e-12, "{kind:?} gave {d}");
        }
    }

    #[test]
    fn l1_is_bounded_by_two() {
        // Disjoint supports: all mass at 0 vs reference all at max.
        let h = hist(&[0, 0, 0], 5);
        let mut pmf = vec![0.0; 6];
        pmf[5] = 1.0;
        let d = l1_distance(&h, &pmf);
        assert!((d - 2.0).abs() < 1e-12);
        let tv = DistanceKind::TotalVariation.distance(&h, &pmf).unwrap();
        assert!((tv - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_hand_computed() {
        // Empirical: {0: 0.5, 1: 0.25, 2: 0.25}; reference: {0.25, 0.5, 0.25}.
        let h = hist(&[0, 0, 1, 2], 2);
        let d = l1_distance(&h, &[0.25, 0.5, 0.25]);
        assert!((d - 0.5).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn ks_matches_manual_cdf_computation() {
        let h = hist(&[0, 0, 2, 2], 2);
        // empirical cdf: 0.5, 0.5, 1.0; reference B(2, 0.5) cdf: .25, .75, 1.
        let b = Binomial::new(2, 0.5).unwrap();
        let d = DistanceKind::KolmogorovSmirnov
            .distance(&h, &b.pmf_table())
            .unwrap();
        assert!((d - 0.25).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn chi_square_zero_probability_bins_skipped() {
        let h = hist(&[0, 1], 2);
        let pmf = [0.5, 0.5, 0.0];
        let d = DistanceKind::ChiSquare.distance(&h, &pmf).unwrap();
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn tv_is_half_l1_always() {
        let b = Binomial::new(10, 0.9).unwrap();
        let h = hist(&[10, 9, 9, 8, 10, 7], 10);
        let l1 = DistanceKind::L1.distance(&h, &b.pmf_table()).unwrap();
        let tv = DistanceKind::TotalVariation
            .distance(&h, &b.pmf_table())
            .unwrap();
        assert!((tv - l1 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_an_error() {
        let h = Histogram::new(3).unwrap();
        let pmf = [0.25; 4];
        for kind in DistanceKind::all() {
            assert!(kind.distance(&h, &pmf).is_err(), "{kind:?}");
        }
    }

    #[test]
    fn support_mismatch_is_an_error() {
        let h = hist(&[1], 3);
        assert!(DistanceKind::L1.distance(&h, &[0.5, 0.5]).is_err());
    }

    #[test]
    fn distances_shrink_with_more_honest_samples() {
        use rand::SeedableRng;
        let b = Binomial::new(10, 0.9).unwrap();
        let pmf = b.pmf_table();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let small = Histogram::from_samples(10, b.sample_many(&mut rng, 20)).unwrap();
        let large = Histogram::from_samples(10, b.sample_many(&mut rng, 20_000)).unwrap();
        let d_small = l1_distance(&small, &pmf);
        let d_large = l1_distance(&large, &pmf);
        assert!(
            d_large < d_small,
            "more samples should converge: {d_large} !< {d_small}"
        );
        assert!(d_large < 0.05);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = DistanceKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["l1", "tv", "l2", "ks", "chi2"]);
    }
}
