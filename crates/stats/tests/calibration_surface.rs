//! Property-based tests for the interpolated threshold surface and the
//! common-random-number calibration engine.
//!
//! The surface fixture is built once ([`std::sync::OnceLock`]) and shared
//! across cases: surface construction runs the full Monte-Carlo oracle
//! over its k-grid, which is far too slow to repeat per proptest case.

use hp_stats::{
    CalibrationConfig, SurfaceParams, ThresholdCalibrator, ThresholdProvenance, ThresholdSurface,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const M: u32 = 10;
const K_CUTOFF: usize = 128;
const TRIALS: usize = 400;
const P_BUCKET: f64 = 0.05;

fn fixture_config(surface: Option<SurfaceParams>) -> CalibrationConfig {
    CalibrationConfig {
        trials: TRIALS,
        p_bucket: P_BUCKET,
        large_k_cutoff: K_CUTOFF,
        surface,
        ..CalibrationConfig::default()
    }
}

/// `(surfaced calibrator, oracle calibrator)` with identical fingerprints:
/// the oracle serves pure Monte-Carlo row-cache values for comparison.
fn fixture() -> &'static (Arc<ThresholdCalibrator>, Arc<ThresholdCalibrator>) {
    static FIXTURE: OnceLock<(Arc<ThresholdCalibrator>, Arc<ThresholdCalibrator>)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let surfaced = ThresholdCalibrator::new(fixture_config(Some(SurfaceParams {
            // Generous tolerance: these tests check the *measured* bound,
            // not the serving gate.
            tolerance: 10.0,
            k_min: 8,
        })))
        .unwrap();
        surfaced
            .ensure_surface_for(M)
            .expect("surface build must succeed");
        let oracle = ThresholdCalibrator::new(fixture_config(None)).unwrap();
        (Arc::new(surfaced), Arc::new(oracle))
    })
}

fn surface() -> Arc<ThresholdSurface> {
    fixture().0.surface().expect("fixture installs a surface")
}

/// The Bonferroni confidence ladder the row jobs prefill (j halvings of
/// the default 0.95 miss mass), as `(quantized millis, exact value)`.
fn ladder_confidence(j: u32) -> (u32, f64) {
    let c = 1.0 - (1.0 - 0.95) / (1u64 << j) as f64;
    ((c * 100_000.0).round() as u32, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every value the surface serves sits within its measured error
    /// bound of the Monte-Carlo oracle, at arbitrary (k, p̂, confidence)
    /// — including ks strictly between grid rows.
    #[test]
    fn surface_error_is_within_the_measured_bound(
        k in 8usize..=K_CUTOFF,
        p_index in 0u32..=20,
        j in 0u32..=8,
    ) {
        let (surfaced, oracle) = fixture();
        let (millis, confidence) = ladder_confidence(j);
        // A lookup miss (off-ladder collapse) serves nothing — nothing to bound.
        if let Some(served) = surface().lookup(M, k, p_index, millis) {
            let p = (p_index as f64 * P_BUCKET).clamp(0.0, 1.0);
            let truth = oracle.threshold_at(M, k, p, confidence).unwrap();
            let bound = surface().max_error_bound(M).unwrap();
            prop_assert!(
                (served - truth).abs() <= bound,
                "k={k} p={p} c={confidence}: |{served} - {truth}| > bound {bound}"
            );
            // And within the tolerance a default surface serves at.
            let tolerance = SurfaceParams::default().tolerance;
            prop_assert!(
                (served - truth).abs() <= tolerance,
                "k={k} p={p} c={confidence}: |{served} - {truth}| > tolerance {tolerance}"
            );
            // And the calibrator actually serves from the surface for these keys.
            let (eps, provenance) = surfaced
                .threshold_with_provenance(M, k, p, confidence)
                .unwrap();
            prop_assert_eq!(provenance, ThresholdProvenance::Surface);
            prop_assert_eq!(eps.to_bits(), served.to_bits());
        }
    }

    /// Served thresholds are monotone non-decreasing in the confidence
    /// level (a looser confidence can never tighten ε).
    #[test]
    fn surface_is_monotone_in_confidence(
        k in 8usize..=K_CUTOFF,
        p_index in 0u32..=20,
        j in 0u32..8,
    ) {
        let (lo_millis, _) = ladder_confidence(j);
        let (hi_millis, _) = ladder_confidence(j + 1);
        if let (Some(lo), Some(hi)) = (
            surface().lookup(M, k, p_index, lo_millis),
            surface().lookup(M, k, p_index, hi_millis),
        ) {
            prop_assert!(
                lo <= hi + 1e-12,
                "k={k} p_index={p_index}: ε({lo_millis})={lo} > ε({hi_millis})={hi}"
            );
        }
    }
}

/// The fixture surface agrees with the oracle *exactly* at every p̂
/// bucket of every grid row, and refuses the bucket past the last.
#[test]
fn lookups_on_grid_rows_are_oracle_exact_at_every_bucket() {
    let (_, oracle) = fixture();
    let s = surface();
    let layer = s
        .layers()
        .iter()
        .find(|l| l.m == M && l.confidence_millis == 95_000)
        .expect("base-confidence layer exists");
    let buckets = layer.p_buckets() as u32;
    assert_eq!(buckets, 21, "one value per 0.05-wide bucket of [0, 1]");
    for &k in &layer.k_grid {
        for bucket in 0..buckets {
            let p = (bucket as f64 * P_BUCKET).clamp(0.0, 1.0);
            let truth = oracle.threshold_at(M, k, p, 0.95).unwrap();
            let served = s
                .lookup(M, k, bucket, 95_000)
                .expect("bucket is on the grid");
            assert_eq!(
                served.to_bits(),
                truth.to_bits(),
                "grid row k={k} p={p} must be oracle-exact"
            );
        }
        assert_eq!(s.lookup(M, k, buckets, 95_000), None, "k={k}");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Entry count and FNV-1a of every threshold `cal` holds, exported
/// sorted by key: 28 bytes an entry, `(m, k, p̂ bucket, confidence, ε)`.
fn cache_fingerprint(cal: &ThresholdCalibrator) -> (usize, u64) {
    let entries = cal.export_cache();
    let mut bytes = Vec::with_capacity(entries.len() * 28);
    for e in &entries {
        bytes.extend_from_slice(&e.m.to_le_bytes());
        bytes.extend_from_slice(&(e.k as u64).to_le_bytes());
        bytes.extend_from_slice(&e.p_bucket_index.to_le_bytes());
        bytes.extend_from_slice(&e.confidence_millis.to_le_bytes());
        bytes.extend_from_slice(&e.epsilon.to_bits().to_le_bytes());
    }
    (entries.len(), fnv1a(&bytes))
}

#[test]
fn default_surface_build_is_bit_identical_to_the_sorting_kernel_at_every_thread_count() {
    // Length and fingerprint of every cache entry the default surface
    // build leaves behind (13 row jobs: 201 p̂ buckets × 14 confidence
    // rungs each, exported sorted by key) as computed by the kernel that
    // sorted every uniform batch and bisected it per cdf step (PR 13). A
    // faster kernel or a cheaper quantile selection must not move a bit
    // of any threshold (threads = 1), and neither may which worker ran a
    // row or the order rows finished in (threads > 1).
    for threads in [1usize, 2, 4, 8] {
        let cal = ThresholdCalibrator::new(CalibrationConfig {
            threads,
            surface: Some(SurfaceParams::default()),
            ..CalibrationConfig::default()
        })
        .unwrap();
        assert!(cal.ensure_surface_for(M).unwrap());
        assert_eq!(
            cache_fingerprint(&cal),
            (36_582, 0xe2a0_583b_f539_a6b6),
            "threads={threads}"
        );
    }
}

#[test]
fn the_rows_a_default_boot_holds_fit_in_a_mebibyte() {
    // What a service with default settings holds once it is ready: the 13
    // rows the surface build leaves (pinned above) and the 22 below its
    // k_min that a multi-test can ask for, k = 10..32 — 35 jobs, 35 rows
    // of 201 × 14 thresholds. As one hash entry per threshold the same
    // 98 490 values took ≈ 4.1 MiB.
    for threads in [1usize, 2] {
        let cal = ThresholdCalibrator::new(CalibrationConfig {
            threads,
            surface: Some(SurfaceParams::default()),
            ..CalibrationConfig::default()
        })
        .unwrap();
        assert!(cal.ensure_surface_for(M).unwrap());
        let below: Vec<usize> = (10..SurfaceParams::default().k_min).collect();
        cal.fill_rows(M, &below).unwrap();
        cal.fill_rows(M, &below).unwrap(); // every row is held by now: no job
        assert_eq!((cal.stats().oracle_jobs, cal.cache_stats()), (35, (0, 35)));
        assert_eq!((cal.export_rows().len(), cal.cache_len()), (35, 98_490));
        // All 35 rows, bit for bit, as computed at PR 26's parent: the 22
        // below k_min are what every short-history verdict reads.
        assert_eq!(
            cache_fingerprint(&cal),
            (98_490, 0x5b5e_72de_5879_533a),
            "threads={threads}"
        );
        // What `hp_calibration_cache_bytes` reports, with 64 B a row on top
        // for its reference counts and its slot in the map.
        let bytes = cal.cache_bytes() + 35 * 64;
        assert!(bytes <= 1 << 20, "{bytes} B in 35 rows");
        assert!(
            bytes >= 98_490 * 8,
            "{bytes} B cannot hold 98 490 thresholds"
        );
    }
}
