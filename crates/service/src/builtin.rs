//! The default configuration's calibration, computed when the crate was
//! built and served from the binary.
//!
//! Every threshold is a pure function of the calibrator's
//! [`fingerprint`](ThresholdCalibrator::fingerprint) and its `(m, k)`, so
//! the 35 rows and the surface layers a default boot needs are the same
//! in every process. `build.rs` computes them once, through the same
//! kernel and the same boot helper
//! ([`BehaviorTestConfig::prepare_calibrator`](hp_core::testing::BehaviorTestConfig::prepare_calibrator)),
//! and writes them as `static` arrays. [`install`] lends them to a
//! calibrator with the matching fingerprint, window size and surface
//! parameters: each [`CalibrationRow`] and [`SurfaceLayer`] borrows its
//! thresholds from the table, so they are resident once and nothing is
//! decoded or copied. Any other configuration gets nothing here and
//! calibrates at boot.

use hp_stats::{
    CalibrationRow, SurfaceLayer, SurfaceParams, ThresholdCalibrator, ThresholdSurface,
};
use std::borrow::Cow;
use std::sync::Arc;

/// One oracle row of the table: its thresholds are `VALUES[start..][..len]`.
struct Row {
    k: usize,
    confidences: &'static [u32],
    start: usize,
    len: usize,
}

/// One surface layer of the table, at window size `M`.
struct Layer {
    confidence_millis: u32,
    error_bound: f64,
    k_grid: &'static [usize],
    start: usize,
    len: usize,
}

include!(concat!(env!("OUT_DIR"), "/builtin_calibration.rs"));

fn values(start: usize, len: usize) -> Cow<'static, [f64]> {
    Cow::Borrowed(&VALUES[start..start + len])
}

/// Installs the built-in rows and, unless a surface already covers the
/// window size, the built-in surface into `calibrator` when it was
/// configured as the table was built — same fingerprint, window size `m`
/// and surface parameters. Returns whether the table matched; rows the
/// calibrator already holds are kept.
pub(crate) fn install(calibrator: &ThresholdCalibrator, m: u32) -> bool {
    let matches = !ROWS.is_empty()
        && calibrator.fingerprint() == FINGERPRINT
        && m == M
        && calibrator.config().surface == Some(SURFACE);
    if !matches {
        return false;
    }
    calibrator.preload_rows(ROWS.iter().map(|row| CalibrationRow {
        m: M,
        k: row.k,
        confidences: row.confidences.to_vec(),
        values: values(row.start, row.len),
    }));
    if !calibrator.surface().is_some_and(|s| s.covers(M)) {
        let layers = LAYERS
            .iter()
            .map(|layer| SurfaceLayer {
                m: M,
                confidence_millis: layer.confidence_millis,
                error_bound: layer.error_bound,
                k_grid: layer.k_grid.to_vec(),
                values: values(layer.start, layer.len),
            })
            .collect();
        // A refused surface leaves the boot to build one, as it would
        // without the table.
        let _ = ThresholdSurface::from_parts(SURFACE, layers)
            .and_then(|surface| calibrator.install_surface(Arc::new(surface)));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Entry count and FNV-1a of the thresholds of the rows `keep` picks
    /// by `k`, exported sorted by key: 28 bytes an entry,
    /// `(m, k, p̂ bucket, confidence, ε)` — the digest
    /// `hp-stats/tests/calibration_surface.rs` pins.
    fn cache_fingerprint(cal: &ThresholdCalibrator, keep: impl Fn(usize) -> bool) -> (usize, u64) {
        let entries: Vec<_> = cal
            .export_cache()
            .into_iter()
            .filter(|e| keep(e.k))
            .collect();
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

    fn default_calibrator() -> (ThresholdCalibrator, u32) {
        let test = ServiceConfig::default().effective_test();
        let cal = ThresholdCalibrator::new(test.calibration_config()).unwrap();
        (cal, test.window_size())
    }

    #[test]
    fn the_table_is_the_pinned_default_boot_row_for_row() {
        let (cal, m) = default_calibrator();
        assert!(install(&cal, m));
        assert_eq!(cal.stats().oracle_jobs, 0);
        // The fingerprints `hp-stats` pins for a default boot's 35 rows
        // and for the 13 its surface build runs (k ≥ k_min).
        assert_eq!(
            cache_fingerprint(&cal, |_| true),
            (98_490, 0x5b5e_72de_5879_533a)
        );
        assert_eq!(
            cache_fingerprint(&cal, |k| k >= SURFACE.k_min),
            (36_582, 0xe2a0_583b_f539_a6b6)
        );
        // Lent, not copied: every row borrows the table.
        let rows = cal.export_rows();
        assert_eq!(rows.len(), 35);
        assert!(rows
            .iter()
            .all(|row| matches!(row.values, Cow::Borrowed(_))));
    }

    #[test]
    fn the_table_layers_are_a_fresh_surface_build_bit_for_bit() {
        let (built_in, m) = default_calibrator();
        assert!(install(&built_in, m));
        let (fresh, _) = default_calibrator();
        assert!(fresh.ensure_surface_for(m).unwrap());
        assert_eq!(fresh.stats().oracle_jobs, 13);
        let bits = |cal: &ThresholdCalibrator| {
            let surface = cal.surface().expect("a surface is installed");
            assert_eq!(*surface.params(), SurfaceParams::default());
            surface
                .layers()
                .iter()
                .map(|l| {
                    let values: Vec<u64> = l.values.iter().map(|v| v.to_bits()).collect();
                    let head = (l.m, l.confidence_millis, l.error_bound.to_bits());
                    (head, l.k_grid.clone(), values)
                })
                .collect::<Vec<_>>()
        };
        let layers = bits(&built_in);
        assert_eq!(layers.len(), 14);
        assert_eq!(layers, bits(&fresh));
    }

    #[test]
    fn another_configuration_gets_nothing_from_the_table() {
        let test = ServiceConfig::default().effective_test();
        let m = test.window_size();
        let trials = hp_core::testing::BehaviorTestConfig::builder()
            .calibration_trials(300)
            .build()
            .unwrap()
            .with_calibration_surface(test.calibration_surface());
        let no_surface = test.clone().with_calibration_surface(None);
        let tolerance = test.clone().with_calibration_surface(Some(SurfaceParams {
            tolerance: 0.1,
            ..SurfaceParams::default()
        }));
        for other in [trials, no_surface, tolerance] {
            let cal = ThresholdCalibrator::new(other.calibration_config()).unwrap();
            assert!(!install(&cal, m));
            assert_eq!(cal.cache_len(), 0);
            assert!(cal.surface().is_none());
        }
        let (cal, _) = default_calibrator();
        assert!(!install(&cal, m + 1), "another window size");
        assert_eq!(cal.cache_len(), 0);
    }
}
