//! Interpolated threshold surfaces over `(m, k, p̂)`.
//!
//! The Monte-Carlo oracle in [`calibration`](crate::calibration) answers
//! one quantized key at a time; a [`ThresholdSurface`] answers *any* key
//! inside its span from a small precomputed grid:
//!
//! * **p̂ axis** — never interpolated: a grid row stores the oracle
//!   threshold of every p̂ bucket (a common-random-number row job computes
//!   them all anyway), so a lookup indexes its bucket and a grid-`k`
//!   answer is bit-identical to the oracle's.
//! * **k axis** — the L¹ statistic scales as `Θ(1/√k)`, so the surface
//!   stores a geometric k-grid and interpolates `y(k) = ε·√k` linearly in
//!   `ln k`, where `y` is slowly varying by construction.
//! * **confidence axis** — never interpolated: a layer exists per exact
//!   quantized confidence (the multi-test's Bonferroni ladder is finite),
//!   and an unknown confidence falls back to the oracle.
//!
//! Every layer carries a conservative **error bound**: 1.5× the worst
//! observed |surface − oracle| over every p̂ bucket at every grid `k` and
//! at every geometric midpoint between adjacent grid `k`s (where the
//! `ln k` interpolation error peaks). A layer whose bound exceeds
//! [`SurfaceParams::tolerance`] refuses to serve, so a caller that gets
//! `Some(ε)` from [`ThresholdSurface::lookup`] holds a threshold within
//! tolerance of what the Monte-Carlo oracle would have said.
//!
//! Surfaces are built (and the bound measured) by
//! [`ThresholdCalibrator::ensure_surface_for`](crate::ThresholdCalibrator::ensure_surface_for);
//! this module owns the data model, interpolation, and validation so a
//! persisted surface can be re-attached without re-running the oracle.

use crate::error::StatsError;
use std::borrow::Cow;

/// Knobs for building and serving a [`ThresholdSurface`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceParams {
    /// Maximum tolerated |surface − oracle| threshold error. A layer
    /// whose measured error bound exceeds this never serves (lookups
    /// fall back to the Monte-Carlo oracle). Default 0.08: between
    /// geometric grid rows the comparison oracle itself carries
    /// Monte-Carlo quantile noise of ~0.045 at the deep end of the
    /// confidence ladder (flat in grid density — refining the grid does
    /// not reduce it), so the default sits just above that floor times
    /// the 1.5× measurement headroom. Verdict compatibility is enforced
    /// separately, by the equivalence suite's zero-flip test
    /// (`the_default_surface_flips_no_decisive_verdict_and_runs_no_row_job`
    /// in `crates/service/tests/equivalence.rs`).
    pub tolerance: f64,
    /// Smallest `k` the surface serves (default 32). Below it thresholds
    /// curve too fast in `k` for the geometric grid (measured error more
    /// than doubles); the oracle row cache is cheap there anyway — a
    /// small-`k` job is proportionally small.
    pub k_min: usize,
}

impl Default for SurfaceParams {
    fn default() -> Self {
        SurfaceParams {
            tolerance: 0.08,
            k_min: 32,
        }
    }
}

impl SurfaceParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: tolerance finite and > 0,
    /// k_min ≥ 1.
    pub fn validate(&self) -> Result<(), StatsError> {
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err(StatsError::InvalidLevel {
                value: self.tolerance,
            });
        }
        if self.k_min == 0 {
            return Err(StatsError::InvalidCount {
                what: "surface k-min",
                value: 0,
            });
        }
        Ok(())
    }
}

/// One `(m, confidence)` slice of a [`ThresholdSurface`]: a `k × p̂` grid
/// of oracle thresholds plus the measured interpolation-error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceLayer {
    /// Window size `m` of the binomial model.
    pub m: u32,
    /// Quantized confidence (`round(confidence · 100000)`), matched
    /// exactly at lookup — confidence is never interpolated.
    pub confidence_millis: u32,
    /// Conservative bound on |surface − oracle| anywhere in the span:
    /// 1.5× the worst error observed at every p̂ bucket over every grid
    /// `k` and every geometric midpoint between adjacent grid `k`s.
    pub error_bound: f64,
    /// Ascending sample-set sizes the grid was calibrated at.
    pub k_grid: Vec<usize>,
    /// Oracle thresholds, row-major, one per p̂ cache bucket:
    /// `values[a * p_buckets() + i]` is the threshold at
    /// `(k_grid[a], bucket i)`. Borrowed when the layer lives in the
    /// binary (a table computed when it was built).
    pub values: Cow<'static, [f64]>,
}

impl SurfaceLayer {
    /// Values per grid row: the number of p̂ buckets the layer covers
    /// (0 for a layer with no grid rows, which never validates).
    pub fn p_buckets(&self) -> usize {
        self.values
            .len()
            .checked_div(self.k_grid.len())
            .unwrap_or(0)
    }

    /// Interpolated threshold at `(k, p̂-bucket index)`, or `None` when
    /// `k` lies outside the grid span or the index past the last bucket.
    /// Exact (bit-identical to the stored oracle value) when `k` sits on a
    /// grid row.
    ///
    /// This is raw interpolation — the error-bound/tolerance gate lives
    /// in [`ThresholdSurface::lookup`].
    pub fn interpolate(&self, k: usize, p_index: u32) -> Option<f64> {
        let (&k_lo, &k_hi) = (self.k_grid.first()?, self.k_grid.last()?);
        let (cols, bucket) = (self.p_buckets(), p_index as usize);
        if k < k_lo || k > k_hi || bucket >= cols {
            return None;
        }
        let at = |row: usize| self.values[row * cols + bucket];
        match self.k_grid.binary_search(&k) {
            Ok(row) => Some(at(row)),
            Err(pos) => {
                // Bounds guarantee 1 <= pos <= len-1: bracket and
                // interpolate y = ε·√k linearly in ln k (y is slowly
                // varying under the Θ(1/√k) law, so the geometric grid
                // keeps the residual small).
                let (k0, k1) = (self.k_grid[pos - 1] as f64, self.k_grid[pos] as f64);
                let y0 = at(pos - 1) * k0.sqrt();
                let y1 = at(pos) * k1.sqrt();
                let t = ((k as f64).ln() - k0.ln()) / (k1.ln() - k0.ln());
                Some((y0 + (y1 - y0) * t) / (k as f64).sqrt())
            }
        }
    }

    /// Shape and value sanity for one layer.
    fn validate(&self) -> Result<(), StatsError> {
        if self.k_grid.is_empty() || self.values.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "surface layer grid",
            });
        }
        if !self.values.len().is_multiple_of(self.k_grid.len()) {
            return Err(StatsError::InvalidCount {
                what: "surface layer values",
                value: self.values.len(),
            });
        }
        if !self.k_grid.windows(2).all(|w| w[0] < w[1]) {
            return Err(StatsError::EmptyInput {
                what: "surface layer grid order",
            });
        }
        if !(self.error_bound.is_finite() && self.error_bound >= 0.0) {
            return Err(StatsError::InvalidLevel {
                value: self.error_bound,
            });
        }
        if self.values.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(StatsError::EmptyInput {
                what: "surface layer values",
            });
        }
        Ok(())
    }
}

/// A set of [`SurfaceLayer`]s (one per `(m, confidence)`) behind a single
/// tolerance gate.
///
/// # Examples
///
/// ```
/// use hp_stats::{SurfaceLayer, SurfaceParams, ThresholdSurface};
///
/// // A hand-built 2×2 layer: thresholds at k ∈ {8, 32}, two p̂ buckets.
/// let layer = SurfaceLayer {
///     m: 10,
///     confidence_millis: 95_000,
///     error_bound: 0.01,
///     k_grid: vec![8, 32],
///     values: vec![0.9, 0.4, 0.45, 0.2].into(),
/// };
/// let surface = ThresholdSurface::from_parts(SurfaceParams::default(), vec![layer])?;
/// // Exact on a grid row:
/// assert_eq!(surface.lookup(10, 8, 0, 95_000), Some(0.9));
/// // Interpolated between rows, absent outside the span:
/// assert!(surface.lookup(10, 16, 1, 95_000).is_some());
/// assert_eq!(surface.lookup(10, 4, 0, 95_000), None);
/// assert_eq!(surface.lookup(10, 8, 2, 95_000), None);
/// assert_eq!(surface.lookup(11, 8, 0, 95_000), None);
/// # Ok::<(), hp_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSurface {
    params: SurfaceParams,
    layers: Vec<SurfaceLayer>,
}

impl ThresholdSurface {
    /// Assembles a surface from parameters and layers (e.g. loaded from a
    /// persisted calibration cache), validating shapes. Layers are sorted
    /// by `(m, confidence)` internally; duplicates are rejected.
    ///
    /// # Errors
    ///
    /// Propagates [`SurfaceParams::validate`] and per-layer shape
    /// violations; returns [`StatsError::InvalidCount`] for duplicate
    /// `(m, confidence)` layers.
    pub fn from_parts(
        params: SurfaceParams,
        mut layers: Vec<SurfaceLayer>,
    ) -> Result<Self, StatsError> {
        params.validate()?;
        for layer in &layers {
            layer.validate()?;
        }
        layers.sort_by_key(|l| (l.m, l.confidence_millis));
        let duplicate = layers
            .windows(2)
            .any(|w| (w[0].m, w[0].confidence_millis) == (w[1].m, w[1].confidence_millis));
        if duplicate {
            return Err(StatsError::InvalidCount {
                what: "duplicate surface layers",
                value: layers.len(),
            });
        }
        Ok(ThresholdSurface { params, layers })
    }

    /// The parameters the surface was built (and is gated) under.
    pub fn params(&self) -> &SurfaceParams {
        &self.params
    }

    /// The layers, sorted by `(m, confidence_millis)`.
    pub fn layers(&self) -> &[SurfaceLayer] {
        &self.layers
    }

    /// Whether any layer exists for window size `m`.
    pub fn covers(&self, m: u32) -> bool {
        self.layers.iter().any(|l| l.m == m)
    }

    /// Whether the surface actually *serves* window size `m`: at least
    /// one layer exists and every `m` layer's error bound is within
    /// tolerance (the /healthz readiness signal).
    pub fn serves(&self, m: u32) -> bool {
        let mut any = false;
        for layer in self.layers.iter().filter(|l| l.m == m) {
            if layer.error_bound > self.params.tolerance {
                return false;
            }
            any = true;
        }
        any
    }

    /// The worst error bound across `m`'s layers (`None` when uncovered).
    pub fn max_error_bound(&self, m: u32) -> Option<f64> {
        self.layers
            .iter()
            .filter(|l| l.m == m)
            .map(|l| l.error_bound)
            .reduce(f64::max)
    }

    /// Interpolated threshold for the quantized key, or `None` when no
    /// layer matches `(m, confidence)` exactly, `k` lies outside the
    /// layer's grid span, or the layer's error bound exceeds the
    /// configured tolerance (callers then fall back to the oracle).
    pub fn lookup(&self, m: u32, k: usize, p_index: u32, confidence_millis: u32) -> Option<f64> {
        let layer = self.serving_layer(m, confidence_millis)?;
        self.layers[layer].interpolate(k, p_index)
    }

    /// Index in [`Self::layers`] of the layer that matches
    /// `(m, confidence)` exactly, if its error bound is within tolerance —
    /// the part of a lookup that does not depend on `(k, p̂)`.
    pub(crate) fn serving_layer(&self, m: u32, confidence_millis: u32) -> Option<usize> {
        let layer = self
            .layers
            .binary_search_by_key(&(m, confidence_millis), |l| (l.m, l.confidence_millis))
            .ok()?;
        if self.layers[layer].error_bound > self.params.tolerance {
            return None;
        }
        Some(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> SurfaceLayer {
        SurfaceLayer {
            m: 10,
            confidence_millis: 95_000,
            error_bound: 0.01,
            k_grid: vec![8, 32, 128],
            values: vec![
                0.90, 0.70, 0.10, // k = 8
                0.45, 0.35, 0.05, // k = 32
                0.22, 0.17, 0.02, // k = 128
            ]
            .into(),
        }
    }

    #[test]
    fn params_validation() {
        assert!(SurfaceParams::default().validate().is_ok());
        let bad = |p: SurfaceParams| p.validate().is_err();
        assert!(bad(SurfaceParams {
            tolerance: 0.0,
            ..Default::default()
        }));
        assert!(bad(SurfaceParams {
            tolerance: f64::NAN,
            ..Default::default()
        }));
        assert!(bad(SurfaceParams {
            k_min: 0,
            ..Default::default()
        }));
    }

    #[test]
    fn from_parts_rejects_malformed_layers() {
        let params = SurfaceParams::default();
        let mut short = layer();
        short.values.to_mut().pop();
        assert!(ThresholdSurface::from_parts(params, vec![short]).is_err());
        let mut unsorted = layer();
        unsorted.k_grid = vec![32, 8, 128];
        assert!(ThresholdSurface::from_parts(params, vec![unsorted]).is_err());
        let mut nan = layer();
        nan.values.to_mut()[0] = f64::NAN;
        assert!(ThresholdSurface::from_parts(params, vec![nan]).is_err());
        assert!(ThresholdSurface::from_parts(params, vec![layer(), layer()]).is_err());
        assert!(ThresholdSurface::from_parts(params, vec![layer()]).is_ok());
    }

    #[test]
    fn lookup_is_exact_at_every_bucket_of_every_grid_row() {
        let surface =
            ThresholdSurface::from_parts(SurfaceParams::default(), vec![layer()]).unwrap();
        let l = layer();
        assert_eq!(l.p_buckets(), 3);
        for (a, &k) in l.k_grid.iter().enumerate() {
            for bucket in 0..3u32 {
                let got = surface.lookup(10, k, bucket, 95_000).unwrap();
                assert_eq!(
                    got.to_bits(),
                    l.values[a * 3 + bucket as usize].to_bits(),
                    "k={k} bucket={bucket}"
                );
            }
        }
    }

    #[test]
    fn interpolation_stays_inside_the_bracketing_rows() {
        let surface =
            ThresholdSurface::from_parts(SurfaceParams::default(), vec![layer()]).unwrap();
        // Between grid ks: ε stays inside the bracketing rows' range.
        for k in 8..=128usize {
            let v = surface.lookup(10, k, 0, 95_000).unwrap();
            assert!((0.22..=0.90).contains(&v), "k={k}: {v}");
        }
        // and ε·√k interpolation keeps ε decreasing in k here.
        let coarse = surface.lookup(10, 9, 0, 95_000).unwrap();
        let fine = surface.lookup(10, 100, 0, 95_000).unwrap();
        assert!(coarse > fine);
    }

    #[test]
    fn out_of_span_and_unknown_layers_miss() {
        let surface =
            ThresholdSurface::from_parts(SurfaceParams::default(), vec![layer()]).unwrap();
        assert_eq!(surface.lookup(10, 7, 0, 95_000), None, "k below grid");
        assert_eq!(surface.lookup(10, 129, 0, 95_000), None, "k above grid");
        assert_eq!(
            surface.lookup(10, 32, 3, 95_000),
            None,
            "p̂ past the last bucket"
        );
        assert_eq!(
            surface.lookup(10, 33, u32::MAX, 95_000),
            None,
            "p̂ far past it"
        );
        assert_eq!(
            surface.lookup(10, 32, 0, 99_000),
            None,
            "unknown confidence"
        );
        assert_eq!(surface.lookup(9, 32, 0, 95_000), None, "unknown m");
    }

    #[test]
    fn tolerance_gates_serving() {
        let mut wide = layer();
        wide.error_bound = 0.2; // above the 0.08 default tolerance
        let surface = ThresholdSurface::from_parts(SurfaceParams::default(), vec![wide]).unwrap();
        assert_eq!(surface.lookup(10, 32, 0, 95_000), None);
        assert!(surface.covers(10));
        assert!(!surface.serves(10));
        assert_eq!(surface.max_error_bound(10), Some(0.2));

        let surface =
            ThresholdSurface::from_parts(SurfaceParams::default(), vec![layer()]).unwrap();
        assert!(surface.serves(10));
        assert!(!surface.serves(11));
        assert!(surface.lookup(10, 32, 0, 95_000).is_some());
    }
}
