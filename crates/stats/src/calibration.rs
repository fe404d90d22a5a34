//! Monte-Carlo calibration of distribution-distance thresholds.
//!
//! The paper (§3.2) rejects deriving the distribution of the L¹ distance
//! analytically and instead generates "a reasonably large number of sets"
//! of window counts from `B(m, p̂)`, measures their distances to the model,
//! and picks ε at the 95% confidence point. [`ThresholdCalibrator`]
//! implements exactly that, plus the engineering the paper glosses over:
//!
//! * **common random numbers** — one batch of `k` uniform draws per
//!   `(m, k)` is pushed through every p̂ bucket's binomial inverse cdf, so
//!   a single Monte-Carlo job calibrates the *entire `(m, k)` row* (every
//!   bucket × a ladder of confidence levels) instead of one threshold.
//!   The batch is never sorted: each draw is dropped into its slot of the
//!   row's sorted cdf bounds and one prefix sum yields every bucket's bin
//!   counts (see `BoundIndex`). Eight consecutive trials (`LANES`) share
//!   that prefix sum and the pass over the buckets that follows it: their
//!   slot counts sit side by side, so each step of the distance runs over
//!   a `[f64; 8]` with the same IEEE operations, in the same order, as one
//!   trial alone,
//! * **single-flight dedup** — concurrent misses on the same `(m, k)` row
//!   wait for one in-flight job instead of each running their own,
//! * **an interpolated threshold surface** ([`crate::surface`]) consulted
//!   before the row store, with a measured error bound and oracle fallback,
//! * **a row store** — each job's [`CalibrationRow`] is kept whole, shared
//!   and immutable under its `(m, k)`, so that the strategic attacker loop
//!   and the multi-test (which call this thousands of times with nearly
//!   identical parameters) stay fast; p̂ and the confidence are quantized
//!   to a bucket and a column so floating-point jitter still finds them,
//! * **a per-verdict view** ([`ThresholdView`]) — a multi-test asks for
//!   ≈ history / step thresholds at one `(m, confidence)`, so what depends
//!   on that pair alone (validation, the surface snapshot, the layer and
//!   its tolerance gate) is resolved once and the surface then answers
//!   with no lock and no shared write; a lone lookup is a view asked once,
//! * **a row-level fan-out** ([`ThresholdCalibrator::fill_rows`]) for the
//!   surface build and the rows a service warms below it: the `(m, k)` rows
//!   not yet held are spread over [`CalibrationConfig::threads`] workers,
//!   each row job running whole on one worker. A job draws its trials from fixed
//!   per-chunk RNG streams seeded by `(seed, m, k)` alone, so thresholds
//!   are bit-identical at every thread count,
//! * **asymptotic extrapolation** for very large sample counts `k`: the L¹
//!   statistic scales as `Θ(1/√k)`, so beyond a cutoff we calibrate at the
//!   cutoff and scale by `√(k₀/k)` instead of simulating hundreds of
//!   millions of draws (needed for the Fig. 9 scaling experiment).

use crate::binomial::Binomial;
use crate::distance::DistanceKind;
use crate::error::StatsError;
use crate::quantile::quantile_sorted;
use crate::rng::{derive_seed, seeded_rng};
use crate::surface::{SurfaceLayer, SurfaceParams, ThresholdSurface};
use parking_lot::{Mutex, RwLock};
use rand::RngExt;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

/// Configuration for [`ThresholdCalibrator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Number of Monte-Carlo trials per calibration (paper: "a reasonably
    /// large number"; default 2000). Treated as a *floor*: extreme
    /// confidence levels automatically raise the trial count so the
    /// requested quantile stays resolvable.
    pub trials: usize,
    /// Confidence level for the threshold (paper: 0.95).
    pub confidence: f64,
    /// Width of the p̂ cache buckets (default 0.005). Calibration uses the
    /// bucket midpoint, so a smaller bucket is more faithful but caches
    /// worse.
    pub p_bucket: f64,
    /// Distance metric to calibrate (paper: L¹).
    pub distance: DistanceKind,
    /// Above this number of windows `k`, thresholds are extrapolated from a
    /// calibration at the cutoff using the `1/√k` law instead of simulated
    /// directly (default 2048).
    pub large_k_cutoff: usize,
    /// Number of workers [`ThresholdCalibrator::fill_rows`] — and through
    /// it the surface build ([`ThresholdCalibrator::ensure_surface_for`])
    /// — spreads its cold rows over (1 = serial); each row job runs whole
    /// on one worker. Every other Monte-Carlo job — a live single-row
    /// miss, [`ThresholdCalibrator::distance_samples`] — runs serially on
    /// the calling thread whatever this is set to.
    ///
    /// Thread count never changes results: a row's samples depend on
    /// `(seed, m, k)` alone, so any `threads` value produces bit-identical
    /// thresholds.
    pub threads: usize,
    /// When set, an interpolated threshold surface is built over the
    /// oracle (see [`ThresholdCalibrator::ensure_surface_for`]) and
    /// consulted before the row store. `None` (the default here; a
    /// service configures one unless told otherwise) serves every
    /// threshold from the oracle's rows.
    ///
    /// Deliberately excluded from [`ThresholdCalibrator::fingerprint`]:
    /// the surface is gated by its own measured error bound and falls
    /// back to the oracle, so it never changes what the *oracle*
    /// thresholds are.
    pub surface: Option<SurfaceParams>,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            trials: 2000,
            confidence: 0.95,
            p_bucket: 0.005,
            distance: DistanceKind::L1,
            large_k_cutoff: 2048,
            threads: 1,
            surface: None,
        }
    }
}

impl CalibrationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: trials ≥ 2, confidence and
    /// p_bucket in (0, 1), cutoff ≥ 2, threads ≥ 1, and (when a surface
    /// is configured) [`SurfaceParams::validate`].
    pub fn validate(&self) -> Result<(), StatsError> {
        if self.trials < 2 {
            return Err(StatsError::InvalidCount {
                what: "calibration trials",
                value: self.trials,
            });
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(StatsError::InvalidLevel {
                value: self.confidence,
            });
        }
        if !(self.p_bucket > 0.0 && self.p_bucket < 1.0) {
            return Err(StatsError::InvalidLevel {
                value: self.p_bucket,
            });
        }
        if self.large_k_cutoff < 2 {
            return Err(StatsError::InvalidCount {
                what: "large-k cutoff",
                value: self.large_k_cutoff,
            });
        }
        if self.threads == 0 {
            return Err(StatsError::InvalidCount {
                what: "calibration threads",
                value: 0,
            });
        }
        if let Some(surface) = &self.surface {
            surface.validate()?;
        }
        Ok(())
    }
}

/// One calibrated `(m, k)` row — the unit the oracle stores, shares and
/// persists: the threshold of every p̂ bucket at every confidence column,
/// bit-exact. A Monte-Carlo job writes a row whole and nothing changes it
/// afterwards (a job that adds a column publishes a new row), so a row is
/// either complete or absent.
///
/// Exported by [`ThresholdCalibrator::export_rows`] and accepted back by
/// [`ThresholdCalibrator::preload_rows`], so a calibration cache can be
/// persisted across process restarts and a warm restart never repeats a
/// Monte-Carlo job it has already run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRow {
    /// Window size `m` of the binomial model.
    pub m: u32,
    /// Sample-set size `k` (complete windows).
    pub k: usize,
    /// Quantized confidence (`round(confidence · 100000)`) of each column:
    /// the Bonferroni ladder rungs first, then every off-ladder confidence
    /// in the order it was first asked for.
    pub confidences: Vec<u32>,
    /// One threshold ε per p̂ bucket per column, column by column:
    /// `values[column · buckets + bucket]`. Borrowed when the thresholds
    /// live in the binary (a table computed when it was built); a job that
    /// adds a column copies them into the new row it publishes.
    pub values: Cow<'static, [f64]>,
}

impl CalibrationRow {
    /// Each column's confidence and its thresholds, one per p̂ bucket.
    fn columns(&self) -> impl Iterator<Item = (u32, &[f64])> {
        let buckets = self.values.len() / self.confidences.len();
        self.confidences
            .iter()
            .copied()
            .zip(self.values.chunks_exact(buckets))
    }

    /// The thresholds of one confidence, if the row has a column for it.
    fn column(&self, confidence_millis: u32) -> Option<&[f64]> {
        self.columns()
            .find_map(|(c, column)| (c == confidence_millis).then_some(column))
    }
}

/// One threshold of a [`CalibrationRow`] with everything it was calibrated
/// under, as listed by [`ThresholdCalibrator::export_cache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationEntry {
    /// Window size `m` of the binomial model.
    pub m: u32,
    /// Sample-set size `k` (complete windows).
    pub k: usize,
    /// Quantized p̂ bucket index (`round(p̂ / p_bucket)`).
    pub p_bucket_index: u32,
    /// Quantized confidence (`round(confidence · 100000)`).
    pub confidence_millis: u32,
    /// The calibrated threshold ε.
    pub epsilon: f64,
}

/// Where a served threshold came from, tagged into the audit trail so
/// every verdict records whether its ε was interpolated (surface), read
/// back from a held row (cache), or freshly simulated (Monte Carlo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdProvenance {
    /// Interpolated from the precomputed threshold surface (within its
    /// measured error bound).
    Surface,
    /// Answered from a row the oracle holds (an earlier job calibrated it).
    Cache,
    /// A Monte-Carlo row job ran (or was waited on) for this request.
    MonteCarlo,
}

impl std::fmt::Display for ThresholdProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ThresholdProvenance::Surface => "surface",
            ThresholdProvenance::Cache => "cache",
            ThresholdProvenance::MonteCarlo => "monte_carlo",
        })
    }
}

/// Lifetime counters for one [`ThresholdCalibrator`] (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalibrationStats {
    /// Lookups answered from a held row.
    pub hits: u64,
    /// Lookups that missed both surface and row store (a row job ran, or
    /// was waited on).
    pub misses: u64,
    /// Lookups answered by the interpolated surface.
    pub surface_hits: u64,
    /// Monte-Carlo row jobs actually executed (single-flight leaders).
    pub oracle_jobs: u64,
    /// Thresholds written by common-random-number row jobs.
    pub crn_row_fills: u64,
    /// Lookups that slept on another thread's in-flight row job instead
    /// of running their own.
    pub singleflight_waits: u64,
}

thread_local! {
    /// Per-thread total wall time spent inside calibration misses (row
    /// jobs run by this thread plus single-flight waits). The service
    /// shard reads the delta around an assessment to attribute
    /// calibration wait separately from compute.
    static CALIBRATION_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Monotone per-thread nanoseconds spent blocked on threshold
/// calibration (Monte-Carlo row jobs plus single-flight waits). Sampling
/// it before and after a call that may calibrate yields that call's
/// calibration wall time; threads that never calibrate read 0.
pub fn thread_calibration_nanos() -> u64 {
    CALIBRATION_NANOS.with(|c| c.get())
}

fn add_calibration_nanos(ns: u64) {
    CALIBRATION_NANOS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Halvings on the precomputed confidence ladder: a row job fills every
/// bucket at `1 − (1 − confidence)/2^j` for `j ∈ 0..=LADDER_LEVELS`,
/// which is exactly the Bonferroni-corrected per-test confidence the
/// multi-test requests for up to `2^LADDER_LEVELS` simultaneous tests —
/// so multi-test lookups land on prefilled columns.
const LADDER_LEVELS: u32 = 16;

/// The `(quantized, exact)` confidence ladder for a base confidence,
/// deduplicated by quantized key (high rungs collapse once the halving
/// falls below the quantization step).
fn confidence_ladder(confidence: f64) -> Vec<(u32, f64)> {
    let mut ladder: Vec<(u32, f64)> = Vec::with_capacity(LADDER_LEVELS as usize + 1);
    for j in 0..=LADDER_LEVELS {
        let c = 1.0 - (1.0 - confidence) / (1u64 << j) as f64;
        let millis = quantize_confidence(c);
        if !ladder.iter().any(|&(q, _)| q == millis) {
            ladder.push((millis, c));
        }
    }
    ladder
}

fn quantize_confidence(confidence: f64) -> u32 {
    (confidence * 100_000.0).round() as u32
}

/// Calibrates and caches goodness-of-fit thresholds.
///
/// # Examples
///
/// ```
/// use hp_stats::{CalibrationConfig, ThresholdCalibrator};
///
/// let cal = ThresholdCalibrator::new(CalibrationConfig {
///     trials: 200,
///     ..CalibrationConfig::default()
/// })?;
/// // 95% of honest B(10, 0.9) window-count samples of size 40 sit below ε:
/// let eps = cal.threshold(10, 40, 0.9)?;
/// assert!(eps > 0.0 && eps < 2.0);
/// # Ok::<(), hp_stats::StatsError>(())
/// ```
#[derive(Debug)]
pub struct ThresholdCalibrator {
    config: CalibrationConfig,
    seed: u64,
    /// The oracle's rows by `(m, k)`, ordered so an export needs no sort.
    rows: RwLock<BTreeMap<(u32, usize), Arc<CalibrationRow>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    surface_hits: AtomicU64,
    oracle_jobs: AtomicU64,
    crn_row_fills: AtomicU64,
    singleflight_waits: AtomicU64,
    /// `(m, k)` rows with a Monte-Carlo job currently running; misses on
    /// an in-flight row sleep on `inflight_done` instead of duplicating
    /// the job. (`std` primitives: the vendored `parking_lot` shim has no
    /// condition variable.)
    inflight: StdMutex<HashSet<(u32, usize)>>,
    inflight_done: Condvar,
    surface: RwLock<Option<Arc<ThresholdSurface>>>,
    /// Serializes surface construction (not lookups).
    surface_build: Mutex<()>,
}

impl ThresholdCalibrator {
    /// Creates a calibrator with the given configuration and a fixed
    /// default seed (calibrations are reproducible by default).
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationConfig::validate`] failures.
    pub fn new(config: CalibrationConfig) -> Result<Self, StatsError> {
        config.validate()?;
        Ok(ThresholdCalibrator {
            config,
            seed: 0x5EED_CA1B,
            rows: RwLock::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            surface_hits: AtomicU64::new(0),
            oracle_jobs: AtomicU64::new(0),
            crn_row_fills: AtomicU64::new(0),
            singleflight_waits: AtomicU64::new(0),
            inflight: StdMutex::new(HashSet::new()),
            inflight_done: Condvar::new(),
            surface: RwLock::new(None),
            surface_build: Mutex::new(()),
        })
    }

    /// Replaces the Monte-Carlo seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// Number of thresholds held, over all rows (diagnostics).
    pub fn cache_len(&self) -> usize {
        self.rows.read().values().map(|row| row.values.len()).sum()
    }

    /// Bytes of the rows held: each [`CalibrationRow`], its confidence
    /// block at its capacity, and its thresholds wherever they live — a
    /// heap block at its capacity, or the binary's table they borrow. The
    /// store never evicts, so this grows by a row per distinct `(m, k)`
    /// asked for.
    pub fn cache_bytes(&self) -> usize {
        let row_bytes = |row: &Arc<CalibrationRow>| {
            let thresholds = match &row.values {
                Cow::Borrowed(values) => values.len(),
                Cow::Owned(values) => values.capacity(),
            };
            std::mem::size_of::<CalibrationRow>()
                + row.confidences.capacity() * std::mem::size_of::<u32>()
                + thresholds * std::mem::size_of::<f64>()
        };
        self.rows.read().values().map(row_bytes).sum()
    }

    /// Lifetime `(hits, misses)` of the row store. A hit answered a
    /// [`Self::threshold_at`] lookup from a held row; a miss ran (or
    /// waited on) a Monte-Carlo row job. Surface answers count in
    /// neither — see [`Self::stats`]. Large-`k` extrapolations count as
    /// the anchor lookup they recurse into.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The full lifetime counter set (cache, surface, oracle jobs,
    /// row fills, single-flight waits).
    pub fn stats(&self) -> CalibrationStats {
        CalibrationStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            surface_hits: self.surface_hits.load(Ordering::Relaxed),
            oracle_jobs: self.oracle_jobs.load(Ordering::Relaxed),
            crn_row_fills: self.crn_row_fills.load(Ordering::Relaxed),
            singleflight_waits: self.singleflight_waits.load(Ordering::Relaxed),
        }
    }

    /// A stable fingerprint of everything that determines what this
    /// calibrator's oracle thresholds *are*: the Monte-Carlo seed, trial
    /// floor, confidence, p̂ bucket width, distance metric, and large-`k`
    /// cutoff.
    ///
    /// Two calibrators with equal fingerprints produce bit-identical
    /// thresholds for every key, so a persisted cache is valid exactly
    /// when its recorded fingerprint matches. Thread count and the
    /// surface parameters are deliberately excluded: row jobs are seeded
    /// by `(seed, m, k)` alone, which makes the first a pure performance
    /// knob, and the surface is an error-bounded view over the oracle, not
    /// a change to it (persisted surfaces additionally record their own
    /// parameters).
    pub fn fingerprint(&self) -> u64 {
        let c = &self.config;
        // "FPCAL2": common-random-number row jobs draw from an (m, k)
        // seed, so thresholds differ from the FPCAL1 per-(m, k, p̂) jobs
        // and caches persisted by either scheme must not cross-load.
        let mut fp = derive_seed(0x4650_4341_4C32, self.seed);
        fp = derive_seed(fp, c.trials as u64);
        fp = derive_seed(fp, c.confidence.to_bits());
        fp = derive_seed(fp, c.p_bucket.to_bits());
        fp = derive_seed(fp, c.distance as u64);
        fp = derive_seed(fp, c.large_k_cutoff as u64);
        fp
    }

    /// Lists every held threshold one by one, sorted by
    /// `(m, k, p̂ bucket, confidence)` whatever order the rows were
    /// calibrated or their columns added in.
    pub fn export_cache(&self) -> Vec<CalibrationEntry> {
        let mut entries = Vec::with_capacity(self.cache_len());
        for row in self.rows.read().values() {
            for (confidence_millis, column) in row.columns() {
                entries.extend(column.iter().zip(0..).map(|(&epsilon, p_bucket_index)| {
                    CalibrationEntry {
                        m: row.m,
                        k: row.k,
                        p_bucket_index,
                        confidence_millis,
                        epsilon,
                    }
                }));
            }
        }
        entries.sort_by_key(|e| (e.m, e.k, e.p_bucket_index, e.confidence_millis));
        entries
    }

    /// Every held row, in `(m, k)` order — what a calibration cache
    /// persists. The rows are shared with the store, not copied.
    pub fn export_rows(&self) -> Vec<Arc<CalibrationRow>> {
        self.rows.read().values().cloned().collect()
    }

    /// Installs previously exported rows (e.g. loaded from disk at boot,
    /// or a table compiled into the binary), returning how many were
    /// installed. A row is refused whole unless its columns begin with
    /// this calibrator's confidence ladder, it holds one value per p̂
    /// bucket per column, and every value is finite and non-negative; a
    /// row already held is left untouched (the live one is equally
    /// authoritative), and its values are not read. Borrowed values stay
    /// borrowed.
    ///
    /// Preloading only makes sense from a calibrator with the same
    /// [`Self::fingerprint`]; callers own that check — beyond the shape
    /// of a row this method trusts its input.
    pub fn preload_rows(&self, rows: impl IntoIterator<Item = CalibrationRow>) -> usize {
        let ladder: Vec<u32> = confidence_ladder(self.config.confidence)
            .into_iter()
            .map(|(millis, _)| millis)
            .collect();
        let buckets = self.p_buckets();
        let mut held = self.rows.write();
        let mut installed = 0;
        for mut row in rows {
            if held.contains_key(&(row.m, row.k)) {
                continue;
            }
            let columns = &row.confidences;
            let whole = columns.starts_with(&ladder)
                && row.values.len() == buckets * columns.len()
                && row.values.iter().all(|eps| eps.is_finite() && *eps >= 0.0);
            if whole {
                // A parsed row may carry spare capacity; a held one is
                // held for the life of the process.
                row.confidences.shrink_to_fit();
                if let Cow::Owned(values) = &mut row.values {
                    values.shrink_to_fit();
                }
                held.insert((row.m, row.k), Arc::new(row));
                installed += 1;
            }
        }
        installed
    }

    /// The currently installed threshold surface, if any.
    pub fn surface(&self) -> Option<Arc<ThresholdSurface>> {
        self.surface.read().clone()
    }

    /// Installs a pre-built surface (e.g. loaded from a persisted
    /// calibration cache), replacing any current one. The caller owns
    /// compatibility: the surface must have been built by a calibrator
    /// with the same [`Self::fingerprint`] and surface parameters.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidCount`] when a layer's rows do not hold one
    /// value per p̂ bucket of this calibrator — a row is indexed by bucket,
    /// so any other width would serve a neighbouring bucket's threshold.
    /// Nothing is installed then.
    pub fn install_surface(&self, surface: Arc<ThresholdSurface>) -> Result<(), StatsError> {
        let buckets = self.p_buckets();
        if let Some(layer) = surface.layers().iter().find(|l| l.p_buckets() != buckets) {
            return Err(StatsError::InvalidCount {
                what: "surface layer p̂ buckets",
                value: layer.p_buckets(),
            });
        }
        *self.surface.write() = Some(surface);
        Ok(())
    }

    /// Builds (or verifies) the interpolated threshold surface for window
    /// size `m`, when [`CalibrationConfig::surface`] is configured.
    /// Returns whether a surface now covers `m` (`Ok(false)` when no
    /// surface is configured).
    ///
    /// Idempotent and cheap when warm: rows already held (from a
    /// persisted calibration file or earlier traffic) are reused, so a
    /// warm rebuild is row reads plus interpolation arithmetic. Builds
    /// for distinct `m` accumulate layers into one surface.
    ///
    /// # Errors
    ///
    /// Propagates oracle calibration failures and
    /// [`SurfaceParams::validate`].
    pub fn ensure_surface_for(&self, m: u32) -> Result<bool, StatsError> {
        let Some(params) = self.config.surface else {
            return Ok(false);
        };
        let covered =
            |slot: &Option<Arc<ThresholdSurface>>| slot.as_ref().is_some_and(|s| s.covers(m));
        if covered(&self.surface.read()) {
            return Ok(true);
        }
        let _build = self.surface_build.lock();
        if covered(&self.surface.read()) {
            return Ok(true);
        }
        let new_layers = self.build_layers(m, params)?;
        let mut layers = self
            .surface
            .read()
            .as_ref()
            .map(|s| s.layers().to_vec())
            .unwrap_or_default();
        layers.retain(|l| l.m != m);
        layers.extend(new_layers);
        let surface = Arc::new(ThresholdSurface::from_parts(params, layers)?);
        *self.surface.write() = Some(surface);
        Ok(true)
    }

    /// Threshold ε such that `confidence` of honest sample-sets of `k`
    /// window counts drawn from `B(m, p̂)` have distance below ε.
    ///
    /// Uses the configured confidence; see [`Self::threshold_at`] to
    /// override it (the Bonferroni-corrected multi-test does).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidCount`] if `k == 0`, or
    /// [`StatsError::InvalidProbability`] for a bad `p_hat`.
    pub fn threshold(&self, m: u32, k: usize, p_hat: f64) -> Result<f64, StatsError> {
        self.threshold_at(m, k, p_hat, self.config.confidence)
    }

    /// Like [`Self::threshold`] with an explicit confidence level.
    ///
    /// # Errors
    ///
    /// As [`Self::threshold`], plus [`StatsError::InvalidLevel`] for a
    /// confidence outside `(0, 1)`.
    pub fn threshold_at(
        &self,
        m: u32,
        k: usize,
        p_hat: f64,
        confidence: f64,
    ) -> Result<f64, StatsError> {
        self.threshold_with_provenance(m, k, p_hat, confidence)
            .map(|(eps, _)| eps)
    }

    /// [`Self::threshold_at`] plus where the answer came from: the
    /// interpolated surface, a held row, or a Monte-Carlo job run (or
    /// waited on) by this call. Large-`k` extrapolations inherit the
    /// provenance of their anchor lookup.
    ///
    /// One question asked of a one-shot [`ThresholdView`]; a caller with
    /// many `(k, p̂)` at one `(m, confidence)` keeps the view instead.
    ///
    /// # Errors
    ///
    /// As [`Self::threshold_at`].
    pub fn threshold_with_provenance(
        &self,
        m: u32,
        k: usize,
        p_hat: f64,
        confidence: f64,
    ) -> Result<(f64, ThresholdProvenance), StatsError> {
        self.view(m, confidence)?.threshold(k, p_hat)
    }

    /// Resolves everything a lookup owes to `(m, confidence)` alone, once:
    /// the returned view answers any number of `(k, p̂)` questions for that
    /// pair — what one multi-test verdict asks, about two thousand times.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidLevel`] for a confidence outside `(0, 1)`.
    // `#[inline]` here and on `ThresholdView::threshold`: a lone lookup
    // builds and drops a view around one call, which costs ≈ 20 % more
    // per lookup when the pair is not inlined into it.
    #[inline]
    pub fn view(&self, m: u32, confidence: f64) -> Result<ThresholdView<'_>, StatsError> {
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(StatsError::InvalidLevel { value: confidence });
        }
        let confidence_millis = quantize_confidence(confidence);
        // The guard is a temporary of this statement: the lock is held to
        // find the layer and clone one `Arc`, and no lookup ever takes it.
        let layer = self.surface.read().as_ref().and_then(|surface| {
            let layer = surface.serving_layer(m, confidence_millis)?;
            Some((Arc::clone(surface), layer))
        });
        Ok(ThresholdView {
            calibrator: self,
            m,
            confidence,
            confidence_millis,
            layer,
            surface_hits: 0,
            cache_hits: 0,
        })
    }

    /// The held row's threshold for one p̂ bucket and confidence, if the
    /// row is held and has that column.
    fn held(&self, m: u32, k: usize, p_index: u32, confidence_millis: u32) -> Option<f64> {
        let rows = self.rows.read();
        Some(rows.get(&(m, k))?.column(confidence_millis)?[p_index as usize])
    }

    /// The miss path: lead the single-flight row job for `(m, k)`, or
    /// sleep on whoever is running it, until the row holds the requested
    /// confidence — counting one miss and charging the wall time to the
    /// calling thread.
    fn calibrate_row(
        &self,
        m: u32,
        k: usize,
        p_index: u32,
        confidence: f64,
    ) -> Result<f64, StatsError> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let confidence_millis = quantize_confidence(confidence);
        let result = loop {
            {
                let mut inflight = self.inflight.lock().expect("in-flight lock poisoned");
                // Asked under the lock: a leader publishes its row before it
                // gives up its claim, so a column missing here is either
                // being computed (the row is claimed) or for us to compute.
                if let Some(eps) = self.held(m, k, p_index, confidence_millis) {
                    break Ok(eps);
                }
                if !inflight.insert((m, k)) {
                    self.singleflight_waits.fetch_add(1, Ordering::Relaxed);
                    let _woken = self
                        .inflight_done
                        .wait(inflight)
                        .expect("in-flight lock poisoned");
                    // The leader's job may not have asked for our confidence
                    // (off the precomputed ladder): then the next round
                    // leads a job for it.
                    continue;
                }
            }
            let job = self.run_row_job(m, k, confidence);
            self.inflight
                .lock()
                .expect("in-flight lock poisoned")
                .remove(&(m, k));
            self.inflight_done.notify_all();
            if let Err(failed) = job {
                break Err(failed);
            }
        };
        add_calibration_nanos(start.elapsed().as_nanos() as u64);
        result
    }

    /// One common-random-number Monte-Carlo job for the `(m, k)` row:
    /// samples every p̂ bucket from one shared uniform batch and publishes
    /// the row — the whole confidence ladder, plus the requested confidence
    /// when that is off it, for every bucket. A row already held keeps its
    /// columns and gains the requested one.
    fn run_row_job(&self, m: u32, k: usize, requested: f64) -> Result<(), StatsError> {
        let (mut columns, mut values) = match self.rows.read().get(&(m, k)) {
            Some(row) => (row.confidences.clone(), row.values.to_vec()),
            None => Default::default(),
        };
        let mut confidences = Vec::new();
        if columns.is_empty() {
            confidences = confidence_ladder(self.config.confidence);
        }
        // The miss that led here found no column for the requested
        // confidence, so only the ladder can already name it.
        let requested_millis = quantize_confidence(requested);
        if !confidences.iter().any(|&(q, _)| q == requested_millis) {
            confidences.push((requested_millis, requested));
        }
        self.oracle_jobs.fetch_add(1, Ordering::Relaxed);
        let buckets = self.p_buckets();
        let centers: Vec<f64> = (0..buckets as u32)
            .map(|i| self.p_bucket_center(i))
            .collect();
        let per_bucket = self.crn_samples(m, k, &centers, self.config.trials)?;

        // Quantiles for every confidence come from one partially ordered
        // copy per bucket — only the order statistics from the lowest one
        // any confidence reads upward are put in place; mean/variance are
        // taken in draw order first so each value is bit-identical to
        // `tail_quantile` on the raw samples.
        let lowest = confidences
            .iter()
            .map(|&(_, confidence)| lowest_rank_read(self.config.trials, confidence))
            .min()
            .expect("the miss that led this job asked for a column the row lacks");
        let (kept, filled) = (values.len(), buckets * confidences.len());
        values.reserve_exact(filled);
        values.resize(kept + filled, 0.0);
        for (index, mut samples) in per_bucket.into_iter().enumerate() {
            let var = variance(&samples);
            samples.select_nth_unstable_by(lowest, f64::total_cmp);
            samples[lowest..].sort_unstable_by(f64::total_cmp);
            for (column, &(_, confidence)) in confidences.iter().enumerate() {
                values[kept + column * buckets + index] =
                    tail_quantile_sorted(&samples, var, confidence)?;
            }
        }
        columns.extend(confidences.iter().map(|&(millis, _)| millis));
        let row = CalibrationRow {
            m,
            k,
            confidences: columns,
            values: values.into(),
        };
        // One writer per row (single flight), one write per job: readers
        // see the old row or the new one, never part of either.
        self.rows.write().insert((m, k), Arc::new(row));
        self.crn_row_fills
            .fetch_add(filled as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Raw Monte-Carlo distance samples for `(m, k, p)` — the distribution
    /// the threshold is a quantile of. Exposed for Fig. 8-style analyses.
    ///
    /// Served by the same common-random-number engine as the row jobs: the
    /// uniform batch depends only on `(seed, m, k)`, so the samples for a
    /// bucket center are bit-identical whether requested alone or as part
    /// of a full row.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidCount`] if `k == 0`, or propagates
    /// distribution-construction failures.
    pub fn distance_samples(&self, m: u32, k: usize, p: f64) -> Result<Vec<f64>, StatsError> {
        let mut rows = self.crn_samples(m, k, std::slice::from_ref(&p), self.config.trials)?;
        Ok(rows.pop().expect("one bucket was requested"))
    }

    /// The common-random-number sampler: draws `trials` batches of `k`
    /// uniforms from RNG streams seeded by `(seed, m, k)` alone and
    /// thresholds each batch through every bucket's binomial inverse cdf.
    /// Returns one distance-sample vector per entry of `ps`, each in trial
    /// order.
    fn crn_samples(
        &self,
        m: u32,
        k: usize,
        ps: &[f64],
        trials: usize,
    ) -> Result<Vec<Vec<f64>>, StatsError> {
        // Bin counts are held as `u32`; a batch that could overflow one is
        // far beyond what a Monte-Carlo job can draw anyway.
        if k == 0 || u32::try_from(k).is_err() {
            return Err(StatsError::InvalidCount {
                what: "sample-set size k",
                value: k,
            });
        }
        let models = ps
            .iter()
            .map(|&p| BucketModel::new(m, p))
            .collect::<Result<Vec<_>, _>>()?;
        let index = BoundIndex::new(&models)?;
        // The job seed deliberately ignores p: every bucket is carved from
        // the same uniform batch (common random numbers), which is what
        // lets one job fill a whole row and keeps the threshold-vs-p̂
        // curve free of sampling jitter.
        let job_seed = derive_seed(self.seed, derive_seed(m as u64, k as u64));

        // Trials are drawn in fixed chunks, each from its own RNG stream
        // derived from (job_seed, chunk index): the chunk sequence, not a
        // schedule, defines the sample sequence. A chunk's trials are
        // scored a lane group at a time, each group's draws taken from the
        // stream in trial order.
        let mut hist = vec![[0u32; LANES]; index.sorted.len()];
        let mut outs: Vec<Vec<f64>> = ps.iter().map(|_| Vec::with_capacity(trials)).collect();
        for c in 0..trials.div_ceil(CHUNK_TRIALS) {
            let mut rng = seeded_rng(derive_seed(job_seed, c as u64 + 1));
            let in_chunk = CHUNK_TRIALS.min(trials - c * CHUNK_TRIALS);
            for first in (0..in_chunk).step_by(LANES) {
                let lanes = LANES.min(in_chunk - first);
                hist.fill([0; LANES]);
                for lane in 0..lanes {
                    index.add_draws(&mut hist, lane, (0..k).map(|_| rng.random::<f64>()));
                }
                score_crn_group(
                    &index,
                    &models,
                    self.config.distance,
                    &mut hist,
                    lanes,
                    |bucket, distances| outs[bucket].extend_from_slice(distances),
                );
            }
        }
        Ok(outs)
    }

    /// Builds the surface layers for window size `m`: fills the oracle
    /// rows on the geometric k-grid (plus the midpoints used for error
    /// measurement), reads the grid values from them, and measures the
    /// interpolation error exhaustively along p̂ and at the geometric k
    /// midpoints. The reads are the build's own bookkeeping, not traffic:
    /// they leave the hit counter alone (the row jobs still count as
    /// misses).
    fn build_layers(&self, m: u32, params: SurfaceParams) -> Result<Vec<SurfaceLayer>, StatsError> {
        params.validate()?;
        let cutoff = self.config.large_k_cutoff;
        let mut k_grid = vec![params.k_min.min(cutoff).max(1)];
        while k_grid.last().expect("non-empty") * 2 < cutoff {
            k_grid.push(k_grid.last().expect("non-empty") * 2);
        }
        if *k_grid.last().expect("non-empty") != cutoff {
            k_grid.push(cutoff);
        }
        // Geometric midpoints between adjacent grid ks: where the ln-k
        // interpolation error peaks — measured, never served from.
        let k_mids: Vec<usize> = k_grid
            .windows(2)
            .filter_map(|w| {
                let mid = ((w[0] as f64) * (w[1] as f64)).sqrt().round() as usize;
                (mid > w[0] && mid < w[1]).then_some(mid)
            })
            .collect();
        let measured: Vec<usize> = k_grid.iter().chain(&k_mids).copied().collect();
        self.fill_rows(m, &measured)?;

        // One guard for every read below. A held row carries the whole
        // ladder, and nothing evicts, so each column is there.
        let rows = self.rows.read();
        let oracle = |k: usize, millis: u32| -> &[f64] {
            rows.get(&(m, k))
                .and_then(|row| row.column(millis))
                .expect("row was filled above and the store never evicts")
        };
        let confidences = confidence_ladder(self.config.confidence);
        let mut layers = Vec::with_capacity(confidences.len());
        for &(millis, _) in &confidences {
            let mut values = Vec::with_capacity(k_grid.len() * self.p_buckets());
            for &k in &k_grid {
                values.extend_from_slice(oracle(k, millis));
            }
            let mut layer = SurfaceLayer {
                m,
                confidence_millis: millis,
                error_bound: f64::INFINITY,
                k_grid: k_grid.clone(),
                values: values.into(),
            };
            let mut worst = 0.0f64;
            for &k in &measured {
                for (index, truth) in oracle(k, millis).iter().enumerate() {
                    let interpolated = layer
                        .interpolate(k, index as u32)
                        .expect("measurement point inside the grid span");
                    worst = worst.max((interpolated - truth).abs());
                }
            }
            // 1.5× headroom over the worst measured point: the error
            // surface is smooth between measurement points (common random
            // numbers along p̂, peak-sampled midpoints along k).
            layer.error_bound = 1.5 * worst;
            layers.push(layer);
        }
        Ok(layers)
    }

    /// Runs the row job of every `k` in `ks` (window size `m`) whose row
    /// is not held yet — one miss and one job each, none for a row a
    /// persisted file or live traffic already brought — on up to
    /// [`CalibrationConfig::threads`] workers, the caller included. A row
    /// job, post-processing included, runs whole on the worker that took
    /// it, through the same single-flight miss path as live traffic.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidCount`] if a cold `k` is 0; otherwise
    /// propagates oracle calibration failures.
    pub fn fill_rows(&self, m: u32, ks: &[usize]) -> Result<(), StatsError> {
        let mut cold: Vec<usize> = {
            let rows = self.rows.read();
            ks.iter()
                .copied()
                .filter(|&k| !rows.contains_key(&(m, k)))
                .collect()
        };
        // Largest k first: the costliest jobs start while every worker is
        // still busy, the cheap ones fill the gaps at the end.
        cold.sort_unstable_by(|a, b| b.cmp(a));
        let next = AtomicUsize::new(0);
        let work = || -> Result<(), StatsError> {
            // Relaxed: the counter only hands out distinct indices.
            while let Some(&k) = cold.get(next.fetch_add(1, Ordering::Relaxed)) {
                self.calibrate_row(m, k, 0, self.config.confidence)?;
            }
            Ok(())
        };
        let helpers = self.config.threads.min(cold.len()).saturating_sub(1);
        if helpers == 0 {
            return work();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
            let mine = work();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration worker panicked"))
                .fold(mine, Result::and)
        })
    }

    fn p_bucket_index(&self, p: f64) -> u32 {
        (p / self.config.p_bucket).round() as u32
    }

    /// How many p̂ buckets cover `[0, 1]`: the width of every row.
    fn p_buckets(&self) -> usize {
        self.p_bucket_index(1.0) as usize + 1
    }

    fn p_bucket_center(&self, index: u32) -> f64 {
        (index as f64 * self.config.p_bucket).clamp(0.0, 1.0)
    }
}

/// A [`ThresholdCalibrator`] as seen for one `(m, confidence)`, made by
/// [`ThresholdCalibrator::view`]: the confidence is validated and
/// quantized, and the installed surface is held as a snapshot with the one
/// layer that serves the pair already found and its tolerance gate already
/// checked. A `(k, p̂)` the layer covers is then answered with no lock and
/// no shared write; rows below the surface's `k_min`, and every row when
/// no layer serves, go to the row store and from there to the
/// single-flight miss path, exactly as a lone lookup does.
///
/// Hits are counted locally and added to the calibrator's lifetime
/// counters when the view is dropped — one add per counter however many
/// lookups it answered, and none lost if its owner stops half-way.
#[derive(Debug)]
pub struct ThresholdView<'a> {
    calibrator: &'a ThresholdCalibrator,
    m: u32,
    confidence: f64,
    confidence_millis: u32,
    /// The surface snapshot and the index of its serving layer. `None`
    /// when no surface is installed, it has no layer for the pair, or the
    /// layer's error bound exceeds the tolerance.
    layer: Option<(Arc<ThresholdSurface>, usize)>,
    surface_hits: u64,
    cache_hits: u64,
}

impl ThresholdView<'_> {
    /// The threshold ε for `k` window counts at `p_hat`, and where it
    /// came from. Large-`k` extrapolations inherit the provenance of
    /// their anchor lookup.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidCount`] if `k == 0`,
    /// [`StatsError::InvalidProbability`] for a bad `p_hat`.
    #[inline]
    pub fn threshold(
        &mut self,
        k: usize,
        p_hat: f64,
    ) -> Result<(f64, ThresholdProvenance), StatsError> {
        if k == 0 {
            return Err(StatsError::InvalidCount {
                what: "sample-set size k",
                value: 0,
            });
        }
        if !(0.0..=1.0).contains(&p_hat) || !p_hat.is_finite() {
            return Err(StatsError::InvalidProbability { value: p_hat });
        }
        let calibrator = self.calibrator;

        // Beyond the cutoff, use the 1/√k law anchored at the cutoff.
        let k0 = calibrator.config.large_k_cutoff;
        if k > k0 {
            let (base, provenance) = self.threshold(k0, p_hat)?;
            return Ok((base * (k0 as f64 / k as f64).sqrt(), provenance));
        }

        let p_index = calibrator.p_bucket_index(p_hat);
        if let Some((surface, layer)) = &self.layer {
            if let Some(eps) = surface.layers()[*layer].interpolate(k, p_index) {
                self.surface_hits += 1;
                return Ok((eps, ThresholdProvenance::Surface));
            }
        }
        if let Some(eps) = calibrator.held(self.m, k, p_index, self.confidence_millis) {
            self.cache_hits += 1;
            return Ok((eps, ThresholdProvenance::Cache));
        }
        calibrator
            .calibrate_row(self.m, k, p_index, self.confidence)
            .map(|eps| (eps, ThresholdProvenance::MonteCarlo))
    }
}

impl Drop for ThresholdView<'_> {
    fn drop(&mut self) {
        // Relaxed: statistics, read by `stats()` alone.
        if self.surface_hits > 0 {
            self.calibrator
                .surface_hits
                .fetch_add(self.surface_hits, Ordering::Relaxed);
        }
        if self.cache_hits > 0 {
            self.calibrator
                .hits
                .fetch_add(self.cache_hits, Ordering::Relaxed);
        }
    }
}

/// One p̂ bucket's binomial model, ready for inverse-cdf thresholding: the
/// cdf table mirrors `Binomial::table_sampler`'s construction (pmf prefix
/// sums with the last entry forced to 1.0), so carving a uniform batch at
/// the cdf steps draws the same distribution the sampler would.
struct BucketModel {
    cdf: Vec<f64>,
    pmf: Vec<f64>,
}

impl BucketModel {
    fn new(m: u32, p: f64) -> Result<Self, StatsError> {
        let model = Binomial::new(m, p)?;
        let pmf = model.pmf_table();
        let mut cdf = Vec::with_capacity(pmf.len());
        let mut acc = 0.0;
        for &w in &pmf {
            acc += w;
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(BucketModel { cdf, pmf })
    }
}

/// Quantile estimation that stays meaningful beyond the Monte-Carlo
/// resolution.
///
/// A Bonferroni-corrected multi-test may ask for the 99.96th percentile;
/// with 2000 trials the empirical quantile would simply return the sample
/// maximum. Beyond the highest quantile the sample can resolve (leaving
/// ~10 samples in the tail), we extend with a normal tail anchored at the
/// resolvable quantile: `ε(c) ≈ q_a + (z_c − z_a)·σ`. The distance
/// statistic is a sum of many bounded terms, so its upper tail is
/// approximately Gaussian; the extension is monotone in the confidence
/// and exact at `c = a`.
#[cfg(test)] // production callers go through `tail_quantile_sorted` row fills
fn tail_quantile(samples: &[f64], confidence: f64) -> Result<f64, StatsError> {
    let var = variance(samples);
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    tail_quantile_sorted(&sorted, var, confidence)
}

/// The row-fill fast path of [`tail_quantile`]: callers that take many
/// quantiles of one sample order it once and pass the variance computed in
/// the original draw order, which keeps every value bit-identical to
/// `tail_quantile` on the unsorted samples (summation order matters in
/// floating point). `sorted` need only hold its order statistics from
/// [`lowest_rank_read`] of the lowest confidence asked upward.
fn tail_quantile_sorted(sorted: &[f64], var: f64, confidence: f64) -> Result<f64, StatsError> {
    let n = sorted.len();
    if n == 0 {
        return Err(StatsError::EmptyInput { what: "quantile" });
    }
    let achievable = resolvable_confidence(n);
    if confidence <= achievable {
        return Ok(quantile_sorted(sorted, confidence));
    }
    let anchor = quantile_sorted(sorted, achievable);
    let sigma = var.sqrt();
    if sigma == 0.0 {
        return Ok(anchor);
    }
    let z_anchor = crate::special::standard_normal_quantile(achievable);
    let z_conf = crate::special::standard_normal_quantile(confidence);
    Ok(anchor + (z_conf - z_anchor) * sigma)
}

/// The highest quantile `n` samples resolve (leaving ~10 in the tail).
fn resolvable_confidence(n: usize) -> f64 {
    1.0 - (10.0 / n as f64).min(0.5)
}

/// The lowest order statistic [`tail_quantile_sorted`] reads for
/// `confidence` over `n` samples (`quantile_sorted`'s lower neighbour).
fn lowest_rank_read(n: usize, confidence: f64) -> usize {
    let q = confidence.min(resolvable_confidence(n));
    (q * n.saturating_sub(1) as f64).floor() as usize
}

/// `(n−1)`-denominator variance, summed in input order (bit-stability
/// across the sorted/unsorted quantile paths depends on that).
fn variance(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1).max(1) as f64
}

/// Trials per independent RNG stream. Each chunk of this many trials is
/// seeded by `(job_seed, chunk index)` alone: the chunk sequence defines a
/// row's sample sequence, whichever worker runs the job.
const CHUNK_TRIALS: usize = 64;

/// A row job's cdf bounds — the `m + 1` inverse-cdf steps of every bucket
/// model — in one sorted array, so a uniform batch answers
/// `#{u ≤ bound}` for all of them in one pass: each draw increments the
/// slot of the first bound `≥ u`, and the prefix sum through a bound's
/// slot counts exactly the draws `≤` it. That count is an integer, so it
/// equals what sorting the batch and bisecting per bound would give, ties
/// and duplicate bounds (p̂ = 0, p̂ = 1) included.
struct BoundIndex {
    /// Every bound, ascending, then an `INFINITY` sentinel that ends the
    /// scan in [`Self::slot`].
    sorted: Vec<f64>,
    /// `rank[bucket · (m + 1) + c]`: where that bucket's c-th cdf step
    /// sits in `sorted`.
    rank: Vec<u32>,
    /// Direct-address table over `[0, 1]`: `cell_start[i]` is the number
    /// of bounds below `i / cells`, where a draw in cell `i` starts its
    /// scan.
    cell_start: Vec<u32>,
    /// Cell count; a power of two, so `u · cells` and `i / cells` are
    /// exact and a draw never lands in a cell whose lower edge exceeds it.
    cells: f64,
}

impl BoundIndex {
    fn new(models: &[BucketModel]) -> Result<Self, StatsError> {
        let mut order: Vec<(f64, usize)> = models
            .iter()
            .flat_map(|model| &model.cdf)
            .copied()
            .zip(0..)
            .collect();
        if u32::try_from(order.len()).is_err() {
            return Err(StatsError::InvalidCount {
                what: "cdf bounds in one calibration row",
                value: order.len(),
            });
        }
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut rank = vec![0u32; order.len()];
        for (position, &(_, id)) in order.iter().enumerate() {
            rank[id] = position as u32;
        }
        let mut sorted: Vec<f64> = order.iter().map(|&(bound, _)| bound).collect();
        // Four or more cells per bound: most cells then hold none, and a
        // draw's scan ends at its first comparison.
        let cells = (4 * sorted.len()).next_power_of_two();
        let cell_start = (0..=cells)
            .map(|i| sorted.partition_point(|&b| b < i as f64 / cells as f64) as u32)
            .collect();
        sorted.push(f64::INFINITY);
        Ok(BoundIndex {
            sorted,
            rank,
            cell_start,
            cells: cells as f64,
        })
    }

    /// Index in `sorted` of the first bound `≥ u`, for `u ∈ [0, 1]`.
    #[inline]
    fn slot(&self, u: f64) -> usize {
        let mut slot = self.cell_start[(u * self.cells) as usize] as usize;
        while self.sorted[slot] < u {
            slot += 1;
        }
        slot
    }

    /// Counts each draw in lane `lane` of its slot in `hist`.
    #[inline]
    fn add_draws(&self, hist: &mut [[u32; LANES]], lane: usize, draws: impl Iterator<Item = f64>) {
        for u in draws {
            hist[self.slot(u)][lane] += 1;
        }
    }
}

/// How many trials one pass over the bound table scores: a lane group is up
/// to this many consecutive trials of one chunk, their histograms
/// interleaved slot by slot so that the prefix sum, the bin counts and the
/// distance steps all run over contiguous `[_; LANES]` arrays.
const LANES: usize = 8;

// A group never straddles two chunk streams; only a chunk's last group can
// hold fewer than `LANES` trials.
const _: () = assert!(CHUNK_TRIALS.is_multiple_of(LANES));

#[cfg(test)]
thread_local! {
    /// Prefix passes over a bound table run by this thread: one per lane
    /// group, the work unit the lane kernel claims.
    static BOUND_PASSES: Cell<u64> = const { Cell::new(0) };
}

/// One lane group of Monte-Carlo trials in one pass over the bound table:
/// `hist` holds, slot by slot, how many draws of each lane's uniform batch
/// fell into each slot ([`BoundIndex::add_draws`]; lane `l` is the group's
/// `l`-th trial). `emit` gets each bucket's distances between the binned
/// batches and its pmf, one per lane in trial order, for the first `lanes`
/// lanes (common random numbers: every bucket sees the same batches).
/// `hist` is left holding prefix sums.
fn score_crn_group(
    index: &BoundIndex,
    models: &[BucketModel],
    distance: DistanceKind,
    hist: &mut [[u32; LANES]],
    lanes: usize,
    mut emit: impl FnMut(usize, &[f64]),
) {
    #[cfg(test)]
    BOUND_PASSES.with(|passes| passes.set(passes.get() + 1));
    let mut at_or_below = [0u32; LANES];
    for slot in hist.iter_mut() {
        for (sum, count) in at_or_below.iter_mut().zip(slot.iter()) {
            *sum += count;
        }
        *slot = at_or_below;
    }
    // `hist[rank][l]` is now lane l's #{u ≤ bound}: the number of its
    // draws the inverse cdf maps into 0..=c, so adjacent differences along
    // a bucket's cdf are its per-value counts. They telescope to the last
    // bound, 1.0, which every draw in [0, 1] is at or below: a lane's
    // total is all its draws. (A lane past `lanes` holds none; its NaN
    // distances are never emitted.)
    let totals = at_or_below.map(f64::from);
    let support = models.first().map_or(1, |model| model.cdf.len());
    let per_bucket = models.iter().zip(index.rank.chunks_exact(support));
    for (bucket, (model, ranks)) in per_bucket.enumerate() {
        let mut prev = [0u32; LANES];
        let distances = distance.of_masses(&model.pmf, |bin| {
            let cumulative = hist[ranks[bin] as usize];
            let mut masses = [0.0; LANES];
            for lane in 0..LANES {
                masses[lane] = f64::from(cumulative[lane] - prev[lane]) / totals[lane];
            }
            prev = cumulative;
            masses
        });
        emit(bucket, &distances[..lanes]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::empirical::Histogram;
    use proptest::prelude::*;

    /// The differential oracle for [`score_crn_group`]: the kernel this
    /// file shipped before — sort the batch, bisect it at every cdf step,
    /// build a [`Histogram`] per bucket.
    fn reference_crn_trial(
        models: &[BucketModel],
        distance: DistanceKind,
        uniforms: &mut [f64],
    ) -> Vec<f64> {
        uniforms.sort_by(|a, b| a.partial_cmp(b).expect("uniform draws are finite"));
        models
            .iter()
            .map(|model| {
                let mut counts = vec![0u64; model.cdf.len()];
                let mut prev = 0usize;
                for (slot, &bound) in counts.iter_mut().zip(&model.cdf) {
                    let cum = uniforms.partition_point(|&u| u <= bound);
                    *slot = (cum - prev) as u64;
                    prev = cum;
                }
                let hist = Histogram::from_counts(counts).unwrap();
                distance.distance(&hist, &model.pmf).unwrap()
            })
            .collect()
    }

    /// [`ThresholdCalibrator::crn_samples`] over the reference kernel: the
    /// same chunk streams, the same draw order.
    fn reference_crn_samples(
        cal: &ThresholdCalibrator,
        m: u32,
        k: usize,
        ps: &[f64],
    ) -> Vec<Vec<f64>> {
        reference_crn_samples_of(cal, m, k, ps, cal.config.trials)
    }

    /// [`reference_crn_samples`] at any trial count, one included.
    fn reference_crn_samples_of(
        cal: &ThresholdCalibrator,
        m: u32,
        k: usize,
        ps: &[f64],
        trials: usize,
    ) -> Vec<Vec<f64>> {
        let models: Vec<BucketModel> = ps
            .iter()
            .map(|&p| BucketModel::new(m, p).unwrap())
            .collect();
        let job_seed = derive_seed(cal.seed, derive_seed(m as u64, k as u64));
        let mut outs = vec![Vec::with_capacity(trials); ps.len()];
        let mut uniforms = vec![0.0f64; k];
        for c in 0..trials.div_ceil(CHUNK_TRIALS) {
            let mut rng = seeded_rng(derive_seed(job_seed, c as u64 + 1));
            for _ in 0..CHUNK_TRIALS.min(trials - c * CHUNK_TRIALS) {
                for u in uniforms.iter_mut() {
                    *u = rng.random();
                }
                let distances = reference_crn_trial(&models, cal.config.distance, &mut uniforms);
                for (out, d) in outs.iter_mut().zip(distances) {
                    out.push(d);
                }
            }
        }
        outs
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| row.iter().map(|d| d.to_bits()).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slot kernel reproduces the sort-and-bisect kernel bit for
        /// bit, sample by sample, for every metric — degenerate buckets
        /// (p = 0, p = 1: eleven coincident bounds each) always included.
        #[test]
        fn kernel_matches_the_sort_and_bisect_reference(
            seed in any::<u64>(),
            m in 1u32..=32,
            k in 1usize..=3000,
            kind in 0usize..5,
            inner in proptest::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let cal = ThresholdCalibrator::new(CalibrationConfig {
                trials: 70, // two chunk streams, the second one partial
                distance: DistanceKind::all()[kind],
                ..CalibrationConfig::default()
            })
            .unwrap()
            .with_seed(seed);
            let mut ps = vec![0.0, 1.0];
            ps.extend(inner);
            let got = cal.crn_samples(m, k, &ps, cal.config.trials).unwrap();
            let want = reference_crn_samples(&cal, m, k, &ps);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// Trial counts that end a chunk inside a lane group, on a group's
    /// edge or one trial past it, a lone trial, and 2 001 (31 full chunks
    /// and a chunk of 17: two full groups and a group of one).
    const PARTIAL_GROUP_TRIALS: [usize; 9] = [1, 7, 8, 9, 63, 64, 65, 70, 2001];

    proptest! {
        /// The lane kernel scores the tail group of a chunk — and only the
        /// lanes it drew — with every lane's distances in its trial's
        /// place, bit for bit against the sort-and-bisect reference, for
        /// every metric. (On the default config, so `PROPTEST_CASES`
        /// sets its case count.)
        #[test]
        fn kernel_matches_the_reference_on_partial_lane_groups(
            seed in any::<u64>(),
            m in 1u32..=32,
            k in 1usize..=3000,
            kind in 0usize..5,
            trials in 0usize..PARTIAL_GROUP_TRIALS.len(),
            inner in proptest::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let trials = PARTIAL_GROUP_TRIALS[trials];
            let cal = ThresholdCalibrator::new(CalibrationConfig {
                distance: DistanceKind::all()[kind],
                ..CalibrationConfig::default()
            })
            .unwrap()
            .with_seed(seed);
            let mut ps = vec![0.0, 1.0];
            ps.extend(inner);
            let got = cal.crn_samples(m, k, &ps, trials).unwrap();
            prop_assert!(got.iter().all(|samples| samples.len() == trials));
            let want = reference_crn_samples_of(&cal, m, k, &ps, trials);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn draws_on_a_bound_count_as_at_or_below_it() {
        // B(2, ½) has cdf steps ¼, ¾, 1 — exactly representable, so draws
        // can sit exactly on them; p = 0 and p = 1 add coincident bounds
        // at 0 and 1, and a second B(2, ½) duplicates the inner steps.
        let models: Vec<BucketModel> = [0.5, 0.0, 1.0, 0.5]
            .iter()
            .map(|&p| BucketModel::new(2, p).unwrap())
            .collect();
        assert_eq!(models[0].cdf, [0.25, 0.75, 1.0]);
        assert_eq!(models[1].cdf, [1.0, 1.0, 1.0]);
        assert_eq!(models[2].cdf, [0.0, 0.0, 1.0]);
        let index = BoundIndex::new(&models).unwrap();
        let batch = [
            0.75,
            0.0,
            0.25,
            0.25,
            0.5,
            0.75 - f64::EPSILON,
            0.25 + f64::EPSILON,
        ];
        let kernel = |distance: DistanceKind| -> Vec<f64> {
            let mut hist = vec![[0u32; LANES]; index.sorted.len()];
            let mut got = vec![f64::NAN; models.len()];
            index.add_draws(&mut hist, 0, batch.iter().copied());
            score_crn_group(&index, &models, distance, &mut hist, 1, |bucket, d| {
                got[bucket] = d[0]
            });
            got
        };
        for distance in DistanceKind::all() {
            let want = reference_crn_trial(&models, distance, &mut batch.clone());
            assert_eq!(bits(&[kernel(distance)]), bits(&[want]), "{distance:?}");
        }
        // And the counts themselves, for the metric-free part: 0, ¼, ¼ are
        // ≤ ¼ (three draws map to value 0); ¼+ε, ½, ¾−ε, ¾ are ≤ ¾.
        let l1 = kernel(DistanceKind::L1);
        let by_hand = Histogram::from_counts(vec![3, 4, 0]).unwrap();
        assert_eq!(
            l1[0].to_bits(),
            DistanceKind::L1
                .distance(&by_hand, &models[0].pmf)
                .unwrap()
                .to_bits()
        );
        assert_eq!(
            l1[3].to_bits(),
            l1[0].to_bits(),
            "duplicate bucket, same counts"
        );
        // Only the draw at exactly 0 is ≤ the p = 1 bucket's bound at 0.
        let at_zero = Histogram::from_counts(vec![1, 0, 6]).unwrap();
        assert_eq!(
            l1[2].to_bits(),
            DistanceKind::L1
                .distance(&at_zero, &models[2].pmf)
                .unwrap()
                .to_bits()
        );
    }

    fn calibrator(trials: usize) -> ThresholdCalibrator {
        ThresholdCalibrator::new(CalibrationConfig {
            trials,
            ..CalibrationConfig::default()
        })
        .unwrap()
    }

    /// A coarse p̂ bucket (0.05 → 21 buckets) keeps row jobs fast in tests
    /// that don't depend on the default bucket width.
    fn coarse_calibrator(trials: usize) -> ThresholdCalibrator {
        ThresholdCalibrator::new(CalibrationConfig {
            trials,
            p_bucket: 0.05,
            ..CalibrationConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        let bad = |cfg: CalibrationConfig| cfg.validate().is_err();
        assert!(bad(CalibrationConfig {
            trials: 1,
            ..Default::default()
        }));
        assert!(bad(CalibrationConfig {
            confidence: 1.0,
            ..Default::default()
        }));
        assert!(bad(CalibrationConfig {
            p_bucket: 0.0,
            ..Default::default()
        }));
        assert!(bad(CalibrationConfig {
            threads: 0,
            ..Default::default()
        }));
        assert!(bad(CalibrationConfig {
            surface: Some(SurfaceParams {
                tolerance: -1.0,
                ..Default::default()
            }),
            ..Default::default()
        }));
        assert!(CalibrationConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_arguments() {
        let cal = calibrator(100);
        assert!(cal.threshold(10, 0, 0.9).is_err());
        assert!(cal.threshold(10, 10, 1.5).is_err());
        assert!(cal.threshold_at(10, 10, 0.9, 0.0).is_err());
    }

    #[test]
    fn threshold_is_deterministic_given_seed() {
        let a = coarse_calibrator(500)
            .with_seed(9)
            .threshold(10, 20, 0.9)
            .unwrap();
        let b = coarse_calibrator(500)
            .with_seed(9)
            .threshold(10, 20, 0.9)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn threshold_decreases_with_more_windows() {
        let cal = coarse_calibrator(1500);
        let small = cal.threshold(10, 10, 0.9).unwrap();
        let medium = cal.threshold(10, 100, 0.9).unwrap();
        let large = cal.threshold(10, 1000, 0.9).unwrap();
        assert!(
            small > medium && medium > large,
            "ε must shrink with k: {small} {medium} {large}"
        );
    }

    #[test]
    fn threshold_honors_confidence_ordering() {
        let cal = coarse_calibrator(1500);
        let lo = cal.threshold_at(10, 50, 0.9, 0.80).unwrap();
        let hi = cal.threshold_at(10, 50, 0.9, 0.99).unwrap();
        assert!(
            lo < hi,
            "higher confidence ⇒ looser threshold: {lo} vs {hi}"
        );
    }

    #[test]
    fn honest_samples_pass_at_roughly_the_nominal_rate() {
        // Draw fresh honest sample-sets and check ~95% fall under ε.
        let cal = coarse_calibrator(3000).with_seed(1);
        let m = 10u32;
        let k = 50usize;
        let p = 0.9;
        let eps = cal.threshold(m, k, p).unwrap();
        let model = Binomial::new(m, p).unwrap();
        let pmf = model.pmf_table();
        let mut rng = seeded_rng(777);
        let reps = 2000;
        let mut passes = 0;
        for _ in 0..reps {
            let hist = Histogram::from_samples(m, model.sample_many(&mut rng, k)).unwrap();
            if DistanceKind::L1.distance(&hist, &pmf).unwrap() <= eps {
                passes += 1;
            }
        }
        let rate = passes as f64 / reps as f64;
        assert!(
            (rate - 0.95).abs() < 0.03,
            "honest pass rate {rate} should be near 0.95"
        );
    }

    #[test]
    fn degenerate_p_one_gives_zero_threshold() {
        let cal = coarse_calibrator(200);
        let eps = cal.threshold(10, 30, 1.0).unwrap();
        assert_eq!(eps, 0.0);
    }

    #[test]
    fn one_job_writes_one_whole_row() {
        let cal = calibrator(200);
        assert_eq!(cal.cache_stats(), (0, 0));
        let _ = cal.threshold(10, 30, 0.9001).unwrap();
        assert_eq!(cal.cache_stats(), (0, 1), "first lookup calibrates");
        let len_after_first = cal.cache_len();
        // 201 p̂ buckets × the confidence ladder, from one Monte-Carlo job,
        // in one row.
        let rows = cal.export_rows();
        assert_eq!(
            rows.iter().map(|row| (row.m, row.k)).collect::<Vec<_>>(),
            [(10, 30)]
        );
        let ladder: Vec<u32> = confidence_ladder(0.95)
            .into_iter()
            .map(|(q, _)| q)
            .collect();
        assert_eq!(rows[0].confidences, ladder);
        assert_eq!(len_after_first, 201 * ladder.len(), "thresholds, not rows");
        assert_eq!(cal.stats().oracle_jobs, 1);
        assert_eq!(cal.stats().crn_row_fills, len_after_first as u64);
        let _ = cal.threshold(10, 30, 0.9002).unwrap();
        assert_eq!(
            cal.cache_len(),
            len_after_first,
            "bucketed p̂ must share entries"
        );
        let _ = cal.threshold(10, 30, 0.8).unwrap();
        assert_eq!(
            cal.cache_len(),
            len_after_first,
            "distant p̂ was prefilled by the same row job"
        );
        assert_eq!(cal.cache_stats(), (2, 1), "both follow-ups were cache hits");
    }

    #[test]
    fn row_fill_covers_the_bonferroni_confidence_ladder() {
        let cal = coarse_calibrator(300);
        let _ = cal.threshold(10, 30, 0.9).unwrap();
        let (_, misses_before) = cal.cache_stats();
        // The multi-test's per-test confidence for up to 2^16 tests:
        for tests in [1usize, 2, 5, 16, 100, 4096, 60000] {
            let rounded = tests.next_power_of_two() as f64;
            let confidence = 1.0 - (1.0 - 0.95) / rounded;
            let _ = cal.threshold_at(10, 30, 0.9, confidence).unwrap();
        }
        let (_, misses_after) = cal.cache_stats();
        assert_eq!(
            misses_after, misses_before,
            "every Bonferroni confidence must hit the prefilled ladder"
        );
    }

    #[test]
    fn single_flight_runs_one_job_per_row() {
        let cal = std::sync::Arc::new(calibrator(400));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cal = std::sync::Arc::clone(&cal);
                scope.spawn(move || cal.threshold(10, 40, 0.9).unwrap());
            }
        });
        let stats = cal.stats();
        assert_eq!(stats.oracle_jobs, 1, "concurrent misses share one job");
        assert_eq!(stats.hits + stats.misses, 8, "every request was answered");
        // The reference value is what a lone calibrator computes.
        let reference = calibrator(400).threshold(10, 40, 0.9).unwrap();
        assert_eq!(
            cal.threshold(10, 40, 0.9).unwrap().to_bits(),
            reference.to_bits()
        );
    }

    #[test]
    fn provenance_tracks_the_serving_tier() {
        let cal = ThresholdCalibrator::new(CalibrationConfig {
            trials: 200,
            p_bucket: 0.05,
            large_k_cutoff: 64,
            surface: Some(SurfaceParams {
                tolerance: 10.0, // generous: provenance, not accuracy, under test
                k_min: 8,
            }),
            ..CalibrationConfig::default()
        })
        .unwrap();
        let (_, cold) = cal.threshold_with_provenance(10, 30, 0.9, 0.95).unwrap();
        assert_eq!(cold, ThresholdProvenance::MonteCarlo);
        let (_, warm) = cal.threshold_with_provenance(10, 30, 0.9, 0.95).unwrap();
        assert_eq!(warm, ThresholdProvenance::Cache);
        assert!(cal.ensure_surface_for(10).unwrap());
        let (_, surfed) = cal.threshold_with_provenance(10, 30, 0.9, 0.95).unwrap();
        assert_eq!(surfed, ThresholdProvenance::Surface);
        assert!(cal.stats().surface_hits >= 1);
        // Beyond the cutoff the extrapolation inherits its anchor's tier.
        let (_, far) = cal.threshold_with_provenance(10, 1000, 0.9, 0.95).unwrap();
        assert_eq!(far, ThresholdProvenance::Surface);
    }

    /// The differential oracle for [`ThresholdView`]: the lookup body this
    /// file shipped before the view — every call validates, takes the
    /// surface lock, searches the layers and bumps a shared counter.
    fn reference_threshold_with_provenance(
        cal: &ThresholdCalibrator,
        m: u32,
        k: usize,
        p_hat: f64,
        confidence: f64,
    ) -> Result<(f64, ThresholdProvenance), StatsError> {
        if k == 0 {
            return Err(StatsError::InvalidCount {
                what: "sample-set size k",
                value: 0,
            });
        }
        if !(0.0..=1.0).contains(&p_hat) || !p_hat.is_finite() {
            return Err(StatsError::InvalidProbability { value: p_hat });
        }
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(StatsError::InvalidLevel { value: confidence });
        }
        if k > cal.config.large_k_cutoff {
            let k0 = cal.config.large_k_cutoff;
            let (base, provenance) =
                reference_threshold_with_provenance(cal, m, k0, p_hat, confidence)?;
            return Ok((base * (k0 as f64 / k as f64).sqrt(), provenance));
        }
        let p_index = cal.p_bucket_index(p_hat);
        let confidence_millis = quantize_confidence(confidence);
        if let Some(surface) = cal.surface.read().as_ref() {
            if let Some(eps) = surface.lookup(m, k, p_index, confidence_millis) {
                cal.surface_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((eps, ThresholdProvenance::Surface));
            }
        }
        if let Some(eps) = cal.held(m, k, p_index, confidence_millis) {
            cal.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((eps, ThresholdProvenance::Cache));
        }
        cal.calibrate_row(m, k, p_index, confidence)
            .map(|eps| (eps, ThresholdProvenance::MonteCarlo))
    }

    /// Two calibrators with one history — same configuration, same build,
    /// same questions in the same order — so the tier that answers, not
    /// just the value, has to agree between the view and the reference.
    fn view_matches_reference(
        tolerance: f64,
        ks: impl Iterator<Item = usize> + Clone,
    ) -> HashSet<ThresholdProvenance> {
        let config = CalibrationConfig {
            trials: 120,
            p_bucket: 0.05,
            large_k_cutoff: 256,
            surface: Some(SurfaceParams {
                tolerance,
                k_min: 8,
            }),
            ..CalibrationConfig::default()
        };
        let viewed = ThresholdCalibrator::new(config).unwrap();
        let reference = ThresholdCalibrator::new(config).unwrap();
        assert!(viewed.ensure_surface_for(10).unwrap());
        assert!(reference.ensure_surface_for(10).unwrap());
        let mut confidences: Vec<f64> = confidence_ladder(config.confidence)
            .into_iter()
            .map(|(_, exact)| exact)
            .collect();
        assert!(confidences.len() > 10, "the ladder has rungs to visit");
        confidences.extend([0.9, 0.5]); // off the ladder: no layer
        let ps = [0.0, 0.42, 0.9, 0.9249, 1.0];
        let mut provenances = HashSet::new();
        for &confidence in &confidences {
            let before = viewed.stats();
            let mut view = viewed.view(10, confidence).unwrap();
            let mut answered = 0u64;
            for k in ks.clone() {
                for &p in &ps {
                    let got = view.threshold(k, p).unwrap();
                    let want =
                        reference_threshold_with_provenance(&reference, 10, k, p, confidence)
                            .unwrap();
                    assert_eq!(
                        (got.0.to_bits(), got.1),
                        (want.0.to_bits(), want.1),
                        "k={k} p={p} confidence={confidence}"
                    );
                    provenances.insert(got.1);
                    answered += 1;
                }
            }
            assert_eq!(
                viewed.stats().hits,
                before.hits,
                "nothing added while the view lives"
            );
            assert_eq!(viewed.stats().surface_hits, before.surface_hits);
            drop(view);
            let after = viewed.stats();
            assert_eq!(
                (after.surface_hits - before.surface_hits)
                    + (after.hits - before.hits)
                    + (after.misses - before.misses),
                answered,
                "every lookup is counted once, in one tier"
            );
            assert_eq!(after, reference.stats(), "confidence={confidence}");
        }
        // Bad arguments are refused.
        assert!(viewed.view(10, 1.0).is_err() && viewed.view(10, 0.0).is_err());
        let mut view = viewed.view(10, 0.95).unwrap();
        assert!(view.threshold(0, 0.9).is_err());
        assert!(view.threshold(10, 1.5).is_err() && view.threshold(10, f64::NAN).is_err());
        provenances
    }

    #[test]
    fn the_view_answers_like_the_per_call_lookup_it_replaced() {
        // k_min = 8, grid 8, 16, …, 256 = the cutoff: 1..=4096 covers rows
        // below the surface, on its grid, between grid rows and past the
        // cutoff (the 1/√k law over the anchor row).
        let tiers = view_matches_reference(10.0, 1..=4096);
        assert_eq!(tiers.len(), 3, "all three tiers answered: {tiers:?}");
    }

    #[test]
    fn a_view_over_bypassed_layers_goes_to_the_row_store() {
        // No layer is within this tolerance, so every lookup is a row
        // read (a row job the first time a row is asked for).
        let tiers = view_matches_reference(1e-9, (1..=40).chain([255, 256, 257, 1000]));
        assert!(!tiers.contains(&ThresholdProvenance::Surface), "{tiers:?}");
    }

    #[test]
    fn a_dropped_view_loses_no_hit() {
        let cal = coarse_calibrator(200);
        let _ = cal.threshold(10, 30, 0.9).unwrap(); // the row job
        let before = cal.stats();
        {
            let mut view = cal.view(10, 0.95).unwrap();
            for _ in 0..5 {
                assert_eq!(
                    view.threshold(30, 0.9).unwrap().1,
                    ThresholdProvenance::Cache
                );
            }
            // Stopping on an error, as a verdict that fails half-way does.
            assert!(view.threshold(0, 0.9).is_err());
        }
        assert_eq!(cal.stats().hits, before.hits + 5);
        // A view that answered nothing adds nothing.
        drop(cal.view(10, 0.95).unwrap());
        assert_eq!(cal.stats().hits, before.hits + 5);
    }

    #[test]
    fn ensure_surface_is_idempotent_and_off_by_default() {
        let cal = coarse_calibrator(200);
        assert!(
            !cal.ensure_surface_for(10).unwrap(),
            "no surface configured"
        );
        assert!(cal.surface().is_none());

        let cal = ThresholdCalibrator::new(CalibrationConfig {
            trials: 200,
            p_bucket: 0.05,
            large_k_cutoff: 32,
            surface: Some(SurfaceParams {
                tolerance: 10.0,
                ..Default::default()
            }),
            ..CalibrationConfig::default()
        })
        .unwrap();
        assert!(cal.ensure_surface_for(10).unwrap());
        let jobs_after_build = cal.stats().oracle_jobs;
        assert!(
            cal.ensure_surface_for(10).unwrap(),
            "second call is a no-op"
        );
        assert_eq!(cal.stats().oracle_jobs, jobs_after_build);
        // A second m accumulates layers without dropping the first.
        assert!(cal.ensure_surface_for(6).unwrap());
        let surface = cal.surface().unwrap();
        assert!(surface.covers(10) && surface.covers(6));
    }

    #[test]
    fn install_surface_refuses_rows_of_another_bucket_count() {
        let cal = coarse_calibrator(200); // 21 p̂ buckets
        let surface = |buckets: usize| {
            let layer = SurfaceLayer {
                m: 10,
                confidence_millis: 95_000,
                error_bound: 0.0,
                k_grid: vec![8, 16],
                values: vec![0.5; 2 * buckets].into(),
            };
            Arc::new(ThresholdSurface::from_parts(SurfaceParams::default(), vec![layer]).unwrap())
        };
        assert!(cal.install_surface(surface(20)).is_err());
        assert!(cal.install_surface(surface(42)).is_err());
        assert!(
            cal.surface().is_none(),
            "a refused surface is not installed"
        );
        assert!(cal.install_surface(surface(21)).is_ok());
        assert!(cal.surface().is_some());
    }

    #[test]
    fn large_k_extrapolation_follows_sqrt_law() {
        let cal = ThresholdCalibrator::new(CalibrationConfig {
            trials: 800,
            p_bucket: 0.05,
            large_k_cutoff: 256,
            ..Default::default()
        })
        .unwrap();
        let base = cal.threshold(10, 256, 0.9).unwrap();
        let far = cal.threshold(10, 1024, 0.9).unwrap();
        assert!((far - base / 2.0).abs() < 1e-12, "√(256/1024)=1/2 scaling");
    }

    #[test]
    fn a_confidence_off_the_ladder_gets_the_full_sort_quantile_in_a_column_of_its_own() {
        // 0.5 reads order statistics far below the ladder's 0.95 base
        // rung: the partial ordering in `run_row_job` must reach down to
        // it, and still serve the ladder from the same ordered copy.
        let cal = coarse_calibrator(401);
        let samples = cal.distance_samples(10, 25, 0.9).unwrap();
        let mut rows = Vec::new();
        for confidence in [0.5, 0.013, 0.95, 0.999] {
            let eps = cal.threshold_at(10, 25, 0.9, confidence).unwrap();
            assert_eq!(
                eps.to_bits(),
                tail_quantile(&samples, confidence).unwrap().to_bits(),
                "confidence {confidence}"
            );
            rows.push(cal.export_rows().pop().unwrap());
        }
        // Each confidence off the ladder cost one job — the first of them
        // filled the ladder too, which is why 0.95 cost none — and added
        // one column of 21 buckets behind the ladder, in the order asked;
        // no job moved a bit of the columns before it.
        let ladder: Vec<u32> = confidence_ladder(0.95)
            .into_iter()
            .map(|(q, _)| q)
            .collect();
        let last = &rows[3];
        assert_eq!(
            last.confidences,
            [&ladder[..], &[50_000, 1_300, 99_900]].concat()
        );
        assert_eq!(cal.stats().oracle_jobs, 3);
        assert_eq!(
            cal.cache_len(),
            21 * last.confidences.len(),
            "thresholds, not rows"
        );
        assert_eq!(cal.stats().crn_row_fills as usize, cal.cache_len());
        let as_bits = |values: &[f64]| values.iter().map(|eps| eps.to_bits()).collect::<Vec<_>>();
        for earlier in &rows {
            assert_eq!(
                as_bits(&last.values[..earlier.values.len()]),
                as_bits(&earlier.values)
            );
        }
        // The flat listing sorts the late columns in by confidence.
        let entries = cal.export_cache();
        assert_eq!(
            (entries.len(), entries[0].confidence_millis),
            (cal.cache_len(), 1_300)
        );
    }

    #[test]
    fn surface_build_counts_its_row_jobs_and_none_of_its_reads() {
        let config = CalibrationConfig {
            trials: 200,
            p_bucket: 0.05,
            large_k_cutoff: 64,
            threads: 2,
            surface: Some(SurfaceParams {
                tolerance: 10.0,
                ..Default::default()
            }),
            ..CalibrationConfig::default()
        };
        let cold = ThresholdCalibrator::new(config).unwrap();
        assert!(cold.ensure_surface_for(10).unwrap());
        let rows = cold.stats().oracle_jobs;
        assert!(rows >= 3, "grid rows plus midpoints: {rows}");
        assert_eq!(
            cold.cache_stats(),
            (0, rows),
            "one miss per row job, no hits"
        );

        // A warm boot that preloaded the rows (but no layers) rebuilds
        // the identical surface without a job and without touching the
        // traffic counters.
        let exported = || cold.export_rows().into_iter().map(|row| (*row).clone());
        let warm = ThresholdCalibrator::new(config).unwrap();
        assert_eq!(warm.preload_rows(exported()) as u64, rows);
        assert!(warm.ensure_surface_for(10).unwrap());
        assert_eq!(warm.stats().oracle_jobs, 0);
        assert_eq!(warm.cache_stats(), (0, 0));
        assert_eq!(
            warm.surface().unwrap().layers(),
            cold.surface().unwrap().layers()
        );

        // A row the file lacked costs one job, and only that one.
        let partial = ThresholdCalibrator::new(config).unwrap();
        partial.preload_rows(exported().skip(1));
        assert!(partial.ensure_surface_for(10).unwrap());
        assert_eq!(partial.cache_stats(), (0, 1));
        assert_eq!(partial.export_cache(), cold.export_cache());
    }

    #[test]
    fn a_row_job_makes_one_bound_table_pass_per_lane_group() {
        let passes = || BOUND_PASSES.with(Cell::get);
        // Σ over chunks of ⌈trials in the chunk / LANES⌉: a chunk's last
        // group may be partial, and no group spans two chunks.
        let groups = |trials: usize| -> u64 {
            (0..trials.div_ceil(CHUNK_TRIALS))
                .map(|c| CHUNK_TRIALS.min(trials - c * CHUNK_TRIALS).div_ceil(LANES) as u64)
                .sum()
        };
        assert_eq!((groups(2000), groups(70), groups(2001)), (250, 9, 251));
        for trials in [2, 7, 8, 9, 63, 64, 65, 70, 2000, 2001] {
            let before = passes();
            let cal = coarse_calibrator(trials);
            let _ = cal.threshold(10, 16, 0.9).unwrap();
            assert_eq!(passes() - before, groups(trials), "trials={trials}");
        }

        // A default boot on one thread, so this thread runs every job: the
        // surface's 13 rows and the 22 below its k_min, 250 passes each
        // (2 000 a row when each trial took a pass of its own).
        let before = passes();
        let cal = ThresholdCalibrator::new(CalibrationConfig {
            surface: Some(SurfaceParams::default()),
            ..CalibrationConfig::default()
        })
        .unwrap();
        assert!(cal.ensure_surface_for(10).unwrap());
        let below: Vec<usize> = (10..SurfaceParams::default().k_min).collect();
        cal.fill_rows(10, &below).unwrap();
        assert_eq!(cal.stats().oracle_jobs, 35);
        assert_eq!(passes() - before, 35 * 250);
    }

    #[test]
    fn fill_rows_returns_the_error_of_whichever_worker_drew_it() {
        // Largest k first, so the k = 0 job is handed out last: to a
        // helper thread or to the caller, whichever is free first.
        for threads in [1, 2, 4] {
            let cal = ThresholdCalibrator::new(CalibrationConfig {
                trials: 100,
                p_bucket: 0.05,
                threads,
                ..CalibrationConfig::default()
            })
            .unwrap();
            let filled = cal.fill_rows(10, &[0, 64, 128, 256]);
            assert!(
                matches!(filled, Err(StatsError::InvalidCount { .. })),
                "threads={threads}: {filled:?}"
            );
        }
    }

    #[test]
    fn a_waiter_the_leader_did_not_serve_leads_its_own_job() {
        let cal = coarse_calibrator(300);
        // Stand in for a leader that is running the ladder job for (10, 30).
        cal.inflight.lock().unwrap().insert((10, 30));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cal.threshold_at(10, 30, 0.9, 0.5).unwrap());
            // The waiter counts itself under the in-flight lock and gives
            // the lock up only by sleeping on the condition variable, so
            // once the count is seen and the lock taken, it is asleep.
            while cal.stats().singleflight_waits == 0 {
                std::thread::yield_now();
            }
            cal.run_row_job(10, 30, 0.95).unwrap();
            cal.inflight.lock().unwrap().remove(&(10, 30));
            cal.inflight_done.notify_all();
            let off = waiter.join().unwrap();
            let samples = cal.distance_samples(10, 30, 0.9).unwrap();
            assert_eq!(
                off.to_bits(),
                tail_quantile(&samples, 0.5).unwrap().to_bits()
            );
        });
        let stats = cal.stats();
        assert_eq!(
            (stats.oracle_jobs, stats.misses, stats.singleflight_waits),
            (2, 1, 1)
        );
        assert_eq!(cal.export_rows()[0].confidences.last(), Some(&50_000));
    }

    #[test]
    fn preload_refuses_a_row_that_is_not_whole_and_keeps_live_rows() {
        let cal = coarse_calibrator(300);
        let live = cal.threshold(10, 30, 0.9).unwrap();
        let good = (*cal.export_rows()[0]).clone();
        let tampered = |edit: fn(&mut CalibrationRow)| {
            let mut row = good.clone();
            edit(&mut row);
            row
        };
        let fresh = coarse_calibrator(300);
        for (what, row) in [
            ("NaN", tampered(|row| row.values.to_mut()[3] = f64::NAN)),
            ("negative", tampered(|row| row.values.to_mut()[3] = -0.25)),
            (
                "a value short",
                tampered(|row| row.values.to_mut().truncate(100)),
            ),
            (
                "a rung missing",
                tampered(|row| {
                    row.confidences.remove(0);
                    row.values.to_mut().drain(..21);
                }),
            ),
        ] {
            assert_eq!(fresh.preload_rows([row]), 0, "{what}");
        }
        assert_eq!(fresh.cache_len(), 0);
        // The row as exported answers without Monte Carlo, bit for bit.
        assert_eq!(fresh.preload_rows([good.clone()]), 1);
        assert_eq!(
            fresh.threshold(10, 30, 0.9).unwrap().to_bits(),
            live.to_bits()
        );
        assert_eq!(fresh.cache_stats(), (1, 0));
        assert_eq!(fresh.export_cache(), cal.export_cache());

        let stale = tampered(|row| row.values.to_mut().iter_mut().for_each(|eps| *eps += 1.0));
        assert_eq!(cal.preload_rows([stale]), 0, "the live row wins");
        assert_eq!(
            cal.threshold(10, 30, 0.9).unwrap().to_bits(),
            live.to_bits()
        );
    }

    #[test]
    fn a_borrowed_row_is_served_in_place_until_a_job_adds_a_column() {
        let cal = coarse_calibrator(300);
        let live = cal.threshold(10, 30, 0.9).unwrap();
        let exported = cal.export_rows()[0].values.to_vec();
        let table: &'static [f64] = Vec::leak(exported);
        let row = CalibrationRow {
            values: Cow::Borrowed(table),
            ..(*cal.export_rows()[0]).clone()
        };

        let fresh = coarse_calibrator(300);
        assert_eq!(fresh.preload_rows([row]), 1);
        let held = fresh.export_rows();
        assert!(matches!(&held[0].values, Cow::Borrowed(v) if std::ptr::eq(*v, table)));
        // The gauge counts the borrowed thresholds as it counts owned ones.
        assert!(fresh.cache_bytes() >= table.len() * 8);
        assert_eq!(
            fresh.threshold(10, 30, 0.9).unwrap().to_bits(),
            live.to_bits()
        );
        assert_eq!(fresh.stats().oracle_jobs, 0);

        // An off-ladder confidence appends a column: the row is copied
        // once, its old columns bit for bit, and the table is left alone.
        fresh.threshold_at(10, 30, 0.9, 0.97).unwrap();
        assert_eq!(fresh.stats().oracle_jobs, 1);
        let grown = &fresh.export_rows()[0];
        assert!(matches!(grown.values, Cow::Owned(_)));
        assert_eq!(grown.values[..table.len()], *table);
    }

    #[test]
    fn fingerprint_tracks_threshold_determining_knobs_only() {
        let base = CalibrationConfig::default();
        let fp = |cfg: CalibrationConfig, seed: u64| {
            ThresholdCalibrator::new(cfg)
                .unwrap()
                .with_seed(seed)
                .fingerprint()
        };
        let reference = fp(base, 1);
        assert_eq!(fp(base, 1), reference, "fingerprint is stable");
        assert_ne!(fp(base, 2), reference, "seed changes thresholds");
        assert_ne!(
            fp(
                CalibrationConfig {
                    trials: 4000,
                    ..base
                },
                1
            ),
            reference
        );
        assert_ne!(
            fp(
                CalibrationConfig {
                    confidence: 0.99,
                    ..base
                },
                1
            ),
            reference
        );
        // The thread count never invalidates a persisted cache — and
        // neither does the error-gated surface view.
        assert_eq!(fp(CalibrationConfig { threads: 8, ..base }, 1), reference);
        assert_eq!(
            fp(
                CalibrationConfig {
                    surface: Some(SurfaceParams::default()),
                    ..base
                },
                1
            ),
            reference
        );
    }

    #[test]
    fn distance_samples_have_requested_count() {
        let cal = calibrator(123);
        let s = cal.distance_samples(10, 5, 0.9).unwrap();
        assert_eq!(s.len(), 123);
        assert!(s.iter().all(|d| (0.0..=2.0).contains(d)));
    }

    #[test]
    fn extreme_confidence_uses_tail_extension_monotonically() {
        let cal = coarse_calibrator(1000);
        let base = cal.threshold_at(10, 40, 0.9, 0.95).unwrap();
        let high = cal.threshold_at(10, 40, 0.9, 0.999).unwrap();
        let higher = cal.threshold_at(10, 40, 0.9, 0.99995).unwrap();
        assert!(base < high, "{base} < {high}");
        assert!(high < higher, "{high} < {higher}");
        assert!(
            higher.is_finite() && higher < 2.0,
            "tail stays sane: {higher}"
        );
    }

    #[test]
    fn tail_extension_is_continuous_at_the_anchor() {
        // Just below and just above the resolvable quantile must agree
        // closely (the extension is exact at the anchor).
        let cal = coarse_calibrator(2000);
        let achievable = 1.0 - 10.0 / 2000.0; // 0.995
        let below = cal.threshold_at(10, 40, 0.9, achievable - 1e-6).unwrap();
        let above = cal.threshold_at(10, 40, 0.9, achievable + 1e-6).unwrap();
        assert!((below - above).abs() < 0.05, "{below} vs {above}");
    }

    #[test]
    fn calibration_time_is_attributed_to_the_calling_thread() {
        let cal = coarse_calibrator(300);
        let before = thread_calibration_nanos();
        let _ = cal.threshold(10, 30, 0.9).unwrap();
        let after_miss = thread_calibration_nanos();
        assert!(after_miss > before, "a miss accrues calibration time");
        let _ = cal.threshold(10, 30, 0.9).unwrap();
        assert_eq!(
            thread_calibration_nanos(),
            after_miss,
            "cache hits accrue nothing"
        );
    }

    #[test]
    fn surface_error_stays_within_the_measured_bound() {
        // Build a small surface and sweep off-grid queries against the
        // oracle: every served value must sit inside the layer's bound.
        let cal = ThresholdCalibrator::new(CalibrationConfig {
            trials: 400,
            p_bucket: 0.05,
            large_k_cutoff: 128,
            surface: Some(SurfaceParams {
                tolerance: 10.0, // serve everything; we check the bound itself
                k_min: 8,
            }),
            ..CalibrationConfig::default()
        })
        .unwrap();
        cal.ensure_surface_for(10).unwrap();
        let surface = cal.surface().unwrap();
        let oracle = coarse_calibrator(400); // same seed, no surface
        let mut checked = 0;
        for k in [9usize, 13, 27, 40, 77, 100] {
            for index in 0..=20u32 {
                let p = (index as f64 * 0.05).clamp(0.0, 1.0);
                let Some(served) = surface.lookup(10, k, index, 95_000) else {
                    continue;
                };
                let truth = oracle.threshold(10, k, p).unwrap();
                let bound = surface.max_error_bound(10).unwrap();
                assert!(
                    (served - truth).abs() <= bound,
                    "k={k} index={index}: |{served} - {truth}| > {bound}"
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "sweep must actually exercise the surface");
    }
}
