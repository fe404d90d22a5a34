//! Persisted calibration cache: write-on-shutdown, load-at-boot.
//!
//! Monte-Carlo threshold calibration is the dominant cost of a cold
//! assessment (the ROADMAP "calibration wall"); persisting the calibrated
//! thresholds means a warm restart never repeats a Monte-Carlo job this
//! deployment has already run. The default configuration's boot
//! thresholds come with the binary (`builtin`), so the file matters for
//! the others, and for rows a default service calibrates live. The file is a *cache*, never a source of
//! truth: it is keyed by the calibrator's
//! [`fingerprint`](hp_stats::ThresholdCalibrator::fingerprint) — the seed
//! and every configuration knob that determines what thresholds *are* —
//! and a file recorded under a different fingerprint is ignored wholesale,
//! so a configuration change silently falls back to online calibration
//! instead of serving thresholds from a different distribution.
//!
//! # Format (version 5)
//!
//! One sealed [`hp_store::durable`] body, integers little-endian, every
//! list a `u64` count and its items:
//!
//! ```text
//! magic "HPCL" | version=5 u32 | shard=0 u32 | fingerprint u64
//! rows:    list of (m u32 | k u64 | confidence_millis list of u32 | values list of f64 bits u64)
//! surface: present u8 | if 1: tolerance f64 bits u64 | k_min u64
//! layers:  list of (m u32 | confidence_millis u32 | error_bound f64 bits u64
//!                   | k_grid list of u64 | values list of f64 bits u64)
//! trailer: crc32 u32 over everything before it
//! ```
//!
//! A row is one oracle row as the calibrator holds it
//! ([`CalibrationRow`]): one value per p̂ bucket per confidence, column by
//! column. The surface parameters are those the layers were built under
//! (a surface is only installed when they match the live configuration —
//! the fingerprint deliberately excludes them, since the surface is an
//! error-bounded view over the oracle, not a change to it). A layer holds
//! one value per p̂ bucket per grid `k`, row-major. All floats are stored
//! as raw IEEE-754 bits, so a load → save → load round trip is bit-exact
//! and warm verdicts stay bit-identical to cold ones.
//!
//! The cache is all or nothing: a file that fails its seal or its
//! structure installs nothing, and a sealed file of another version or
//! fingerprint is `stale` — either costs one rebuild. Only rows and layers
//! of a sound file that the calibrator refuses (another width, a value
//! that is no threshold) are skipped, one by one. Writes go through
//! [`hp_store::durable::publish`], so a crash mid-save leaves the previous
//! cache intact, and the next [`load`] deletes the temp file such a crash
//! leaves beside it.

use hp_stats::{
    CalibrationRow, SurfaceLayer, SurfaceParams, ThresholdCalibrator, ThresholdSurface,
};
use hp_store::durable::{publish, remove, temp_path, Error, Put, Reader};
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"HPCL";
/// The file format version this module writes, and the only one it reads.
const VERSION: u32 = 5;
/// The fewest bytes a row takes: `m`, `k` and two list counts.
const MIN_ROW_LEN: usize = 4 + 8 + 8 + 8;
/// The fewest bytes a layer takes: `m`, confidence, bound, two counts.
const MIN_LAYER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// What loading a persisted cache found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheLoad {
    /// Rows installed into the live calibrator.
    pub installed: usize,
    /// Rows and layers of a sound file that the calibrator refused.
    pub skipped: usize,
    /// Precomputed surface layers installed (0 when the file carried no
    /// surface, its parameters differ from the live configuration, or the
    /// layers failed validation).
    pub surface_layers: usize,
    /// The file existed but was recorded under a different fingerprint
    /// (configuration or seed changed) or format version, and was ignored
    /// wholesale.
    pub stale: bool,
}

/// Loads `path` into `calibrator` if it exists and its fingerprint
/// matches, first deleting the temp file a crashed [`save`] may have left
/// beside it. A missing file is a cold boot, not an error. A persisted
/// surface is installed only when the calibrator is configured with the
/// same [`SurfaceParams`] it was built under.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the file fails its seal or its
/// structure — nothing is installed then; the underlying I/O error when a
/// stale temp file cannot be deleted or the file exists but cannot be
/// read.
pub fn load(path: &Path, calibrator: &ThresholdCalibrator) -> io::Result<CacheLoad> {
    remove([temp_path(path)])?;
    let bytes = match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CacheLoad::default()),
        bytes => bytes?,
    };
    let invalid = |e: Error| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut r = Reader::sealed(path, &bytes).map_err(invalid)?;
    let fresh = r.header(&MAGIC, &[VERSION], Some(0)).is_ok()
        && r.u64("truncated header").ok() == Some(calibrator.fingerprint());
    if !fresh {
        return Ok(CacheLoad {
            stale: true,
            ..CacheLoad::default()
        });
    }
    let (rows, params, layers) = decode(&mut r).map_err(invalid)?;
    let offered = rows.len();
    let installed = calibrator.preload_rows(rows);

    // Install the persisted surface only when the live configuration asks
    // for the exact parameters it was built under; otherwise boot rebuilds
    // (cheaply, from the just-preloaded rows).
    let mut surface_layers = 0;
    let mut skipped = offered - installed;
    if let (Some(file_params), false) = (params, layers.is_empty()) {
        if calibrator.config().surface == Some(file_params) {
            let count = layers.len();
            let installed = ThresholdSurface::from_parts(file_params, layers)
                .and_then(|surface| calibrator.install_surface(Arc::new(surface)));
            match installed {
                Ok(()) => surface_layers = count,
                Err(_) => skipped += count,
            }
        }
    }
    Ok(CacheLoad {
        installed,
        skipped,
        surface_layers,
        stale: false,
    })
}

/// Saves `calibrator`'s rows — and its installed surface, when the live
/// configuration carries surface parameters — to `path` (creating parent
/// directories), atomically and durably through [`publish`].
/// Returns how many thresholds the rows hold.
///
/// # Errors
///
/// Propagates I/O failures from create/write/fsync/rename.
pub fn save(path: &Path, calibrator: &ThresholdCalibrator) -> io::Result<usize> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let rows = calibrator.export_rows();
    let surface = calibrator.config().surface.zip(calibrator.surface());
    let surface = surface.as_ref().map(|(params, s)| (*params, s.layers()));
    let bytes = encode(
        calibrator.fingerprint(),
        rows.iter().map(|row| &**row),
        surface,
    );
    publish(path, |file| file.write_all(&bytes))?;
    Ok(rows.iter().map(|row| row.values.len()).sum())
}

/// The file holding `rows` and, when given, a surface's parameters and
/// layers, under `fingerprint`.
fn encode<'a>(
    fingerprint: u64,
    rows: impl ExactSizeIterator<Item = &'a CalibrationRow>,
    surface: Option<(SurfaceParams, &[SurfaceLayer])>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_header(&MAGIC, VERSION, 0);
    out.put_u64(fingerprint);
    out.put_u64(rows.len() as u64);
    for row in rows {
        out.put_u32(row.m);
        out.put_u64(row.k as u64);
        put_list(&mut out, &row.confidences, |out, &c| out.put_u32(c));
        put_list(&mut out, &row.values, |out, v| out.put_u64(v.to_bits()));
    }
    out.put(&[u8::from(surface.is_some())]);
    let layers = surface.map_or(&[][..], |(params, layers)| {
        out.put_u64(params.tolerance.to_bits());
        out.put_u64(params.k_min as u64);
        layers
    });
    put_list(&mut out, layers, |out, layer| {
        out.put_u32(layer.m);
        out.put_u32(layer.confidence_millis);
        out.put_u64(layer.error_bound.to_bits());
        put_list(out, &layer.k_grid, |out, &k| out.put_u64(k as u64));
        put_list(out, &layer.values, |out, v| out.put_u64(v.to_bits()));
    });
    out.seal();
    out
}

fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    out.put_u64(items.len() as u64);
    for item in items {
        put(out, item);
    }
}

/// What an [`encode`]d body holds after its fingerprint.
type Body = (
    Vec<CalibrationRow>,
    Option<SurfaceParams>,
    Vec<SurfaceLayer>,
);

fn decode(r: &mut Reader<'_>) -> Result<Body, Error> {
    let rows = list(r, MIN_ROW_LEN, |r| {
        Ok(CalibrationRow {
            m: r.u32("torn row")?,
            k: read_usize(r)?,
            confidences: list(r, 4, |r| r.u32("torn row"))?,
            values: list(r, 8, read_f64)?.into(),
        })
    })?;
    let params = match r.u8("torn surface parameters")? {
        0 => None,
        1 => Some(SurfaceParams {
            tolerance: read_f64(r)?,
            k_min: read_usize(r)?,
        }),
        _ => return Err(r.corrupt("surface flag is neither 0 nor 1")),
    };
    let layers = list(r, MIN_LAYER_LEN, |r| {
        Ok(SurfaceLayer {
            m: r.u32("torn layer")?,
            confidence_millis: r.u32("torn layer")?,
            error_bound: read_f64(r)?,
            k_grid: list(r, 8, read_usize)?,
            values: list(r, 8, read_f64)?.into(),
        })
    })?;
    if r.remaining() > 0 {
        return Err(r.corrupt("bytes past the last layer"));
    }
    Ok((rows, params, layers))
}

/// A `u64` count of items at least `each` bytes long, then the items.
fn list<'a, T>(
    r: &mut Reader<'a>,
    each: usize,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let n = r.count(each, "list count past the end of the file")?;
    (0..n).map(|_| item(r)).collect()
}

fn read_f64(r: &mut Reader<'_>) -> Result<f64, Error> {
    r.u64("torn value").map(f64::from_bits)
}

fn read_usize(r: &mut Reader<'_>) -> Result<usize, Error> {
    let v = r.u64("torn size")?;
    usize::try_from(v).map_err(|_| r.corrupt("size past usize"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_stats::{CalibrationConfig, ThresholdCalibrator};
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hp-calcache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Coarse p̂ buckets keep row-fill caches small in tests.
    fn config(trials: usize) -> CalibrationConfig {
        CalibrationConfig {
            trials,
            p_bucket: 0.05,
            ..CalibrationConfig::default()
        }
    }

    fn calibrator(trials: usize) -> ThresholdCalibrator {
        ThresholdCalibrator::new(config(trials)).unwrap()
    }

    fn surfaced_calibrator(trials: usize) -> ThresholdCalibrator {
        ThresholdCalibrator::new(CalibrationConfig {
            large_k_cutoff: 64,
            surface: Some(SurfaceParams {
                tolerance: 10.0,
                ..SurfaceParams::default()
            }),
            ..config(trials)
        })
        .unwrap()
    }

    #[test]
    fn surface_round_trips_and_skips_on_param_mismatch() {
        let dir = tmp_dir("surface");
        let path = dir.join("cal.hpcal");
        let cold = surfaced_calibrator(200);
        assert!(cold.ensure_surface_for(10).unwrap());
        let layer_count = cold.surface().unwrap().layers().len();
        assert!(layer_count > 0);
        save(&path, &cold).unwrap();

        // Same surface params: layers install, no rebuild needed.
        let warm = surfaced_calibrator(200);
        let loaded = load(&path, &warm).unwrap();
        assert_eq!(loaded.surface_layers, layer_count);
        assert!(!loaded.stale);
        let jobs_before = warm.stats().oracle_jobs;
        assert!(warm.ensure_surface_for(10).unwrap(), "already covered");
        assert_eq!(warm.stats().oracle_jobs, jobs_before);
        // Served values are bit-identical to the original surface.
        let p = 0.9;
        assert_eq!(
            warm.threshold(10, 20, p).unwrap().to_bits(),
            cold.threshold(10, 20, p).unwrap().to_bits()
        );

        // Different tolerance ⇒ persisted layers are ignored (rows
        // still load; the surface rebuilds from them at boot).
        let reconfigured = ThresholdCalibrator::new(CalibrationConfig {
            large_k_cutoff: 64,
            surface: Some(SurfaceParams {
                tolerance: 0.25,
                ..SurfaceParams::default()
            }),
            ..config(200)
        })
        .unwrap();
        let loaded = load(&path, &reconfigured).unwrap();
        assert_eq!(loaded.surface_layers, 0);
        assert!(loaded.installed > 0);
        assert!(reconfigured.surface().is_none());
        assert!(reconfigured.ensure_surface_for(10).unwrap());
        assert_eq!(
            reconfigured.cache_stats(),
            (0, 0),
            "the rebuild reads the loaded rows: no Monte Carlo, and no hits charged to traffic"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_save_is_byte_identical_and_a_warm_boot_runs_no_monte_carlo() {
        let dir = tmp_dir("resave");
        let (first, second) = (dir.join("first.hpcal"), dir.join("second.hpcal"));
        let cold = surfaced_calibrator(200);
        assert!(cold.ensure_surface_for(10).unwrap());
        let below = cold.threshold(10, 5, 0.9).unwrap(); // a row below the surface too
        let off = cold.threshold_at(10, 5, 0.9, 0.5).unwrap(); // and a column off the ladder
        assert_eq!(save(&first, &cold).unwrap(), cold.cache_len());

        let warm = surfaced_calibrator(200);
        let loaded = load(&first, &warm).unwrap();
        assert_eq!(loaded.installed, cold.export_rows().len());
        assert_eq!((loaded.skipped, loaded.stale), (0, false));
        assert_eq!(warm.export_cache(), cold.export_cache());
        save(&second, &warm).unwrap();
        let bytes = fs::read(&first).unwrap();
        assert!(bytes.starts_with(b"HPCL\x05\0\0\0"));
        assert!(
            bytes == fs::read(&second).unwrap(),
            "a reloaded cache saves the same bytes"
        );

        assert_eq!(
            warm.threshold(10, 5, 0.9).unwrap().to_bits(),
            below.to_bits()
        );
        assert_eq!(
            warm.threshold_at(10, 5, 0.9, 0.5).unwrap().to_bits(),
            off.to_bits()
        );
        assert_eq!(warm.cache_stats(), (2, 0), "no Monte-Carlo on a warm boot");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_layer_of_another_bucket_count_is_skipped_not_served() {
        let dir = tmp_dir("width");
        let path = dir.join("cal.hpcal");
        // A two-row layer with `buckets` values per row; the calibrator's
        // 0.05-wide buckets make 21 the only width it may serve.
        let file = |cal: &ThresholdCalibrator, buckets: usize| {
            let layer = SurfaceLayer {
                m: 10,
                confidence_millis: 95_000,
                error_bound: 0.0,
                k_grid: vec![8, 16],
                values: vec![0.5; 2 * buckets].into(),
            };
            let params = cal.config().surface.unwrap();
            encode(cal.fingerprint(), [].iter(), Some((params, &[layer])))
        };
        for (buckets, layers) in [(20, 0), (42, 0), (21, 1)] {
            let cal = surfaced_calibrator(200);
            fs::write(&path, file(&cal, buckets)).unwrap();
            let loaded = load(&path, &cal).unwrap();
            assert_eq!(loaded.surface_layers, layers, "{buckets} values per row");
            assert_eq!(loaded.skipped, 1 - layers, "{buckets} values per row");
            assert_eq!(cal.surface().is_some(), layers == 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_cold_boot() {
        let dir = tmp_dir("missing");
        let loaded = load(&dir.join("nope.hpcal"), &calibrator(300)).unwrap();
        assert_eq!(loaded, CacheLoad::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_fingerprint_or_version_is_stale() {
        let dir = tmp_dir("stale");
        let path = dir.join("cal.hpcal");
        let cold = calibrator(300);
        cold.threshold(10, 30, 0.9).unwrap();
        save(&path, &cold).unwrap();
        let current = fs::read(&path).unwrap();
        let stale = CacheLoad {
            stale: true,
            ..CacheLoad::default()
        };
        // Different trial count ⇒ different thresholds ⇒ stale file.
        let reconfigured = calibrator(400);
        assert_eq!(load(&path, &reconfigured).unwrap(), stale);
        assert_eq!(reconfigured.cache_len(), 0);
        // Same fingerprint, same rows, sealed, another version.
        for version in [1u32, 4, 6, 99] {
            let mut other = current.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            other.truncate(other.len() - 4);
            other.seal();
            fs::write(&path, other).unwrap();
            let warm = calibrator(300);
            assert_eq!(load(&path, &warm).unwrap(), stale, "version {version}");
            assert_eq!(warm.cache_len(), 0, "version {version}: nothing installed");
        }
        // The text `hpcal 4` this module wrote before has no seal: it loads
        // nothing and costs one rebuild.
        let text = format!(
            "hpcal 4 {:016x}\nR 10 30 95000 3fd0000000000000\n",
            cold.fingerprint()
        );
        fs::write(&path, text).unwrap();
        let warm = calibrator(300);
        let err = load(&path, &warm).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(warm.cache_len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_file_installs_nothing_and_a_row_that_is_not_whole_costs_one_job() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("cal.hpcal");
        let cold = calibrator(300);
        let truth = cold.threshold(10, 30, 0.9).unwrap();
        cold.threshold(10, 60, 0.9).unwrap();
        save(&path, &cold).unwrap();
        let saved = fs::read(&path).unwrap();

        // Cut, a byte flipped, junk appended: the seal fails, nothing goes in.
        let cut = saved[..saved.len() / 2].to_vec();
        let mut flipped = saved.clone();
        flipped[saved.len() / 3] ^= 0x01;
        let appended = [&saved[..], b"R 1 2 3\n"].concat();
        for (what, damaged) in [("cut", cut), ("flipped", flipped), ("appended", appended)] {
            fs::write(&path, damaged).unwrap();
            let warm = calibrator(300);
            let err = load(&path, &warm).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert_eq!(warm.cache_len(), 0, "{what}");
        }

        // A sealed file holding a row that is no whole row of this
        // calibrator: the calibrator refuses that row alone.
        let rows: Vec<CalibrationRow> = cold.export_rows().iter().map(|r| (**r).clone()).collect();
        assert_eq!((rows[0].m, rows[0].k), (10, 30));
        let broken = |change: &dyn Fn(&mut Vec<f64>)| {
            let mut rows = rows.clone();
            change(rows[0].values.to_mut());
            rows
        };
        for (what, rows) in [
            ("a value short", broken(&|v| v.truncate(v.len() - 1))),
            ("a value long", broken(&|v| v.push(0.5))),
            ("NaN", broken(&|v| v[7] = f64::NAN)),
            ("negative", broken(&|v| v[7] = -0.5)),
        ] {
            fs::write(&path, encode(cold.fingerprint(), rows.iter(), None)).unwrap();
            let warm = calibrator(300);
            let loaded = load(&path, &warm).unwrap();
            assert_eq!((loaded.installed, loaded.skipped), (1, 1), "{what}");
            // The lost row is one recalibration away, bit for bit.
            assert_eq!(
                warm.threshold(10, 30, 0.9).unwrap().to_bits(),
                truth.to_bits()
            );
            assert_eq!(warm.stats().oracle_jobs, 1, "{what}");
            assert_eq!(warm.export_cache(), cold.export_cache(), "{what}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Length and FNV-1a of an `hpcal 5` file holding rows below and on a
    /// surface plus its layers: the text `hpcal 4` file this test pinned
    /// before, its records re-encoded by hand in the version-5 layout.
    #[test]
    fn hpcal_bytes_are_pinned() {
        let dir = tmp_dir("pinned");
        let path = dir.join("cal.hpcal");
        let cal = surfaced_calibrator(200);
        assert!(cal.ensure_surface_for(10).unwrap());
        cal.threshold(10, 5, 0.9).unwrap();
        save(&path, &cal).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (15_177, 0x8fbf_01f8_d587_1f47)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every row as `(m, k, confidences, value bits)`, in the order held.
    fn row_bits(cal: &ThresholdCalibrator) -> Vec<(u32, usize, Vec<u32>, Vec<u64>)> {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
        let rows = cal.export_rows();
        rows.iter()
            .map(|r| (r.m, r.k, r.confidences.clone(), bits(&r.values)))
            .collect()
    }

    proptest! {
        /// Whatever happened to an `hpcal` file — cut, a byte flipped, or
        /// any eight bytes overwritten by a hostile number — `load` returns
        /// `InvalidData` or `stale` with nothing installed, or installs
        /// every row and layer bit-equal to what was saved. With the seal
        /// restamped over the overwrite, it still never panics and never
        /// allocates past what the bytes hold.
        #[test]
        fn load_survives_hostile_bytes(
            mangle in (0u8..4, any::<usize>()),
            value in (0u8..3, any::<u64>()).prop_map(|(kind, raw)| match kind {
                0 => raw,
                1 => raw % 64,
                _ => u64::MAX - raw % 64,
            }),
        ) {
            static GENUINE: std::sync::OnceLock<(Vec<u8>, ThresholdCalibrator)> = std::sync::OnceLock::new();
            let (genuine, saved) = GENUINE.get_or_init(|| {
                let dir = tmp_dir("hostile-genuine");
                let cal = surfaced_calibrator(200);
                cal.ensure_surface_for(10).unwrap();
                cal.threshold(10, 5, 0.9).unwrap();
                save(&dir.join("cal.hpcal"), &cal).unwrap();
                let bytes = fs::read(dir.join("cal.hpcal")).unwrap();
                let _ = fs::remove_dir_all(&dir);
                (bytes, cal)
            });
            let (kind, at) = mangle;
            let mut bytes = genuine.clone();
            match kind {
                0 => bytes.truncate(at % bytes.len()),
                1 => {
                    let at = at % bytes.len();
                    bytes[at] ^= (value as u8).max(1);
                }
                _ => {
                    let at = at % (bytes.len() - 7);
                    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    if kind == 3 {
                        bytes.truncate(bytes.len() - 4);
                        bytes.seal();
                    }
                }
            }
            let dir = tmp_dir("hostile");
            let path = dir.join("cal.hpcal");
            fs::write(&path, &bytes).unwrap();
            let warm = surfaced_calibrator(200);
            let loaded = load(&path, &warm);
            let _ = fs::remove_dir_all(&dir);
            match loaded {
                Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
                Ok(loaded) if kind == 3 => prop_assert!(!loaded.stale || warm.cache_len() == 0),
                Ok(loaded) if loaded.stale => prop_assert_eq!(warm.cache_len(), 0),
                Ok(loaded) => {
                    prop_assert_eq!(loaded, CacheLoad {
                        installed: saved.export_rows().len(),
                        surface_layers: saved.surface().unwrap().layers().len(),
                        ..CacheLoad::default()
                    });
                    prop_assert!(row_bits(&warm) == row_bits(saved), "rows differ");
                    prop_assert!(warm.surface().unwrap().layers() == saved.surface().unwrap().layers());
                }
            }
        }
    }

    #[test]
    fn load_deletes_the_temp_a_crashed_save_left() {
        let dir = tmp_dir("crashed-save");
        let path = dir.join("cal.hpcal");
        let temp = temp_path(&path);
        let cal = calibrator(300);
        cal.threshold(10, 30, 0.9).unwrap();
        save(&path, &cal).unwrap();
        // A crash after the temp's first write and before its rename.
        fs::write(&temp, b"HPCL\x05").unwrap();
        assert_eq!(load(&path, &calibrator(300)).unwrap().installed, 1);
        assert!(!temp.exists(), "stale temp beside a published cache");
        // The same crash during the first save a deployment ever ran.
        fs::remove_file(&path).unwrap();
        fs::write(&temp, b"HPCL\x05").unwrap();
        assert_eq!(load(&path, &calibrator(300)).unwrap(), CacheLoad::default());
        assert!(!temp.exists(), "stale temp and no cache");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_and_overwrites() {
        let dir = tmp_dir("atomic");
        let path = dir.join("cal.hpcal");
        let cal = calibrator(300);
        cal.threshold(10, 30, 0.9).unwrap();
        save(&path, &cal).unwrap();
        cal.threshold(10, 60, 0.9).unwrap();
        assert_eq!(save(&path, &cal).unwrap(), cal.cache_len());
        assert!(!temp_path(&path).exists(), "temp file renamed away");
        let warm = calibrator(300);
        assert_eq!(load(&path, &warm).unwrap().installed, 2);
        assert_eq!(warm.cache_len(), cal.cache_len());
        let _ = fs::remove_dir_all(&dir);
    }
}
