//! Persisted calibration cache: write-on-shutdown, load-at-boot.
//!
//! Monte-Carlo threshold calibration is the dominant cost of a cold
//! assessment (the ROADMAP "calibration wall"); persisting the calibrated
//! thresholds means a warm restart never repeats a Monte-Carlo job this
//! deployment has already run. The file is a *cache*, never a source of
//! truth: it is keyed by the calibrator's
//! [`fingerprint`](hp_stats::ThresholdCalibrator::fingerprint) — the seed
//! and every configuration knob that determines what thresholds *are* —
//! and a file recorded under a different fingerprint is ignored wholesale,
//! so a configuration change silently falls back to online calibration
//! instead of serving thresholds from a different distribution.
//!
//! # Format (version 4)
//!
//! Line-oriented text, one header then one tagged record per line:
//!
//! ```text
//! hpcal 4 <fingerprint as 16 hex digits>
//! R <m> <k> <confidence_millis csv> <values as f64-bits csv>
//! P <tolerance as f64 bits> <k_min>
//! S <m> <confidence_millis> <error_bound as f64 bits> <k_grid csv> <values as f64-bits csv>
//! ```
//!
//! An `R` record is one oracle row as the calibrator holds it
//! ([`CalibrationRow`]): one value per p̂ bucket per confidence, column by
//! column. `P` records the surface parameters the `S` layers were built
//! under (a surface is only installed when those parameters match the
//! live configuration — the fingerprint deliberately excludes them, since
//! the surface is an error-bounded view over the oracle, not a change to
//! it). An `S` layer holds one value per p̂ bucket per grid `k`, row-major.
//! All floats are stored as raw IEEE-754 bits, so a load → save → load
//! round trip is bit-exact and warm verdicts stay bit-identical to cold
//! ones.
//!
//! This is the only version read: a file with any other header is
//! `stale` like one with another fingerprint, and costs one rebuild.
//! Writes go through [`hp_store::durable::publish`], so a crash mid-save
//! leaves the previous cache intact, and the next [`load`] deletes the
//! temp file such a crash leaves beside it. Individually malformed record lines
//! — and rows the calibrator refuses: another width, a value that is no
//! threshold — are skipped (and counted), never fatal: losing one cache
//! line costs one recalibration, not a boot.

use hp_stats::{
    CalibrationRow, SurfaceLayer, SurfaceParams, ThresholdCalibrator, ThresholdSurface,
};
use hp_store::durable::{publish, remove, temp_path};
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// The file format version this module writes, and the only one it reads.
const VERSION: u32 = 4;

/// What loading a persisted cache found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheLoad {
    /// Rows installed into the live calibrator.
    pub installed: usize,
    /// Malformed or rejected record lines skipped.
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
/// Returns the underlying I/O error only when a stale temp file cannot be
/// deleted or the file exists but cannot be read; content problems
/// degrade to `skipped`/`stale` instead.
pub fn load(path: &Path, calibrator: &ThresholdCalibrator) -> io::Result<CacheLoad> {
    remove([temp_path(path)])?;
    let file = match fs::File::open(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CacheLoad::default()),
        file => file?,
    };
    let mut lines = BufReader::new(file).lines();
    let Some(header) = lines.next().transpose()? else {
        return Ok(CacheLoad::default());
    };
    if !header_matches(&header, calibrator.fingerprint()) {
        return Ok(CacheLoad {
            stale: true,
            ..CacheLoad::default()
        });
    }
    let mut rows = Vec::new();
    let mut params: Option<SurfaceParams> = None;
    let mut layers: Vec<SurfaceLayer> = Vec::new();
    let mut skipped = 0usize;
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let parsed = match line.split_once(' ') {
            Some(("R", rest)) => parse_row(rest).map(|row| rows.push(row)),
            Some(("P", rest)) => parse_params(rest).map(|p| params = Some(p)),
            Some(("S", rest)) => parse_layer(rest).map(|layer| layers.push(layer)),
            _ => None,
        };
        if parsed.is_none() {
            skipped += 1;
        }
    }
    let offered = rows.len();
    let installed = calibrator.preload_rows(rows);

    // Install the persisted surface only when the live configuration asks
    // for the exact parameters it was built under; otherwise boot rebuilds
    // (cheaply, from the just-preloaded rows).
    let mut surface_layers = 0;
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
        skipped: skipped + (offered - installed),
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
    publish(path, |file| {
        let mut out = BufWriter::new(file);
        writeln!(out, "hpcal {VERSION} {:016x}", calibrator.fingerprint())?;
        for row in &rows {
            writeln!(
                out,
                "R {} {} {} {}",
                row.m,
                row.k,
                csv(&row.confidences),
                bits_csv(&row.values)
            )?;
        }
        if let (Some(params), Some(surface)) = (calibrator.config().surface, calibrator.surface()) {
            writeln!(
                out,
                "P {:016x} {}",
                params.tolerance.to_bits(),
                params.k_min
            )?;
            for layer in surface.layers() {
                writeln!(
                    out,
                    "S {} {} {:016x} {} {}",
                    layer.m,
                    layer.confidence_millis,
                    layer.error_bound.to_bits(),
                    csv(&layer.k_grid),
                    bits_csv(&layer.values),
                )?;
            }
        }
        out.flush()
    })?;
    Ok(rows.iter().map(|row| row.values.len()).sum())
}

fn bits_csv(values: &[f64]) -> String {
    csv(values.iter().map(|v| format!("{:016x}", v.to_bits())))
}

fn csv<I: IntoIterator<Item = T>, T: ToString>(items: I) -> String {
    items
        .into_iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The whitespace-separated fields of `line`, when there are exactly `N`.
fn fields<const N: usize>(line: &str) -> Option<[&str; N]> {
    line.split_ascii_whitespace()
        .collect::<Vec<_>>()
        .try_into()
        .ok()
}

/// Whether `header` is this module's: the magic, the one version it
/// writes, and a recorded fingerprint equal to `fingerprint`.
fn header_matches(header: &str, fingerprint: u64) -> bool {
    fields(header).is_some_and(|[magic, version, recorded]| {
        magic == "hpcal"
            && version.parse() == Ok(VERSION)
            && u64::from_str_radix(recorded, 16) == Ok(fingerprint)
    })
}

fn parse_row(rest: &str) -> Option<CalibrationRow> {
    let [m, k, confidences, values] = fields(rest)?;
    Some(CalibrationRow {
        m: m.parse().ok()?,
        k: k.parse().ok()?,
        confidences: parse_csv(confidences, |v| v.parse().ok())?,
        values: parse_csv(values, parse_bits)?,
    })
}

fn parse_params(rest: &str) -> Option<SurfaceParams> {
    let [tolerance, k_min] = fields(rest)?;
    let params = SurfaceParams {
        tolerance: parse_bits(tolerance)?,
        k_min: k_min.parse().ok()?,
    };
    params.validate().is_ok().then_some(params)
}

fn parse_layer(rest: &str) -> Option<SurfaceLayer> {
    let [m, confidence_millis, error_bound, k_grid, values] = fields(rest)?;
    Some(SurfaceLayer {
        m: m.parse().ok()?,
        confidence_millis: confidence_millis.parse().ok()?,
        error_bound: parse_bits(error_bound)?,
        k_grid: parse_csv(k_grid, |v| v.parse().ok())?,
        values: parse_csv(values, parse_bits)?,
    })
}

fn parse_csv<T>(field: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    field.split(',').map(parse).collect()
}

fn parse_bits(field: &str) -> Option<f64> {
    u64::from_str_radix(field, 16).ok().map(f64::from_bits)
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
        let text = fs::read(&first).unwrap();
        assert!(text.starts_with(b"hpcal 4 "));
        assert!(
            text == fs::read(&second).unwrap(),
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
            let params = cal.config().surface.unwrap();
            format!(
                "hpcal 4 {:016x}\nP {:016x} {}\nS 10 95000 {:016x} 8,16 {}\n",
                cal.fingerprint(),
                params.tolerance.to_bits(),
                params.k_min,
                0.0f64.to_bits(),
                csv(vec![format!("{:016x}", 0.5f64.to_bits()); 2 * buckets]),
            )
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
        let current = fs::read_to_string(&path).unwrap();
        let stale = CacheLoad {
            stale: true,
            ..CacheLoad::default()
        };
        // Different trial count ⇒ different thresholds ⇒ stale file.
        let reconfigured = calibrator(400);
        assert_eq!(load(&path, &reconfigured).unwrap(), stale);
        assert_eq!(reconfigured.cache_len(), 0);
        // The formats this module used to write, and one it never has:
        // same fingerprint, same (parseable) records, another version.
        for version in [1, 2, 3, 99] {
            let other = current.replacen("hpcal 4 ", &format!("hpcal {version} "), 1);
            assert_ne!(other, current);
            fs::write(&path, other).unwrap();
            let warm = calibrator(300);
            assert_eq!(load(&path, &warm).unwrap(), stale, "hpcal {version}");
            assert_eq!(warm.cache_len(), 0, "hpcal {version}: nothing installed");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_and_rows_that_are_not_whole_are_skipped_and_cost_one_job() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("cal.hpcal");
        let cold = calibrator(300);
        let truth = cold.threshold(10, 30, 0.9).unwrap();
        cold.threshold(10, 60, 0.9).unwrap();
        save(&path, &cold).unwrap();
        let saved = fs::read_to_string(&path).unwrap();

        // Lines that are no record of this version: too few fields, a
        // version-3 entry, a malformed layer.
        let junk = "not a record\nR 1 2 3\nE 10 30 18 95000 3fd0000000000000\nS 10 95000 bogus\n";
        fs::write(&path, format!("{saved}{junk}")).unwrap();
        let loaded = load(&path, &calibrator(300)).unwrap();
        assert_eq!(
            (loaded.installed, loaded.skipped, loaded.stale),
            (2, 4, false)
        );

        // A record that parses but is no whole row of this calibrator.
        let row = saved.lines().nth(1).unwrap();
        assert!(row.starts_with("R 10 30 95000,"), "{}", &row[..40]);
        let value = format!(",{:016x}", cold.export_rows()[0].values[7].to_bits());
        let with = |eps: f64| row.replacen(&value, &format!(",{:016x}", eps.to_bits()), 1);
        for (what, broken) in [
            ("a value short", row.rsplit_once(',').unwrap().0.to_string()),
            ("a value long", format!("{row}{value}")),
            ("NaN", with(f64::NAN)),
            ("negative", with(-0.5)),
        ] {
            assert_ne!(broken, row, "{what}");
            fs::write(&path, saved.replacen(row, &broken, 1)).unwrap();
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

    /// Length and FNV-1a of an `hpcal` file holding rows below and on a
    /// surface plus its layers, as computed at PR 25's parent, before
    /// `publish` chose its own temp name: not a byte may move.
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
            (30_883, 0x53c3_09c6_28d8_9880)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    proptest! {
        /// Whatever happened to an `hpcal` file — cut, a byte flipped, any
        /// field of any line replaced by a hostile number, a csv list one
        /// value short or long — `load` returns a typed error (only for
        /// bytes that are not text) or accounts for every record line,
        /// and never panics. It cannot promise the *same* thresholds: the
        /// format has no checksum (DESIGN.md, "On-disk formats").
        #[test]
        fn load_survives_hostile_bytes(
            mangle in (0u8..4, any::<usize>(), any::<u64>()),
            hex in any::<bool>(),
        ) {
            static GENUINE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let genuine = GENUINE.get_or_init(|| {
                let dir = tmp_dir("hostile-genuine");
                let cal = surfaced_calibrator(200);
                cal.ensure_surface_for(10).unwrap();
                cal.threshold(10, 5, 0.9).unwrap();
                save(&dir.join("cal.hpcal"), &cal).unwrap();
                let bytes = fs::read(dir.join("cal.hpcal")).unwrap();
                let _ = fs::remove_dir_all(&dir);
                bytes
            });
            let (kind, at, value) = mangle;
            let mut bytes = genuine.clone();
            let separators = |b: &u8| b" ,\n".contains(b);
            let fields: Vec<usize> = (1..bytes.len())
                .filter(|&i| separators(&bytes[i - 1]) && !separators(&bytes[i]))
                .collect();
            let start = fields[at % fields.len()];
            let end = bytes[start..].iter().position(separators).map_or(bytes.len(), |n| start + n);
            match kind {
                0 => bytes.truncate(at % bytes.len()),
                1 => {
                    let at = at % bytes.len();
                    bytes[at] ^= (value as u8).max(1);
                }
                2 => {
                    let field = if hex { format!("{value:016x}") } else { (value % 1_000).to_string() };
                    bytes.splice(start..end, field.into_bytes()).for_each(drop);
                }
                _ if hex => bytes.splice(start..(end + 1).min(bytes.len()), []).for_each(drop),
                _ => bytes.splice(start..start, b"3fd0000000000000,".iter().copied()).for_each(drop),
            }
            let dir = tmp_dir("hostile");
            let path = dir.join("cal.hpcal");
            fs::write(&path, &bytes).unwrap();
            match load(&path, &surfaced_calibrator(200)) {
                Ok(loaded) => {
                    let records = bytes.split(|&b| b == b'\n').skip(1).filter(|l| !l.is_empty()).count();
                    prop_assert!(loaded.stale || loaded.installed + loaded.skipped + loaded.surface_layers <= records);
                }
                Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
            }
            let _ = fs::remove_dir_all(&dir);
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
        fs::write(&temp, "hpcal 4 ").unwrap();
        assert_eq!(load(&path, &calibrator(300)).unwrap().installed, 1);
        assert!(!temp.exists(), "stale temp beside a published cache");
        // The same crash during the first save a deployment ever ran.
        fs::remove_file(&path).unwrap();
        fs::write(&temp, "hpcal 4 ").unwrap();
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
