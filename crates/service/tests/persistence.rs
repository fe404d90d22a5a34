//! Calibration-cache persistence: a warm service restart must never
//! recalibrate online, and warm verdicts must stay bit-identical to cold
//! ones (the persisted thresholds round-trip as raw f64 bits).

use hp_core::testing::{BehaviorTestConfig, TestReport};
use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_service::{ReputationService, ServiceConfig, SurfaceParams};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hp-persistence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(cache: PathBuf) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(2)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .build()
                .unwrap(),
        )
        .with_calibration_cache(cache)
}

fn feedbacks(server: ServerId, n: u64) -> Vec<Feedback> {
    (0..n)
        .map(|t| {
            Feedback::new(
                t,
                server,
                ClientId::new(t % 7),
                Rating::from_good(t % 13 != 0),
            )
        })
        .collect()
}

#[test]
fn warm_restart_never_recalibrates_and_verdicts_are_bit_identical() {
    let dir = tmp_dir("warm");
    let cache = dir.join("calibration.hpcal");

    // Cold boot: the surface build and the rows below it calibrate online
    // and the shutdown persists them.
    let cold = ReputationService::new(config(cache.clone())).unwrap();
    let server = ServerId::new(77);
    cold.ingest_batch(feedbacks(server, 500)).unwrap();
    let cold_verdict = cold.assess(server).unwrap();
    let cold_stats = cold.stats();
    assert!(
        cold_stats.calibration_cache_misses > 0,
        "cold boot must calibrate online"
    );
    let entries = cold_stats.calibration_cache_entries;
    assert!(entries > 0);
    cold.shutdown();
    assert!(cache.exists(), "shutdown persists the calibration cache");

    // Warm boot: the same boot and the same assessments answer entirely
    // from the persisted cache — zero Monte-Carlo jobs.
    let warm = ReputationService::new(config(cache.clone())).unwrap();
    warm.ingest_batch(feedbacks(server, 500)).unwrap();
    let warm_verdict = warm.assess(server).unwrap();
    let warm_stats = warm.stats();
    assert_eq!(
        warm_stats.calibration_cache_misses, 0,
        "a warm restart must never recalibrate online"
    );
    assert!(warm_stats.calibration_cache_hits > 0);
    assert_eq!(warm_stats.calibration_cache_entries, entries);
    assert_eq!(
        *warm_verdict, *cold_verdict,
        "warm verdicts must be bit-identical to cold ones"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache damaged on disk costs a rebuild, never a verdict: one byte
/// flipped inside the threshold a cold verdict turned on, and the warm
/// boot answers bit-identically to the cold one after the same row jobs.
#[test]
fn a_flipped_threshold_in_the_cache_is_never_served() {
    let dir = tmp_dir("flipped");
    let cache = dir.join("calibration.hpcal");
    // Without a surface every threshold is a row value, as the file holds it.
    let config = config(cache.clone()).with_calibration_surface(None);
    let server = ServerId::new(77);
    let boot = || {
        let service = ReputationService::new(config.clone()).unwrap();
        service.ingest_batch(feedbacks(server, 500)).unwrap();
        let verdict = service.assess(server).unwrap();
        let jobs = service.stats().calibration_oracle_jobs;
        service.shutdown();
        (verdict, jobs)
    };
    let (cold, cold_jobs) = boot();
    assert!(cold_jobs > 0, "cold boot calibrates");

    let TestReport::MultiSummary(summary) = cold.report() else {
        panic!("the service serves multi-test summaries");
    };
    let binding = summary.binding.as_ref().expect("a binding suffix");
    let threshold = binding.report.threshold.expect("a conclusive suffix");
    let needle = threshold.to_bits().to_le_bytes();
    let mut bytes = std::fs::read(&cache).unwrap();
    let found: Vec<usize> = (0..bytes.len().saturating_sub(7))
        .filter(|&at| bytes[at..at + 8] == needle)
        .collect();
    assert_eq!(found.len(), 1, "the binding threshold is held once");
    // A low mantissa byte: the value stays a finite, non-negative threshold.
    bytes[found[0] + 2] ^= 0x01;
    std::fs::write(&cache, bytes).unwrap();

    let (warm, warm_jobs) = boot();
    assert_eq!(
        *warm, *cold,
        "warm verdicts must be bit-identical to cold ones"
    );
    assert_eq!(warm_jobs, cold_jobs, "the damaged file installed nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_calibration_checkpoints_without_shutdown() {
    let dir = tmp_dir("checkpoint");
    let cache = dir.join("calibration.hpcal");
    let service = ReputationService::new(config(cache.clone())).unwrap();
    let persisted = service.save_calibration().unwrap();
    assert!(persisted > 0, "boot calibrated rows to persist");
    assert!(cache.exists());
    // No row job since: the next checkpoint has nothing to add and leaves
    // the file alone (here: does not even bring it back).
    std::fs::remove_file(&cache).unwrap();
    assert_eq!(service.save_calibration().unwrap(), persisted);
    assert!(!cache.exists());
    // The service keeps serving after a checkpoint.
    let server = ServerId::new(5);
    service.ingest_batch(feedbacks(server, 300)).unwrap();
    assert!(service.assess(server).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_boot_killed_before_its_first_drain_left_its_calibration_behind() {
    let dir = tmp_dir("killed");
    let cache = dir.join("calibration.hpcal");
    // `drop` stops the shards but, like a SIGKILL, never reaches the save
    // in `shutdown`: what the file holds, the boot itself wrote.
    let cold = ReputationService::new(config(cache.clone())).unwrap();
    assert!(
        cold.stats().calibration_oracle_jobs > 0,
        "cold boot calibrates"
    );
    drop(cold);
    assert!(cache.exists(), "a boot that ran row jobs saves them");

    // The next boot finds everything, so it has nothing to write either.
    let long_ago = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
    let file = std::fs::File::options().write(true).open(&cache).unwrap();
    file.set_modified(long_ago).unwrap();
    drop(file);
    let warm = ReputationService::new(config(cache.clone())).unwrap();
    let stats = warm.stats();
    assert_eq!(
        (
            stats.calibration_oracle_jobs,
            stats.calibration_cache_misses
        ),
        (0, 0),
        "the second boot answers from the first one's file"
    );
    assert_eq!(
        std::fs::metadata(&cache).unwrap().modified().unwrap(),
        long_ago,
        "a boot that ran no job leaves the file alone"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reconfigured_service_ignores_a_stale_cache() {
    let dir = tmp_dir("stale");
    let cache = dir.join("calibration.hpcal");
    let cold = ReputationService::new(config(cache.clone())).unwrap();
    cold.shutdown();

    // More trials ⇒ different thresholds ⇒ the persisted file must be
    // ignored, not served.
    let reconfigured = config(cache.clone()).with_test(
        BehaviorTestConfig::builder()
            .calibration_trials(400)
            .build()
            .unwrap(),
    );
    let service = ReputationService::new(reconfigured).unwrap();
    let stats = service.stats();
    assert!(
        stats.calibration_cache_misses > 0,
        "a stale cache must not suppress recalibration"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unconfigured_service_saves_nothing() {
    let plain = ServiceConfig::default()
        .with_shards(1)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(200)
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None);
    let service = ReputationService::new(plain).unwrap();
    assert_eq!(service.save_calibration().unwrap(), 0);
}

#[test]
fn a_boot_runs_the_rows_its_configuration_names_and_a_reboot_runs_none() {
    let dir = tmp_dir("rows");
    // Few trials and coarse p̂ buckets keep 35 row jobs quick; the
    // tolerance is wide because so few trials measure a wide error bound,
    // and a bypassed layer would send every k to a row job.
    let test = BehaviorTestConfig::builder()
        .calibration_trials(200)
        .p_bucket(0.05)
        .build()
        .unwrap();
    let surface = SurfaceParams {
        tolerance: 10.0,
        ..SurfaceParams::default()
    };
    // The surface build runs 13 rows (7 on its grid from k_min = 32 to the
    // cutoff 2048, the 6 midpoints between them); below k_min a verdict
    // can ask for every window count from min_suffix / m = 10 upward.
    let k_lo = test.min_suffix() / test.window_size() as usize;
    let rows = (13 + surface.k_min - k_lo) as u64;
    assert_eq!(rows, 35);
    let config = ServiceConfig::default()
        .with_shards(1)
        .with_test(test)
        .with_calibration_surface(Some(surface))
        .with_calibration_cache(dir.join("calibration.hpcal"));
    // (row jobs, misses) so far, and (thresholds held, heap bytes of the
    // rows they sit in — `hp_calibration_cache_bytes` as `/metrics` has it).
    let counts = |service: &ReputationService| {
        let stats = service.stats();
        let jobs = (
            stats.calibration_oracle_jobs,
            stats.calibration_cache_misses,
        );
        let exposition = service.render_prometheus();
        let row_bytes: usize = exposition
            .lines()
            .find_map(|line| line.strip_prefix("hp_calibration_cache_bytes "))
            .expect("the row store's byte gauge is served")
            .parse()
            .unwrap();
        (jobs, (stats.calibration_cache_entries, row_bytes))
    };
    let first_assessments = |service: &ReputationService| {
        for (id, depth) in [(1, 100), (2, 310), (3, 2_000), (4, 20_000)] {
            let server = ServerId::new(id);
            service.ingest_batch(feedbacks(server, depth)).unwrap();
            service.assess(server).unwrap();
        }
    };

    let cold = ReputationService::new(config.clone()).unwrap();
    let (jobs, held) = counts(&cold);
    assert_eq!(jobs, (rows, rows), "one miss per job, one job per row");
    // 35 rows of 21 buckets × 14 rungs: eight bytes a threshold and a
    // row's fixed part, nothing per lookup.
    let (entries, row_bytes) = held;
    assert_eq!(entries, 35 * 21 * 14);
    assert!(
        (entries * 8..entries * 8 + 35 * 256).contains(&row_bytes),
        "{row_bytes} B"
    );
    first_assessments(&cold);
    assert_eq!(
        counts(&cold),
        ((rows, rows), held),
        "no verdict waited on a job or added a row"
    );
    cold.shutdown();

    let warm = ReputationService::new(config).unwrap();
    assert_eq!(counts(&warm), ((0, 0), held));
    first_assessments(&warm);
    assert_eq!(counts(&warm), ((0, 0), held));

    // The default configuration names the same 35 rows at 201 buckets, and
    // the binary carries them: a default boot runs no job, and the byte
    // gauge counts the thresholds it borrows from the binary as it counts
    // the ones on the heap.
    let default = ReputationService::new(ServiceConfig::default().with_shards(1)).unwrap();
    let (jobs, held) = counts(&default);
    assert_eq!(jobs, (0, 0), "a default boot runs no row job");
    let (entries, row_bytes) = held;
    assert_eq!(entries, 35 * 201 * 14);
    assert!(
        (entries * 8..entries * 8 + 35 * 256).contains(&row_bytes),
        "{row_bytes} B"
    );
    assert!(default
        .render_prometheus()
        .lines()
        .any(|line| line == "hp_calibration_oracle_jobs_total 0"));
    first_assessments(&default);
    assert_eq!(counts(&default), ((0, 0), held));
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn a_boot_that_ran_no_job_never_rewrites_the_file() {
    use std::os::unix::fs::MetadataExt;
    let dir = tmp_dir("unchanged");
    let cache = dir.join("calibration.hpcal");
    ReputationService::new(config(cache.clone()))
        .unwrap()
        .shutdown();
    let written = std::fs::read(&cache).unwrap();
    let inode = std::fs::metadata(&cache).unwrap().ino();

    // A warm boot's checkpoint and drain have nothing to add: the file
    // keeps its bytes and its inode (a save publishes a new file).
    let warm = ReputationService::new(config(cache.clone())).unwrap();
    assert_eq!(warm.stats().calibration_oracle_jobs, 0);
    warm.checkpoint().unwrap();
    warm.shutdown();
    assert_eq!(std::fs::read(&cache).unwrap(), written);
    assert_eq!(std::fs::metadata(&cache).unwrap().ino(), inode);

    // A default boot holds only what its binary does: it writes no file.
    let default = dir.join("default.hpcal");
    let service =
        ReputationService::new(ServiceConfig::default().with_calibration_cache(default.clone()))
            .unwrap();
    service.checkpoint().unwrap();
    service.shutdown();
    assert!(!default.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
