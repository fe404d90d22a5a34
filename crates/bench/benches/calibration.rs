//! Calibration benchmarks: the common-random-number Monte-Carlo oracle,
//! the interpolated threshold surface, and the service-level cold-assess
//! path they exist to accelerate.
//!
//! Timed and written by the shared `hp_bench` harness into
//! `experiments/out/bench_calibration.json`. The JSON carries a `gate`
//! object; the bench asserts its correctness checks outright and holds
//! its walls to the committed budgets in
//! `experiments/baselines/bench_calibration_baseline.json`, panicking on
//! the first that fails.
//!
//! Shapes to look for:
//!
//! * `oracle_cold/row_fill` — one miss runs one Monte-Carlo job
//!   that writes the *entire* `(m, k)` row (every p̂ bucket × the
//!   confidence ladder) from a single common-random-number batch. The
//!   per-entry column is the amortized cost; a whole-job price spread
//!   across thousands of entries is what makes the row strategy win. A
//!   single row always runs serially on the thread that missed;
//! * `surface_build/threads=N` — the boot-time cost: the default surface's
//!   13 row jobs spread over N workers, one whole row per worker at a
//!   time. The thread count must not change results (asserted below),
//!   only wall time;
//! * `oracle_warm/cache_hit` and `surface/hit` — the two warm tiers: a
//!   row read vs an interpolation between two rows. Both are nanoseconds;
//! * `service_cold_assess/*` — a service assessing servers it has never
//!   assessed before, at its defaults (the surface) and with
//!   `with_calibration_surface(None)` (oracle rows on demand). The
//!   arithmetic suffix schedule requests a threshold at every
//!   k ∈ {10, 11, …, n/10}, so a cold oracle row is a Monte-Carlo stall.
//!   The gate reads that wall off one server: `growth_assess_oracle_ms`
//!   vs `growth_assess_surface_ms` (a history deeper than any assessed
//!   so far: the oracle service stalls on fresh rows, the surface service
//!   stays inside the cold-assess SLO);
//! * surface vs oracle: thresholds may differ by at most the configured
//!   tolerance wherever the surface serves, and the two services must
//!   return identical verdicts for every server whose oracle margin
//!   |ε − d| exceeds the surface's measured error bound (zero flips).
//!   Servers inside that band are knife-edge: both verdicts are
//!   statistically defensible, and the bench reports how many such
//!   servers the workload produced instead of gating on them.

use hp_bench::{at_least, at_most, fmt_ns, measure, print_rows, write_json, Baseline, Row};
use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_service::{ReputationService, ServiceConfig};
use hp_stats::{CalibrationConfig, SurfaceParams, ThresholdCalibrator, ThresholdProvenance};
use std::time::Instant;

/// The paper's window size (and the service default).
const M: u32 = 10;
const SEED: u64 = 7;

fn config(threads: usize, surface: Option<SurfaceParams>) -> CalibrationConfig {
    CalibrationConfig {
        threads,
        surface,
        ..CalibrationConfig::default()
    }
}

fn calibrator(cfg: CalibrationConfig) -> ThresholdCalibrator {
    ThresholdCalibrator::new(cfg).unwrap().with_seed(SEED)
}

/// Cold row fill: each sample pays one full common-random-number job on
/// a fresh calibrator. `records` is the number of cache entries one job
/// produces, so the per-entry column is the amortized cost.
fn bench_row_fill(rows: &mut Vec<Row>) -> u64 {
    const K: usize = 64;
    let entries = {
        let cal = calibrator(config(1, None));
        cal.threshold(M, K, 0.85).unwrap();
        cal.cache_len() as u64
    };
    rows.push(measure("oracle_cold/row_fill", 6, entries, || {
        calibrator(config(1, None)).threshold(M, K, 0.85).unwrap()
    }));
    entries
}

/// A calibrator that has just built its configured surface from nothing.
fn built_surface(cfg: CalibrationConfig) -> ThresholdCalibrator {
    let cal = calibrator(cfg);
    assert!(cal.ensure_surface_for(M).unwrap());
    cal
}

/// Cold surface builds — what a service boot without a persisted
/// calibration cache pays before it can serve. `records` is the number of
/// cache entries the build's row jobs produce.
fn bench_surface_build(rows: &mut Vec<Row>) {
    let surface = Some(SurfaceParams::default());
    let entries = built_surface(config(1, surface)).cache_len() as u64;
    for threads in [1usize, 2] {
        rows.push(measure(
            &format!("surface_build/threads={threads}"),
            5,
            entries,
            || built_surface(config(threads, surface)).cache_len(),
        ));
    }
}

/// One row job must serve every p̂ bucket of its `(m, k)` row without
/// further Monte Carlo: sweep all bucket centers and count jobs.
fn crn_amortization() -> (u64, u64) {
    const K: usize = 64;
    let cal = calibrator(config(1, None));
    cal.threshold(M, K, 0.5).unwrap();
    let buckets = (1.0 / cal.config().p_bucket).round() as u32;
    for index in 0..=buckets {
        let p = (f64::from(index) * cal.config().p_bucket).clamp(0.0, 1.0);
        cal.threshold(M, K, p).unwrap();
    }
    let stats = cal.stats();
    assert_eq!(
        stats.oracle_jobs, 1,
        "the whole p̂ row must be served by the single cold job"
    );
    assert_eq!(stats.misses, 1, "every post-fill lookup must hit the cache");
    (u64::from(buckets) + 1, stats.crn_row_fills)
}

/// Warm-tier lookups: the oracle row cache and the interpolated surface.
fn bench_warm(rows: &mut Vec<Row>, surface_cal: &ThresholdCalibrator) {
    const K: usize = 64;
    const BATCH: u64 = 256;
    let warm = calibrator(config(1, None));
    warm.threshold(M, K, 0.5).unwrap();
    rows.push(measure("oracle_warm/cache_hit", 300, BATCH, || {
        let mut acc = 0.0;
        for i in 0..BATCH {
            let p = 0.05 + 0.9 * (i as f64 / BATCH as f64);
            acc += warm.threshold(M, K, p).unwrap();
        }
        acc
    }));

    // Off-grid (k, p̂) points so every lookup pays the interpolation, not
    // a node read; provenance is asserted before timing.
    let points: Vec<(usize, f64)> = (0..BATCH)
        .map(|i| {
            let k = 33 + (i as usize * 13) % 1500;
            let p = 0.05 + 0.9 * (i as f64 / BATCH as f64);
            (k, p)
        })
        .collect();
    for &(k, p) in &points {
        let (_, prov) = surface_cal
            .threshold_with_provenance(M, k, p, 0.95)
            .unwrap();
        assert_eq!(prov, ThresholdProvenance::Surface, "k={k} p={p}");
    }
    rows.push(measure("surface/hit", 300, BATCH, || {
        let mut acc = 0.0;
        for &(k, p) in &points {
            acc += surface_cal.threshold(M, k, p).unwrap();
        }
        acc
    }));
}

/// Thresholds must be bit-identical at every thread count of the surface
/// build: a row's trials come from RNG streams fixed by the row, and the
/// fan-out only decides which worker runs which row.
fn crn_thread_identity() -> bool {
    let run = |threads: usize| {
        let cfg = CalibrationConfig {
            trials: 400,
            ..config(threads, Some(SurfaceParams::default()))
        };
        built_surface(cfg).export_cache()
    };
    let reference = run(1);
    [2usize, 4, 8].iter().all(|&t| run(t) == reference)
}

/// |surface − oracle| wherever the surface serves, on off-grid k values
/// (the geometric midpoints are where interpolation error peaks).
fn surface_error(surface_cal: &ThresholdCalibrator) -> (f64, u64) {
    let oracle = calibrator(config(4, None));
    let mut max_err = 0.0f64;
    let mut points = 0u64;
    for k in [48usize, 91, 181, 724] {
        for i in 1..19 {
            let p = f64::from(i) * 0.05;
            let (surface, prov) = surface_cal
                .threshold_with_provenance(M, k, p, 0.95)
                .unwrap();
            if prov != ThresholdProvenance::Surface {
                continue;
            }
            points += 1;
            max_err = max_err.max((surface - oracle.threshold(M, k, p).unwrap()).abs());
        }
    }
    assert!(points > 0, "the surface served none of the probe grid");
    (max_err, points)
}

/// Deterministic mixed workload: honest servers at several reliability
/// levels plus oscillating (milking-style) servers, over a spread of
/// history lengths so assessments exercise many suffix sample counts.
fn workload(servers: u64) -> Vec<Feedback> {
    const LENGTHS: [usize; 8] = [200, 400, 600, 800, 1000, 1200, 1400, 1600];
    let mut out = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand100 = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 100
    };
    for s in 0..servers {
        let n = LENGTHS[(s % LENGTHS.len() as u64) as usize];
        for t in 0..n as u64 {
            let good = match s % 4 {
                // Honest at two reliability levels.
                0 => rand100() < 95,
                1 => rand100() < 85,
                // Value-imbalance style: long good runs, short bad bursts.
                2 => t % 60 < 50 || rand100() < 20,
                // Reliability collapse halfway through the history.
                _ => {
                    let limit = if (t as usize) < n / 2 { 95 } else { 55 };
                    rand100() < limit
                }
            };
            out.push(Feedback::new(
                t,
                ServerId::new(s),
                ClientId::new(t % 23),
                Rating::from_good(good),
            ));
        }
    }
    out
}

/// One server whose history is deeper than any of [`workload`]'s
/// (lengths ≤ 1600, i.e. suffix rows k ≤ 160): its assessment needs rows
/// no earlier assessment asked for.
fn growth_history(server: u64) -> Vec<Feedback> {
    const N: u64 = 2050;
    (0..N)
        .map(|t| {
            Feedback::new(
                t,
                ServerId::new(server),
                ClientId::new(t % 23),
                Rating::from_good(t % 20 != 0),
            )
        })
        .collect()
}

struct ServiceRun {
    verdicts: Vec<bool>,
    /// Signed binding-test margin ε − d per server (`None` when the
    /// verdict had no binding threshold comparison).
    margins: Vec<Option<f64>>,
    /// Assessment of the growth server — its fresh rows are paid here
    /// (oracle) or already covered (surface).
    growth_assess_ns: u128,
    growth_verdict: bool,
    cold_ns: Vec<u128>,
}

fn run_service(servers: u64, surface: Option<SurfaceParams>) -> ServiceRun {
    let service =
        ReputationService::new(ServiceConfig::default().with_calibration_surface(surface)).unwrap();
    service.ingest_batch(workload(servers)).unwrap();
    service.ingest_batch(growth_history(servers)).unwrap();
    // Drain: the stats snapshot round-trips every shard queue (FIFO), so
    // ingest is fully applied before the timed assessments.
    let _ = service.stats();

    let mut verdicts = Vec::with_capacity(servers as usize);
    let mut cold_ns = Vec::with_capacity(servers as usize);
    for s in 0..servers {
        let t0 = Instant::now();
        let assessment = service.assess(ServerId::new(s)).unwrap();
        cold_ns.push(t0.elapsed().as_nanos());
        verdicts.push(assessment.is_accepted());
    }
    let t0 = Instant::now();
    let growth = service.assess(ServerId::new(servers)).unwrap();
    let growth_assess_ns = t0.elapsed().as_nanos();

    // Margins come from the audit trace, off the timed path (the verdict
    // Arc is already cached, so this re-derives no statistics).
    let margins = (0..servers)
        .map(|s| {
            let trace = service.assess_traced(ServerId::new(s)).unwrap().trace;
            Some(trace.threshold? - trace.distance?)
        })
        .collect();
    ServiceRun {
        verdicts,
        margins,
        growth_assess_ns,
        growth_verdict: growth.is_accepted(),
        cold_ns,
    }
}

fn main() {
    let mut rows = Vec::new();
    println!("calibration benchmarks (CRN oracle + threshold surface)\n");

    let row_entries = bench_row_fill(&mut rows);
    let (row_buckets, row_fills) = crn_amortization();
    bench_surface_build(&mut rows);

    // One calibrator with the surface built once, shared by the warm-tier
    // and error scenarios.
    let surface_cal = built_surface(config(4, Some(SurfaceParams::default())));
    let surface = surface_cal.surface().expect("surface just built");
    assert!(
        surface.serves(M),
        "default-tolerance surface must serve m=10"
    );

    bench_warm(&mut rows, &surface_cal);
    let crn_identical = crn_thread_identity();
    let (surface_max_error, error_points) = surface_error(&surface_cal);
    let tolerance = SurfaceParams::default().tolerance;

    // Service level: default configuration (2000 trials, arithmetic
    // suffix schedule) with and without the surface, same workload.
    const SERVERS: u64 = 64;
    let with_surface = run_service(SERVERS, Some(SurfaceParams::default()));
    let oracle = run_service(SERVERS, None);
    // Verdicts must agree wherever they are decisive: a flip only counts
    // when the oracle's binding margin exceeds the surface's measured
    // error bound. Inside that band the two thresholds bracket the
    // distance and either verdict is defensible — those are knife-edge
    // servers, reported but not gated.
    let error_bound = surface
        .max_error_bound(M)
        .expect("surface has layers for m");
    let mut flips = 0usize;
    let mut knife_edge = 0usize;
    for ((a, b), margin) in with_surface
        .verdicts
        .iter()
        .zip(&oracle.verdicts)
        .zip(&oracle.margins)
    {
        if a == b {
            continue;
        }
        match margin {
            Some(margin) if margin.abs() <= error_bound => knife_edge += 1,
            _ => flips += 1,
        }
    }
    assert_eq!(
        with_surface.growth_verdict, oracle.growth_verdict,
        "growth-server verdict must not depend on the calibration tier"
    );
    rows.push(Row::from_samples(
        "service_cold_assess/surface",
        0,
        with_surface.cold_ns.clone(),
    ));
    rows.push(Row::from_samples(
        "service_cold_assess/oracle",
        0,
        oracle.cold_ns,
    ));
    print_rows(&rows);
    let row_named = |name: &str| rows.iter().find(|r| r.name == name).unwrap();

    let amortized_ns = row_named("oracle_cold/row_fill").min_ns_per_record();
    // The boot-time cost a service pays (or skips, via the persisted
    // calibration cache), gated on the serial figure: it does not depend
    // on how many cores the box lends.
    let surface_build_ns = row_named("surface_build/threads=1").p50_ns;
    let surface_build_2t_ns = row_named("surface_build/threads=2").p50_ns;
    println!();
    println!(
        "row job: {row_entries} cache entries ({row_buckets} p̂ buckets × confidence \
         ladder) from one Monte-Carlo job, {row_fills} entries filled, \
         {amortized_ns:.0}ns/entry amortized"
    );
    println!(
        "surface: built in {} on one thread, {} on two (boot cost), max |surface-oracle| \
         {surface_max_error:.4} over {error_points} probe points (tolerance {tolerance})",
        fmt_ns(surface_build_ns),
        fmt_ns(surface_build_2t_ns),
    );
    println!(
        "threads: surface builds bit-identical across {{1,2,4,8}} calibration threads: \
         {crn_identical}"
    );

    let cold = row_named("service_cold_assess/surface");
    let cold_p99_ms = cold.p99_ns as f64 / 1e6;
    let cold_p50_ms = cold.p50_ns as f64 / 1e6;
    let growth_oracle_ms = oracle.growth_assess_ns as f64 / 1e6;
    let growth_surface_ms = with_surface.growth_assess_ns as f64 / 1e6;
    println!("service: cold assess with surface p50 {cold_p50_ms:.3}ms p99 {cold_p99_ms:.3}ms");
    println!(
        "growth past every row asked for (n=2050): oracle assess stalled \
         {growth_oracle_ms:.0}ms on fresh rows, surface assess \
         {growth_surface_ms:.3}ms; verdict flips {flips}/{SERVERS} \
         ({knife_edge} knife-edge inside the {error_bound:.4} error bound)"
    );

    assert!(crn_identical, "thread count changed calibrated thresholds");
    assert!(
        surface_max_error <= tolerance,
        "surface error {surface_max_error} exceeds tolerance {tolerance}"
    );
    assert_eq!(flips, 0, "surface must not change any decisive verdict");

    let surface_build_ms = surface_build_ns as f64 / 1e6;
    let gate = format!(
        "\"gate\":{{\
         \"cold_assess_p99_ms\":{cold_p99_ms:.4},\
         \"cold_assess_p50_ms\":{cold_p50_ms:.4},\
         \"growth_assess_oracle_ms\":{growth_oracle_ms:.1},\
         \"growth_assess_surface_ms\":{growth_surface_ms:.3},\
         \"surface_build_ms\":{surface_build_ms:.1},\
         \"surface_build_2t_ms\":{:.1},\
         \"surface_max_error\":{surface_max_error:.5},\
         \"surface_error_bound\":{error_bound:.5},\
         \"tolerance\":{tolerance},\
         \"error_points\":{error_points},\
         \"verdict_flips\":{flips},\
         \"knife_edge\":{knife_edge},\
         \"verdicts_compared\":{SERVERS},\
         \"crn_identical\":{crn_identical},\
         \"row_fill_entries\":{row_entries},\
         \"row_fill_amortized_ns\":{amortized_ns:.1}}}",
        surface_build_2t_ns as f64 / 1e6,
    );
    write_json("calibration", &rows, &gate);

    // The walls the surface removes, held to the committed budgets: a cold
    // assess, the serial boot-time build, the first assess past every row.
    let base = Baseline::read("calibration");
    let max_p99 = base.get("max_cold_assess_p99_ms");
    at_most("cold assess p99 ms", cold_p99_ms, max_p99);
    let max_build = base.get("max_surface_build_ms");
    at_most("serial surface build ms", surface_build_ms, max_build);
    let growth = growth_oracle_ms / growth_surface_ms;
    let min_growth = base.get("min_growth_speedup");
    at_least("growth assess speedup", growth, min_growth);
}
