//! One run of one workload: set-ups, the window, output checks, restarts,
//! guards, and the metric assembly.

use crate::child::Child;
use crate::drive::{self, ConnOutcome};
use crate::est::{self, Scrape};
use crate::gen::{self, Tally};
use crate::report::Metric;
use crate::spec::{
    Load, Shape, CONNECTIONS, EDGE_WORKERS, REPS, RESTART_SAMPLE, SLICES, VERIFY_SAMPLE,
};
use crate::verify::{self, Reference};
use crate::{layers, replay};
use hp_edge::wire;
use hp_load::HttpClient;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Window guard: the final drain-to-applied may take this share of a
/// closed window.
const DRAIN_LIMIT: f64 = 0.01;
/// Window guard: share of paced sends that may start more than one
/// interval late.
const LATE_LIMIT: f64 = 0.02;
/// Window guard: share of a generator thread's wall time spent generating
/// bodies.
const GENERATOR_LIMIT: f64 = 0.10;

/// What to run and where.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: inputs are a pure function of it.
    pub seed: u64,
    /// Nominal window length; sizes the closed loops' fixed work.
    pub seconds: f64,
    /// Per-layer run: a quarter of the work, one set-up, plus kernels and
    /// the traced replay.
    pub traced: bool,
    /// An eighth of the work and one repetition, for tests; guards are
    /// reported but not enforced (the windows are too short for them).
    pub quick: bool,
    /// Directory for temporary state and the span files.
    pub out: PathBuf,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every output check passed and no request failed.
    pub correct: bool,
    /// Requests sent (preloads included).
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The end-to-end metrics (empty in a traced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics: the `m` ones always, all of them when traced.
    pub per_layer: Vec<Metric>,
    /// Failed output checks (make `correct` false).
    pub check_failures: Vec<String>,
    /// Tripped guards on the gated metrics (the run is not valid).
    pub guard_failures: Vec<String>,
    /// Tripped guards on the window (its ungated `bench.*` throughputs
    /// and latencies are not valid; the run still is).
    pub window_guards: Vec<String>,
}

/// A child that is ready, preloaded and warmed up.
struct Ready {
    child: Child,
    control: HttpClient,
    tally: Tally,
    /// Spawn → `/healthz` ready, s.
    boot_s: f64,
    /// Spawn → warm-up done, s.
    setup_s: f64,
    /// Child `VmRSS` after the warm-up, bytes.
    rss: u64,
    preload: ConnOutcome,
}

fn get(client: &mut HttpClient, path: &str) -> Result<String, String> {
    client
        .get(path)
        .map_err(|e| format!("GET {path}: {e}"))?
        .expect_status(200)
        .map_err(|e| format!("GET {path}: {e}"))
}

fn scrape(client: &mut HttpClient) -> Result<Scrape, String> {
    get(client, "/metrics").map(Scrape::new)
}

/// Completes a set-up on a freshly spawned child: ready → preload →
/// applied (checked against `hp_shard_last_apply_version`) → on durable
/// workloads a graceful restart, so the calibration cache exists on disk
/// as it would after any rolling restart → warm-up sweep.
fn set_up(
    shape: &Shape,
    opts: &Options,
    flags: &[String],
    mut child: Child,
) -> Result<Ready, String> {
    let spawned = child.spawned;
    let boot_s = child.wait_ready()?.as_secs_f64();
    let (tally, preload) = drive::preload(child.addr, shape, opts.seed);
    let mut control = child.client();
    // `/healthz` round-trips every shard queue: the preload is applied.
    get(&mut control, "/healthz")?;
    let applied = scrape(&mut control)?.sum("hp_shard_last_apply_version");
    if applied as u64 != tally.total() {
        return Err(format!(
            "preload: {} feedbacks sent, {applied} applied",
            tally.total()
        ));
    }
    if shape.durable {
        drop(control);
        child.drain()?;
        child = Child::spawn(flags)?;
        child.wait_ready()?;
        control = child.client();
    }
    // Warm-up: one read of every deep server (at least 64 servers), so the
    // window's first requests find warm code, warm threshold rows and
    // faulted-in pages.
    let sweep: String = (0..shape.deep_servers.max(64).min(shape.servers))
        .map(|s| format!("{s}\n"))
        .collect();
    control
        .post("/assess", sweep.as_bytes())
        .map_err(|e| format!("warm-up sweep: {e}"))?
        .expect_status(200)
        .map_err(|e| format!("warm-up sweep: {e}"))?;
    Ok(Ready {
        setup_s: spawned.elapsed().as_secs_f64(),
        rss: child.rss_bytes(),
        child,
        control,
        tally,
        boot_s,
        preload,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// p50 (µs) of `count` sequential `GET path` on the idle child.
fn idle_probe_us(client: &mut HttpClient, path: &str, count: usize) -> Result<f64, String> {
    get(client, path)?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let start = Instant::now();
        get(client, path)?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(est::percentile(&mut samples, 0.5))
}

/// Runs `shape` once.
pub fn run_workload(shape: &Shape, opts: &Options) -> Result<RunReport, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CONNECTIONS > cores {
        return Err(format!(
            "{CONNECTIONS} generator threads on {cores} cores measures the scheduler"
        ));
    }
    const {
        assert!(
            EDGE_WORKERS > CONNECTIONS,
            "edge workers: load plus a control connection"
        )
    };

    let shape = &if opts.quick {
        Shape {
            deep_len: shape.deep_len / 8,
            short_len: (shape.short_len / 8).max(2),
            ..*shape
        }
    } else {
        *shape
    };
    let seconds =
        opts.seconds * if opts.traced { 0.25 } else { 1.0 } / if opts.quick { 8.0 } else { 1.0 };
    let reps = if opts.quick || opts.traced { 1 } else { REPS };
    let run_dir = opts
        .out
        .join(format!("run-{}-{}", std::process::id(), shape.name));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let cache = opts.out.join("reference.hpcal");

    let mut checks: Vec<String> = Vec::new();
    let mut guards: Vec<String> = Vec::new();
    let mut layer: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64, n: u64| layer.push(Metric { name, value, n });

    // The offline oracle first, while nothing is being timed.
    let state_dir = run_dir.join("state-0");
    let flags = shape.child_flags(&state_dir);
    let (service_config, _) = crate::child::configs_from_flags(&flags)?;
    let reference = Reference::build(&service_config, &cache)?;
    put("bench.reference_build_s", reference.build_s, 1);

    // ---- set-up 1 and the window -------------------------------------
    let child = Child::spawn(&flags)?;
    let Ready {
        child,
        mut control,
        tally: preloaded,
        setup_s,
        rss,
        preload,
        ..
    } = set_up(shape, opts, &flags, child)?;
    let mut setups = vec![setup_s];
    let mut rss_after_preload = vec![rss as f64 / (1024.0 * 1024.0)];
    let (mut attempted, mut failed) = (preload.attempted, preload.failed);
    let health = get(&mut control, "/healthz")?;
    let accounted = wire::json_u64(&health, "hot_suffix").unwrap_or(0)
        + wire::json_u64(&health, "summary").unwrap_or(0);
    put(
        "hp-core.resident_bytes_per_feedback",
        accounted as f64 / preloaded.total() as f64,
        1,
    );

    let before = scrape(&mut control)?;
    let ready_at = child.ready_at.expect("set_up waited for readiness");
    let wall_before = ready_at.elapsed().as_secs_f64();
    let child_cpu_before = child.cpu_seconds();
    // No control connection is open while the window runs.
    drop(control);
    let window_start = Instant::now();
    let (conns, tally) = drive::window(child.addr, shape, opts.seed, seconds, &preloaded);
    let elapsed = window_start.elapsed().as_secs_f64();
    let mut control = child.client();
    let backlog = scrape(&mut control)?;
    let drain_start = Instant::now();
    get(&mut control, "/healthz")?;
    let drain_s = drain_start.elapsed().as_secs_f64();
    let after = scrape(&mut control)?;
    let wall_after = ready_at.elapsed().as_secs_f64();
    let child_cpu = child.cpu_seconds() - child_cpu_before;
    let health = get(&mut control, "/healthz")?;

    // ---- window figures ----------------------------------------------
    let sum = |f: fn(&ConnOutcome) -> u64| conns.iter().map(f).sum::<u64>();
    let (sent, verdicts) = (sum(|c| c.sent), sum(|c| c.verdicts));
    attempted += sum(|c| c.attempted);
    failed += sum(|c| c.failed);
    let mut ingest_ms: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.ingest_ms.iter().copied())
        .collect();
    let mut assess_ms: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.assess_ms.iter().copied())
        .collect();
    let closed = matches!(shape.load, Load::Closed { .. });
    let (ingest_fps, assess_rps, slice_spread, slices) = if closed {
        // Per connection, the median of its equal-work slice rates; the
        // last slice also waits for the shards to apply what was acked.
        let mut fps = 0.0;
        let mut rps = 0.0;
        let mut spreads = Vec::new();
        for conn in &conns {
            let mut marks = conn.marks.clone();
            *marks.last_mut().expect("a closed loop records its marks") += drain_s;
            let feedback_rates = est::slice_rates(&marks, conn.sent as f64 / SLICES as f64);
            let verdict_rates = est::slice_rates(&marks, conn.verdicts as f64 / SLICES as f64);
            fps += est::median(&feedback_rates);
            rps += est::median(&verdict_rates);
            spreads.push(est::spread(&feedback_rates));
        }
        (
            fps,
            rps,
            est::median(&spreads),
            (SLICES * CONNECTIONS) as u64,
        )
    } else {
        (
            sum(|c| c.accepted) as f64 / (elapsed + drain_s),
            verdicts as f64 / elapsed,
            0.0,
            1,
        )
    };

    let delta = |name: &str| after.sum(name) - before.sum(name);
    let hits = delta("hp_assess_cache_hits_total");
    let misses = delta("hp_assess_cache_misses_total");
    let cache_hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let utilization = {
        // The gauge is busy/wall since the registry was created (within
        // milliseconds of readiness), so busy = gauge × wall.
        let (u0, u1) = (
            before.each("hp_shard_utilization"),
            after.each("hp_shard_utilization"),
        );
        let per_shard: Vec<f64> = u0
            .iter()
            .zip(&u1)
            .map(|(a, b)| (b * wall_after - a * wall_before) / (wall_after - wall_before))
            .collect();
        per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64
    };
    let late_sends = sum(|c| c.late_sends);
    let paced = if closed { 0 } else { sum(|c| c.attempted) };
    let late_ratio = if paced > 0 {
        late_sends as f64 / paced as f64
    } else {
        0.0
    };
    let calibration_misses = delta("hp_calibration_cache_misses_total");

    // Quantile of what a latency histogram gained over the window.
    let gained = |name: &str, q: f64| {
        est::histogram_delta_quantile(&before.histogram(name), &after.histogram(name), q)
    };
    let (queue_p50, queue_n) = gained("hp_shard_queue_wait_seconds", 0.5);
    let (queue_p99, _) = gained("hp_shard_queue_wait_seconds", 0.99);
    let (compute_p50, compute_n) = gained("hp_assess_compute_latency_seconds", 0.5);
    let server_errors = ["500", "503", "504"]
        .iter()
        .map(|status| {
            let label = format!("status=\"{status}\"");
            after.sum_where("hp_edge_responses_total", &label)
                - before.sum_where("hp_edge_responses_total", &label)
        })
        .sum::<f64>();
    let journal_records = delta("hp_journal_records_total");
    let requests = sum(|c| c.attempted);
    put("hp-load.late_send_ratio", late_ratio, paced);
    put("hp-edge.responses_5xx", server_errors, requests);
    put(
        "hp-edge.admission_503",
        delta("hp_edge_connections_refused_total"),
        requests,
    );
    put("hp-service.queue_wait_p50_us", queue_p50 * 1e6, queue_n);
    put("hp-service.queue_wait_p99_us", queue_p99 * 1e6, queue_n);
    put("hp-service.compute_p50_us", compute_p50 * 1e6, compute_n);
    put(
        "hp-service.cache_hit_ratio",
        cache_hit_ratio,
        (hits + misses) as u64,
    );
    put(
        "hp-service.shard_utilization",
        utilization,
        crate::spec::SHARDS as u64,
    );
    put(
        "hp-service.journal_bytes_per_feedback",
        if journal_records > 0.0 {
            delta("hp_journal_bytes_total") / journal_records
        } else {
            0.0
        },
        journal_records as u64,
    );
    put(
        "hp-service.apply_backlog_s",
        (backlog.sum("hp_feedbacks_ingested_total") - backlog.sum("hp_shard_last_apply_version"))
            .max(0.0)
            / ingest_fps.max(1.0),
        1,
    );
    put(
        "hp-service.shed_feedbacks",
        delta("hp_feedbacks_shed_total"),
        sent,
    );
    put(
        "hp-service.degraded_answers",
        delta("hp_degraded_answers_total"),
        verdicts,
    );
    put(
        "hp-core.tier_compacted_records",
        delta("hp_tier_compacted_records_total"),
        sent,
    );
    put("hp-stats.misses_in_window", calibration_misses, verdicts);
    put(
        "hp-stats.lookups_per_assess",
        (delta("hp_calibration_surface_hits_total") + delta("hp_calibration_cache_hits_total"))
            / misses.max(1.0),
        misses as u64,
    );
    put(
        "hp-stats.cache_entries",
        after.sum("hp_calibration_cache_entries"),
        1,
    );
    put("hp-store.evictions", delta("hp_tier_evictions_total"), sent);
    put("hp-store.faults", delta("hp_tier_faults_total"), verdicts);
    put(
        "hp-store.spilled_bytes",
        wire::json_u64(&health, "spilled").unwrap_or(0) as f64,
        1,
    );
    put("bench.ingest_throughput_fps", ingest_fps, slices);
    put("bench.assess_throughput_rps", assess_rps, slices);
    put(
        "bench.assess_p50_ms",
        est::percentile(&mut assess_ms, 0.5),
        assess_ms.len() as u64,
    );
    put(
        "bench.ingest_p50_ms",
        est::percentile(&mut ingest_ms, 0.5),
        ingest_ms.len() as u64,
    );
    put(
        "bench.ingest_p99_ms",
        est::percentile(&mut ingest_ms, 0.99),
        ingest_ms.len() as u64,
    );
    put(
        "bench.assess_p99_ms",
        est::percentile(&mut assess_ms, 0.99),
        assess_ms.len() as u64,
    );
    put("bench.slice_spread", slice_spread, slices);
    put(
        "bench.child_cpu_s_per_mfeedback",
        child_cpu / (sent.max(1) as f64 / 1e6),
        sent,
    );
    put(
        "bench.child_cpu_ms_per_assess",
        child_cpu * 1e3 / verdicts.max(1) as f64,
        verdicts,
    );
    put(
        "bench.disk_bytes_per_feedback",
        dir_bytes(&state_dir) as f64 / tally.total().max(1) as f64,
        tally.total(),
    );
    put("bench.drain_s", drain_s, 1);
    let gen_s: f64 = conns.iter().map(|c| c.gen_s).sum();
    let gen_share = gen_s / (CONNECTIONS as f64 * elapsed);

    // ---- output checks -------------------------------------------------
    let (accepted, shed) = (sum(|c| c.accepted), sum(|c| c.shed));
    if sent != accepted + shed {
        checks.push(format!("sent {sent} != accepted {accepted} + shed {shed}"));
    }
    // Deltas, not totals: a durable set-up restarts the child once, which
    // zeroes its counters; the preload was checked against the apply
    // version inside `set_up`.
    let counted = delta("hp_feedbacks_ingested_total") as u64;
    if counted != accepted || delta("hp_feedbacks_shed_total") as u64 != shed {
        checks.push(format!(
            "/metrics counts {counted} ingested in the window, clients saw {accepted} accepted"
        ));
    }
    if failed > 0 {
        checks.push(format!("{failed} of {attempted} requests failed"));
    }
    let mix = gen::population(shape, opts.seed);
    let sample = verify::sample_servers(opts.seed, shape, VERIFY_SAMPLE);
    let served = verify::served_bodies(&mut control, &sample)?;
    attempted += sample.len() as u64;
    let mut mismatches = 0;
    for (server, body) in sample.iter().zip(&served) {
        let from_cache = wire::json_raw(body, "from_cache") == Some("true");
        let expected = reference.expected_body(&mix, *server, tally.count(*server), from_cache)?;
        if *body != expected {
            mismatches += 1;
            if mismatches == 1 {
                checks.push(format!(
                    "server {server}: served {body} but offline {expected}"
                ));
            }
        }
    }
    if mismatches > 1 {
        checks.push(format!(
            "{mismatches} of {} sampled verdicts differ from the offline assessor",
            sample.len()
        ));
    }

    // ---- idle-child probes (traced runs) -------------------------------
    if opts.traced {
        put(
            "hp-edge.http_roundtrip_us",
            idle_probe_us(&mut control, "/version", 200)?,
            200,
        );
        put(
            "hp-edge.assess_get_p50_us",
            idle_probe_us(&mut control, "/assess/0", 200)?,
            200,
        );
        attempted += 402;
    }
    drop(control);

    // ---- restarts (and, on ephemeral workloads, the other set-ups) -----
    let mut restarts = Vec::new();
    let mut child = child;
    // A durable restart takes a tenth of an ephemeral one, so it can
    // afford five times the repetitions.
    let restart_reps = if shape.durable { 5 * reps } else { reps };
    for _ in 0..restart_reps {
        child.kill();
        let mut next = Child::spawn(&flags)?;
        if shape.durable {
            // True recovery: snapshot + journal tail + segment re-attach,
            // then the pre-kill verdicts must still be served.
            restarts.push(next.wait_ready()?.as_secs_f64());
            let again = verify::served_bodies(
                &mut next.client(),
                &sample[..RESTART_SAMPLE.min(sample.len())],
            )?;
            attempted += again.len() as u64;
            let differing = again
                .iter()
                .zip(&served)
                .filter(|(a, b)| verify::without_provenance(a) != verify::without_provenance(b))
                .count();
            if differing > 0 {
                checks.push(format!("{differing} verdicts changed across a SIGKILL"));
            }
        } else if setups.len() < reps {
            // Nothing survives an ephemeral restart, so this boot is also
            // the start of the next complete set-up.
            let ready = set_up(shape, opts, &flags, next)?;
            restarts.push(ready.boot_s);
            setups.push(ready.setup_s);
            rss_after_preload.push(ready.rss as f64 / (1024.0 * 1024.0));
            attempted += ready.preload.attempted;
            failed += ready.preload.failed;
            next = ready.child;
        } else {
            restarts.push(next.wait_ready()?.as_secs_f64());
        }
        child = next;
    }
    child.kill();
    let mut extra = 1;
    while setups.len() < reps {
        // Durable set-ups need fresh directories.
        let dir = run_dir.join(format!("state-{extra}"));
        extra += 1;
        let flags = shape.child_flags(&dir);
        let ready = set_up(shape, opts, &flags, Child::spawn(&flags)?)?;
        setups.push(ready.setup_s);
        rss_after_preload.push(ready.rss as f64 / (1024.0 * 1024.0));
        attempted += ready.preload.attempted;
        failed += ready.preload.failed;
        ready.child.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }

    layer.push(Metric {
        name: "bench.restart_s",
        value: est::median(&restarts),
        n: restarts.len() as u64,
    });

    // ---- guards ----------------------------------------------------------
    // On the gated metrics: these fail the run.
    if calibration_misses > 0.0 {
        guards.push(format!("hp-stats.misses_in_window = {calibration_misses}"));
    }
    // Every workload reads only servers written since their last read.
    if cache_hit_ratio > 0.01 {
        guards.push(format!(
            "hp-service.cache_hit_ratio {cache_hit_ratio:.4} > 0.01 on first reads"
        ));
    }
    // On the window: these void its ungated numbers, not the run.
    let mut window_guards: Vec<String> = Vec::new();
    let (low, high) = shape.utilization_band;
    if !(low..=high).contains(&utilization) {
        window_guards.push(format!(
            "hp-service.shard_utilization {utilization:.3} outside [{low}, {high}]"
        ));
    }
    if closed && drain_s > DRAIN_LIMIT * elapsed {
        window_guards.push(format!(
            "drain {drain_s:.4} s is more than {} % of the {elapsed:.2} s window",
            DRAIN_LIMIT * 100.0
        ));
    }
    if late_ratio > LATE_LIMIT {
        window_guards.push(format!(
            "hp-load.late_send_ratio {late_ratio:.4} > {LATE_LIMIT}"
        ));
    }
    if gen_share > GENERATOR_LIMIT {
        window_guards.push(format!(
            "generator took {:.1} % of the per-feedback wall",
            gen_share * 100.0
        ));
    }
    layer.push(Metric {
        name: "bench.window_guards_tripped",
        value: window_guards.len() as f64,
        n: 4,
    });

    // ---- traced extras -----------------------------------------------------
    let assess_p50 = est::percentile(&mut assess_ms, 0.5);
    if opts.traced {
        let scratch = run_dir.join("kernels");
        std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
        // Kernels always run the default test configuration, whatever the
        // workload (tiering caps the suffix sweep at the horizon).
        let (plain, _) = crate::child::configs_from_flags(&["--calibration-surface".to_string()])?;
        layer.extend(layers::kernels(
            &Reference::build(&plain, &cache)?,
            &scratch,
            &cache,
        )?);
        let replay_dir = run_dir.join("replay");
        std::fs::create_dir_all(&replay_dir).map_err(|e| e.to_string())?;
        let outcome = replay::run(shape, opts.seed, &reference, &replay_dir, &cache)?;
        let span_file = opts.out.join(format!("{}-spans.json", shape.name));
        std::fs::write(&span_file, replay::spans_json(&outcome.spans))
            .map_err(|e| format!("write {}: {e}", span_file.display()))?;
        let assess_self_us = outcome
            .metrics
            .iter()
            .find(|m| m.name == "bench.replay_assess_self_us")
            .map_or(0.0, |m| m.value);
        layer.push(Metric {
            name: "bench.unattributed_share",
            value: if assess_p50 > 0.0 {
                1.0 - assess_self_us / (assess_p50 * 1e3)
            } else {
                0.0
            },
            n: assess_ms.len() as u64,
        });
        layer.extend(outcome.metrics);
    }

    layer.push(Metric {
        name: "bench.error_ratio",
        value: failed as f64 / attempted.max(1) as f64,
        n: attempted,
    });
    let end_to_end = if opts.traced {
        Vec::new()
    } else {
        vec![
            Metric {
                name: "setup_s",
                value: est::median(&setups),
                n: setups.len() as u64,
            },
            Metric {
                name: "rss_after_preload_mb",
                // The lowest of the set-ups: the data is fixed, and what
                // differs between them is allocator slack, which only adds.
                value: rss_after_preload.iter().copied().fold(f64::MAX, f64::min),
                n: rss_after_preload.len() as u64,
            },
        ]
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(RunReport {
        workload: shape.name,
        correct: checks.is_empty(),
        attempted,
        failed,
        end_to_end,
        per_layer: layer,
        check_failures: checks,
        guard_failures: guards,
        window_guards,
    })
}
