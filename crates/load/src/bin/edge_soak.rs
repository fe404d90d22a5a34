//! `edge-soak`: the self-contained CI soak for the network edge.
//!
//! Boots a real `ReputationService` behind a real `EdgeServer` on an
//! ephemeral port (exercising the warming path and the persisted
//! calibration cache), replays the paper-mix population at the target
//! rate with the open-loop runner, then
//!
//! 1. cross-checks the *exact* accepted/shed accounting three ways:
//!    client-observed response bodies, `ServiceStats`, and the
//!    `/metrics` Prometheus exposition must all agree, and the
//!    exposition must count no 5xx response during the load and no
//!    protocol reject at all;
//! 2. writes the report to `experiments/out/bench_edge.json` (ignored by
//!    git) and holds the run to its SLO: accepted throughput and assess
//!    p99;
//! 3. drains the edge gracefully, persisting the calibration cache so a
//!    warm re-run skips the Monte-Carlo calibration wall.
//!
//! Any failed check exits 1 with an `edge-soak: FAIL:` line.

use hp_core::testing::BehaviorTestConfig;
use hp_edge::wire::json_u64;
use hp_edge::{EdgeConfig, EdgeServer};
use hp_load::{population::PopulationMix, report, runner, HttpClient, LoadConfig};
use hp_service::{IngestPolicy, ServiceConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// The load offered: feedbacks per second, for this many seconds.
const RATE: f64 = 120_000.0;
const SECS: f64 = 4.0;
/// The SLO: accepted feedbacks per second, and assess p99 in ms.
const MIN_INGEST_PER_SEC: f64 = 100_000.0;
const MAX_ASSESS_P99_MS: f64 = 25.0;

/// Sums every `name{…} value` sample of one metric in a Prometheus
/// exposition (the service publishes per-shard series). `name` is a
/// prefix, so `family{label="5` sums the series whose label starts so.
fn prom_sum(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(name) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

fn fail(msg: &str) -> ! {
    eprintln!("edge-soak: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments/out");
    let out_path = out_dir.join("bench_edge.json");
    let calibration_cache = out_dir.join("edge_soak_calibration.hpcal");

    // Small calibration trials keep the cold calibration wall low in CI;
    // the persisted cache makes warm re-runs skip it entirely.
    let service_config = ServiceConfig::default()
        .with_shards(4)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .build()
                .expect("static test config"),
        )
        .with_calibration_surface(None)
        .with_ingest_policy(IngestPolicy::TryFor(Duration::from_millis(50)))
        .with_calibration_cache(calibration_cache);
    let edge_config = EdgeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(8)
        .with_assess_deadline(Some(Duration::from_millis(250)));

    let boot = Instant::now();
    let edge = EdgeServer::start(service_config, edge_config).unwrap_or_else(|e| {
        fail(&format!("could not start edge: {e}"));
    });
    let addr = edge.local_addr();

    // The listener answers while warming; readiness flips /healthz to 200.
    let mut probe = HttpClient::new(addr, Duration::from_secs(10));
    let health = probe.get("/healthz").expect("warming /healthz");
    if health.status == 503 && !health.body.contains("warming") {
        fail(&format!("unexpected warming body: {}", health.body));
    }
    if !edge.wait_ready(Duration::from_secs(120)) {
        fail("edge never became ready");
    }
    let ready = probe.get("/healthz").expect("ready /healthz");
    if ready.status != 200 {
        fail(&format!(
            "ready /healthz was {}: {}",
            ready.status, ready.body
        ));
    }
    eprintln!(
        "edge-soak: ready on {addr} after {:.2}s (was {})",
        boot.elapsed().as_secs_f64(),
        health.status,
    );
    // The warming probe above may have been answered 503 by design; the
    // load must add no 5xx to what the edge counted before it.
    let errors_5xx = |exposition: &str| prom_sum(exposition, "hp_edge_responses_total{status=\"5");
    let before_5xx = errors_5xx(
        &probe
            .get("/metrics")
            .expect("/metrics before the load")
            .body,
    );

    let load = LoadConfig {
        addr,
        connections: 8,
        feedback_rate: RATE,
        batch_size: 512,
        duration: Duration::from_secs_f64(SECS),
        assess_every: 4,
        mix: PopulationMix::paper_mix(2_000, 1_000_000, 42),
    };
    eprintln!("edge-soak: offering {RATE} feedbacks/s for {SECS}s");
    let outcome = runner::run(&load);

    // Quiesce: shard queues drain asynchronously after the last request.
    let service = edge.service().expect("service after ready");
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let stats = service.stats();
        if stats.shard_queue_depths.iter().all(|&d| d == 0)
            && stats.ingested_feedbacks + stats.shed_feedbacks
                >= outcome.feedbacks_accepted + outcome.feedbacks_shed
        {
            break stats;
        }
        if Instant::now() > deadline {
            fail("shard queues never quiesced");
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    // Exact accounting, three ways.
    if stats.ingested_feedbacks != outcome.feedbacks_accepted {
        fail(&format!(
            "accepted mismatch: client saw {}, service counted {}",
            outcome.feedbacks_accepted, stats.ingested_feedbacks
        ));
    }
    if outcome.feedbacks_sent != outcome.feedbacks_accepted + outcome.feedbacks_shed {
        fail(&format!(
            "accounting leak: sent {}, accepted {} + shed {}",
            outcome.feedbacks_sent, outcome.feedbacks_accepted, outcome.feedbacks_shed
        ));
    }
    if stats.shed_feedbacks != outcome.feedbacks_shed {
        fail(&format!(
            "shed mismatch: client saw {}, service counted {}",
            outcome.feedbacks_shed, stats.shed_feedbacks
        ));
    }
    let exposition = probe.get("/metrics").expect("/metrics").body;
    let prom_ingested = prom_sum(&exposition, "hp_feedbacks_ingested_total");
    let prom_shed = prom_sum(&exposition, "hp_feedbacks_shed_total");
    if prom_ingested != outcome.feedbacks_accepted || prom_shed != outcome.feedbacks_shed {
        fail(&format!(
            "/metrics mismatch: ingested {prom_ingested} vs {}, shed {prom_shed} vs {}",
            outcome.feedbacks_accepted, outcome.feedbacks_shed
        ));
    }
    let load_5xx = errors_5xx(&exposition) - before_5xx;
    if load_5xx > 0 {
        fail(&format!(
            "{load_5xx} responses with a 5xx status during the soak"
        ));
    }
    let protocol_rejects = prom_sum(&exposition, "hp_edge_protocol_rejects_total");
    if protocol_rejects > 0 {
        fail(&format!(
            "{protocol_rejects} requests refused by a protocol defense"
        ));
    }
    let prom_degraded = prom_sum(&exposition, "hp_degraded_answers_total");
    if prom_degraded < outcome.assess_degraded {
        fail(&format!(
            "degraded undercount: client saw {}, /metrics has {prom_degraded}",
            outcome.assess_degraded
        ));
    }
    if outcome.errors > 0 {
        fail(&format!(
            "{} request errors during the soak",
            outcome.errors
        ));
    }

    // Tracing acceptance. The soak traffic must leave (a) per-shard
    // queue-wait attribution, (b) at least one exemplar trace ID on an
    // assess-latency bucket that resolves to a span tree, and (c) a
    // pinned-trace span tree whose stage durations fit inside the
    // client-observed latency.
    if !exposition.contains("hp_shard_queue_wait_seconds_bucket{shard=\"0\"") {
        fail("no per-shard queue-wait histogram in /metrics");
    }
    // Take the exemplar from the last matching bucket line (+Inf): every
    // assess updates it, so its exemplar is the most recent assess served
    // and cannot have aged out of the bounded recent ring. A low bucket's
    // exemplar may be the last request that happened to be that fast —
    // possibly thousands of evictions ago.
    let exemplar_id = exposition
        .lines()
        .filter(|l| l.starts_with("hp_edge_request_duration_seconds_bucket{route=\"/assess\""))
        .filter_map(|l| {
            let (_, rest) = l.split_once("# {trace_id=\"")?;
            rest.split_once('"').map(|(id, _)| id.to_string())
        })
        .next_back()
        .unwrap_or_else(|| fail("no exemplar trace ID on any /assess latency bucket"));
    let resolved = probe
        .get(&format!("/debug/trace/{exemplar_id}"))
        .expect("/debug/trace");
    if resolved.status != 200
        || !resolved
            .body
            .contains(&format!("\"trace\":\"{exemplar_id}\""))
    {
        fail(&format!(
            "exemplar {exemplar_id} did not resolve: {} {}",
            resolved.status, resolved.body
        ));
    }

    let t0 = Instant::now();
    let traced = probe
        .request_with_headers("GET", "/assess/1", &[("x-hp-trace", "50aced")], b"")
        .expect("traced assess");
    let observed_ns = t0.elapsed().as_nanos() as u64;
    if traced.status != 200 {
        fail(&format!(
            "traced assess was {}: {}",
            traced.status, traced.body
        ));
    }
    let tree = probe
        .get("/debug/trace/50aced")
        .expect("pinned /debug/trace")
        .expect_status(200)
        .unwrap_or_else(|e| fail(&format!("pinned trace: {e}")));
    let total_ns = json_u64(&tree, "total_ns")
        .unwrap_or_else(|| fail(&format!("no total_ns in span tree: {tree}")));
    let stage_sum_ns = json_u64(&tree, "stage_sum_ns")
        .unwrap_or_else(|| fail(&format!("no stage_sum_ns in span tree: {tree}")));
    if total_ns > observed_ns {
        fail(&format!(
            "span tree claims {total_ns} ns but the client observed only {observed_ns} ns"
        ));
    }
    if stage_sum_ns > total_ns {
        fail(&format!(
            "stage sum {stage_sum_ns} ns exceeds span total {total_ns} ns"
        ));
    }
    eprintln!(
        "edge-soak: tracing OK — exemplar {exemplar_id} resolved; pinned trace 000000000050aced: \
         client {:.3} ms >= span total {:.3} ms >= stage sum {:.3} ms \
         ({:.3} ms unattributed inside the tree)",
        observed_ns as f64 / 1e6,
        total_ns as f64 / 1e6,
        stage_sum_ns as f64 / 1e6,
        (total_ns - stage_sum_ns) as f64 / 1e6,
    );

    report::write(&out_path, &load, &outcome)
        .unwrap_or_else(|e| fail(&format!("could not write report: {e}")));
    let throughput = outcome.accepted_rate();
    let p99_ms = outcome.assess_latency.quantile_ns(0.99) as f64 / 1e6;
    println!("gate: accepted feedbacks/s {throughput:.0} >= {MIN_INGEST_PER_SEC}");
    println!("gate: assess p99 ms {p99_ms:.2} <= {MAX_ASSESS_P99_MS}");
    if throughput < MIN_INGEST_PER_SEC {
        fail(&format!("throughput {throughput:.0}/s < SLO floor"));
    }
    if p99_ms > MAX_ASSESS_P99_MS {
        fail(&format!("assess p99 {p99_ms:.2} ms > SLO ceiling"));
    }
    eprintln!(
        "edge-soak: OK — {} shed, {} degraded, all exactly accounted (report: {})",
        outcome.feedbacks_shed,
        outcome.assess_degraded,
        out_path.display(),
    );

    drop(probe);
    drop(service);
    edge.drain();
}
