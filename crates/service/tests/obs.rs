//! Observability integration tests: traced assessments are bit-identical
//! to untraced ones, histogram totals agree with the event counters in
//! fault-free runs, the Prometheus exposition is the metric table and
//! nothing else, and the exposition's counters tell a crash's
//! journal-before-apply story.

use hp_core::testing::BehaviorTestConfig;
use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_service::obs::{lint_catalogue, Family, LatencyPath, ShardMetric, METRIC_TABLE};
use hp_service::{ReputationService, ServiceConfig, TrustModel};
use proptest::prelude::*;

fn fast_config(shards: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(shards)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None)
}

fn feedbacks_for(server: ServerId, n: u64, bad_every: u64) -> Vec<Feedback> {
    (0..n)
        .map(|t| {
            Feedback::new(
                t,
                server,
                ClientId::new(t % 7),
                Rating::from_good(t % bad_every != 0),
            )
        })
        .collect()
}

/// The cache law: every assessment served, fresh or degraded, is one
/// cache hit or one cache miss.
fn assert_cache_law(service: &ReputationService) {
    let stats = service.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.assessments_served + stats.degraded_answers,
        "hits {} + misses {} != served {} + degraded {}",
        stats.cache_hits,
        stats.cache_misses,
        stats.assessments_served,
        stats.degraded_answers
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole bit-identity property: `assess_traced` returns the
    /// exact assessment `assess` would, on both the compute path (fresh
    /// service) and the cache path (repeat call), and the trace's
    /// statistics are lifted verbatim from the verdict's embedded report.
    #[test]
    fn traced_assessment_is_bit_identical(
        len in 60u64..400,
        bad_every in 5u64..40,
        server_id in 1u64..1000,
        weighted in any::<bool>(),
    ) {
        let server = ServerId::new(server_id);
        let mut config = fast_config(2);
        if weighted {
            config = config.with_trust(TrustModel::Weighted { lambda: 0.9 });
        }
        let feedbacks = feedbacks_for(server, len, bad_every);

        // Compute path: one service assesses untraced, an identically
        // configured one traced, over the same feedback sequence.
        let plain = ReputationService::new(config.clone()).unwrap();
        plain.ingest_batch(feedbacks.clone()).unwrap();
        let untraced = plain.assess(server).unwrap();

        let traced_svc = ReputationService::new(config).unwrap();
        traced_svc.ingest_batch(feedbacks).unwrap();
        let traced = traced_svc.assess_traced(server).unwrap();
        prop_assert_eq!(&traced.assessment, &untraced);
        prop_assert!(!traced.trace.from_cache, "first assessment computes");

        // Cache path: the repeat is answered from the versioned cache and
        // still carries the identical assessment.
        let repeat = traced_svc.assess_traced(server).unwrap();
        prop_assert_eq!(&repeat.assessment, &untraced);
        prop_assert!(repeat.trace.from_cache);

        // The trace is derived, not recomputed: margin is exactly
        // threshold − distance, and the verdict matches the variant.
        let trace = &traced.trace;
        if let (Some(d), Some(t), Some(m)) = (trace.distance, trace.threshold, trace.margin) {
            prop_assert_eq!(m, t - d, "margin must be threshold - distance, bit for bit");
        }
        prop_assert_eq!(trace.trust, untraced.trust().map(|t| t.value()));
        prop_assert_eq!(trace.server, server);
        assert_cache_law(&plain);
        assert_cache_law(&traced_svc);
    }
}

/// Fault-free invariants: every accepted feedback is measured once on the
/// ingest path, every served assessment once on the compute path, and
/// every front-end answer once end-to-end.
#[test]
fn histogram_totals_match_counters() {
    let service = ReputationService::new(fast_config(3)).unwrap();
    let servers: Vec<ServerId> = (0..12).map(ServerId::new).collect();
    let mut total = 0u64;
    for (i, &server) in servers.iter().enumerate() {
        let n = 80 + 10 * i as u64;
        total += n;
        service.ingest_batch(feedbacks_for(server, n, 13)).unwrap();
    }
    for &server in &servers {
        service.assess(server).unwrap();
    }
    let answers = service.assess_many(&servers).unwrap();
    assert_eq!(answers.len(), servers.len());

    let stats = service.stats();
    let snap = service.metrics().snapshot();
    assert_eq!(stats.ingested_feedbacks, total);
    assert_eq!(
        snap.latency(LatencyPath::IngestApply).count,
        stats.ingested_feedbacks,
        "every accepted feedback is measured enqueue-to-apply"
    );
    assert_eq!(
        snap.latency(LatencyPath::AssessCompute).count,
        stats.assessments_served,
        "every served assessment is measured in-worker"
    );
    // assess() once per server + assess_many over all of them.
    assert_eq!(
        snap.latency(LatencyPath::AssessE2e).count,
        2 * servers.len() as u64
    );
    // Per-shard blocks fold to the same totals.
    assert_eq!(stats.per_shard.len(), 3);
    assert_eq!(
        stats
            .per_shard
            .iter()
            .map(|s| s.get(ShardMetric::Ingested))
            .sum::<u64>(),
        total
    );
    assert_eq!(
        stats
            .per_shard
            .iter()
            .map(|s| s.get(ShardMetric::JournalRecords))
            .sum::<u64>(),
        stats.journal_records
    );
    assert_cache_law(&service);
}

/// The live exposition and the metric table are one set: every row is
/// served with its `HELP`, its `TYPE` and at least one sample, and every
/// family served is a row — so a family cannot be added, dropped or
/// re-described in one place only. What the table cannot know (per-shard
/// series, counts that follow the traffic) is asserted beside it.
#[test]
fn prometheus_exposition_is_the_metric_table() {
    let service = ReputationService::new(fast_config(2)).unwrap();
    let server = ServerId::new(17);
    service
        .ingest_batch(feedbacks_for(server, 200, 11))
        .unwrap();
    service.assess(server).unwrap();

    let text = service.render_prometheus();
    let catalogue: Vec<Family> = METRIC_TABLE.iter().map(|row| row.family).collect();
    let problems = lint_catalogue(&text, &catalogue);
    assert!(
        problems.is_empty(),
        "table vs exposition: {problems:?}\n{text}"
    );
    for required in [
        "hp_feedbacks_ingested_total{shard=\"0\"}",
        "hp_feedbacks_ingested_total{shard=\"1\"}",
        "hp_ingest_apply_latency_seconds_count 200",
        "hp_assess_compute_latency_seconds_count 1",
        "hp_assess_e2e_latency_seconds_count 1",
        "hp_replayed_records_total{shard=\"0\"} 0",
    ] {
        assert!(text.contains(required), "missing `{required}` in:\n{text}");
    }

    let json = service.metrics_json();
    for key in [
        "\"ingest_apply\"",
        "\"assess_e2e\"",
        "\"p99_ns\"",
        "\"totals\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    assert_cache_law(&service);
}

/// Value of an unlabeled gauge/counter line in a Prometheus exposition.
fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let (metric, value) = line.split_once(' ')?;
            (metric == name).then(|| value.parse().unwrap())
        })
        .unwrap_or_else(|| panic!("no `{name}` sample in:\n{text}"))
}

/// The calibration counters attribute every threshold to its serving
/// tier, and `calibration_readiness` reports whether the interpolated
/// surface is the one serving.
#[test]
fn calibration_metrics_and_readiness_track_the_serving_tiers() {
    // Oracle-only service: the cold assess runs Monte-Carlo row jobs and
    // records the calibration wait as its own latency path.
    let service = ReputationService::new(fast_config(1)).unwrap();
    let readiness = service.calibration_readiness();
    assert!(!readiness.surface_configured);
    assert!(!readiness.surface_ready);

    let server = ServerId::new(3);
    service
        .ingest_batch(feedbacks_for(server, 300, 13))
        .unwrap();
    service.assess(server).unwrap();
    let text = service.render_prometheus();
    for metric in [
        "hp_calibration_cache_misses_total",
        "hp_calibration_oracle_jobs_total",
        "hp_calibration_crn_row_fills_total",
        "hp_assess_calibration_latency_seconds_count",
    ] {
        assert!(
            metric_value(&text, metric) > 0.0,
            "{metric} must move on a cold oracle assess"
        );
    }
    assert!(service.calibration_readiness().cache_entries > 0);

    // A second server of the same length re-uses the filled rows.
    let other = ServerId::new(4);
    service.ingest_batch(feedbacks_for(other, 300, 17)).unwrap();
    service.assess(other).unwrap();
    let text = service.render_prometheus();
    assert!(metric_value(&text, "hp_calibration_cache_hits_total") > 0.0);

    // Surface-backed service: readiness flips and lookups land on the
    // surface tier. The generous tolerance keeps the 300-trial build
    // (noisier than the service default) within its error bound.
    let surface = hp_service::SurfaceParams {
        tolerance: 0.5,
        ..hp_service::SurfaceParams::default()
    };
    let config = ServiceConfig::default()
        .with_shards(1)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .large_k_cutoff(256)
                .calibration_surface(Some(surface))
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None);
    let service = ReputationService::new(config).unwrap();
    let readiness = service.calibration_readiness();
    assert!(readiness.surface_configured);
    assert!(readiness.surface_ready, "built surface must serve m");

    service
        .ingest_batch(feedbacks_for(server, 600, 13))
        .unwrap();
    service.assess(server).unwrap();
    let text = service.render_prometheus();
    assert!(
        metric_value(&text, "hp_calibration_surface_hits_total") > 0.0,
        "suffix rows with k >= k_min must be served by the surface"
    );
    assert_cache_law(&service);
}

/// A verdict counts its threshold lookups locally and adds them to the
/// shared counters once: the sum must still be exact — one per conclusive
/// suffix test, none lost, none doubled — with two workers on one
/// calibrator, rows below the surface, rows on it and rows past the
/// large-`k` cutoff. (`hp-stats.lookups_per_assess` in the benchmark is
/// this delta over the cache misses.)
#[test]
fn calibration_hit_counters_advance_by_one_per_conclusive_suffix_test() {
    let config = ServiceConfig::default()
        .with_shards(2)
        .with_test(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .large_k_cutoff(256)
                .calibration_surface(Some(hp_service::SurfaceParams {
                    tolerance: 0.5,
                    ..hp_service::SurfaceParams::default()
                }))
                .build()
                .unwrap(),
        )
        .with_calibration_surface(None);
    let service = ReputationService::new(config).unwrap();
    let servers: Vec<ServerId> = (1..=4).map(ServerId::new).collect();
    // 3 000 feedbacks: k runs from 300 (past the cutoff: the anchor row,
    // one lookup) through the surface's span down to 10 (below its k_min:
    // the row cache).
    for (&server, bad_every) in servers.iter().zip([7, 11, 13, 400]) {
        service
            .ingest_batch(feedbacks_for(server, 3000, bad_every))
            .unwrap();
    }
    // Cold verdicts run the row jobs for the rows below the surface.
    for (_, verdict) in service.assess_many(&servers).unwrap() {
        verdict.unwrap();
    }
    let cold = service.stats();
    assert!(cold.calibration_cache_misses > 0);

    // One more feedback each: the same rows, all warm, every verdict
    // recomputed.
    for &server in &servers {
        let next = Feedback::new(3000, server, ClientId::new(1), Rating::Positive);
        service.ingest_batch(vec![next]).unwrap();
    }
    let mut conclusive = 0u64;
    let service = &service;
    std::thread::scope(|scope| {
        let traced: Vec<_> = servers
            .iter()
            .map(|&server| scope.spawn(move || service.assess_traced(server).unwrap()))
            .collect();
        for handle in traced {
            let traced = handle.join().expect("assess thread");
            assert!(!traced.trace.from_cache);
            assert!(traced.trace.suffixes_tested > 250, "{}", traced.trace);
            conclusive += traced.trace.suffixes_tested as u64;
        }
    });
    let warm = service.stats();
    let answered = |stats: &hp_service::ServiceStats| {
        (stats.calibration_surface_hits, stats.calibration_cache_hits)
    };
    let (surface, cache) = (
        answered(&warm).0 - answered(&cold).0,
        answered(&warm).1 - answered(&cold).1,
    );
    assert_eq!(
        surface + cache,
        conclusive,
        "surface {surface} + cache {cache}"
    );
    assert!(
        surface > 0 && cache > 0,
        "both tiers served: {surface}, {cache}"
    );
    assert_eq!(warm.calibration_cache_misses, cold.calibration_cache_misses);
    assert_eq!(warm.calibration_oracle_jobs, cold.calibration_oracle_jobs);
    assert_eq!(
        warm.calibration_singleflight_waits,
        cold.calibration_singleflight_waits
    );

    // A verdict served from the versioned cache asks the calibrator nothing.
    for &server in &servers {
        assert!(service.assess_traced(server).unwrap().trace.from_cache);
    }
    assert_eq!(answered(&service.stats()), answered(&warm));
    assert_cache_law(service);
}

/// Sums every sample of one per-shard family in an exposition.
fn shard_sum(text: &str, family: &str) -> f64 {
    let samples = text
        .lines()
        .filter(|line| line.starts_with(&format!("{family}{{")));
    samples
        .map(|line| line.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

/// The write-ahead invariant as an operator reads it off `/metrics`: the
/// second ingest command dies before its first record, yet the journal
/// holds both batches, the live path applied one, and the respawn's
/// replay folds both back.
#[cfg(feature = "fault-injection")]
#[test]
fn a_crash_before_apply_replays_the_journaled_batch() {
    let dir = std::env::temp_dir().join(format!("hp-service-obs-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = fast_config(1)
        .with_durability(hp_service::Durability::Durable {
            dir: dir.clone(),
            fsync: hp_service::FsyncPolicy::Never,
        })
        .with_fault_plan(hp_service::FaultPlan::default().panic_at(0, 2));
    let service = ReputationService::new(config).unwrap();
    let server = ServerId::new(4);
    for chunk in feedbacks_for(server, 150, 9).chunks(75) {
        service.ingest_batch(chunk.to_vec()).unwrap();
    }
    service.assess(server).unwrap(); // FIFO barrier: the respawn is serving

    let text = service.render_prometheus();
    assert_eq!(shard_sum(&text, "hp_shard_restarts_total"), 1.0);
    assert_eq!(
        shard_sum(&text, "hp_journal_records_total"),
        150.0,
        "both batches journaled"
    );
    assert_eq!(
        shard_sum(&text, "hp_shard_last_apply_version"),
        75.0,
        "one applied live"
    );
    assert_eq!(
        shard_sum(&text, "hp_replayed_records_total"),
        150.0,
        "the replay folds both"
    );
    assert_eq!(service.stats().tracked_feedbacks, 150);
    assert_cache_law(&service);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a journal there is nothing to append, time or count: the
/// journal series stay exported (dashboards and the benchmark scrape
/// them) and read zero.
#[test]
fn an_ephemeral_service_reports_no_journal_activity() {
    let service = ReputationService::new(fast_config(1)).unwrap();
    let server = ServerId::new(4);
    service.ingest_batch(feedbacks_for(server, 150, 9)).unwrap();
    service.assess(server).unwrap();
    let stats = service.stats();
    assert_eq!((stats.journal_records, stats.journal_bytes), (0, 0));
    let text = service.render_prometheus();
    assert_eq!(
        metric_value(&text, "hp_journal_append_latency_seconds_count"),
        0.0
    );
    for series in ["hp_journal_records_total", "hp_journal_bytes_total"] {
        assert_eq!(shard_sum(&text, series), 0.0, "{series}");
        assert!(text.contains(series), "{series} stays exported");
    }
    assert_eq!(
        shard_sum(&text, "hp_shard_last_apply_version"),
        150.0,
        "applied all the same"
    );
    assert_cache_law(&service);
}

/// The exposition must parse clean under the promtool-style lint after
/// real traffic: HELP/TYPE before samples, monotone cumulative buckets
/// ending at `+Inf`, `_sum`/`_count` agreeing with the buckets, and no
/// family declared twice.
#[test]
fn prometheus_exposition_is_lint_clean() {
    let service = ReputationService::new(fast_config(2)).unwrap();
    for id in 0..6u64 {
        let server = ServerId::new(id);
        service.ingest_batch(feedbacks_for(server, 120, 9)).unwrap();
        service.assess(server).unwrap();
    }
    let text = service.render_prometheus();
    let problems = hp_service::obs::lint_prometheus(&text);
    assert!(problems.is_empty(), "exposition lint: {problems:?}\n{text}");
    assert_cache_law(&service);
}

/// Queue-wait attribution: traffic populates the per-shard queue-wait
/// histograms and utilization gauges, in both the exposition and
/// `ServiceStats`.
#[test]
fn queue_wait_and_utilization_cover_every_shard() {
    let service = ReputationService::new(fast_config(3)).unwrap();
    for id in 0..9u64 {
        let server = ServerId::new(id);
        service.ingest_batch(feedbacks_for(server, 60, 7)).unwrap();
        service.assess(server).unwrap();
    }
    let text = service.render_prometheus();
    for shard in 0..3 {
        assert!(
            text.contains(&format!(
                "hp_shard_queue_wait_seconds_bucket{{shard=\"{shard}\""
            )),
            "no queue-wait histogram for shard {shard}"
        );
        assert!(text.contains(&format!("hp_shard_utilization{{shard=\"{shard}\"}}")));
    }
    let snap = service.metrics().snapshot();
    assert_eq!(snap.utilizations.len(), 3);
    assert!(snap.utilizations.iter().all(|u| (0.0..=1.0).contains(u)));
    // Every served command waited in a queue at least once.
    let waits: u64 = snap.queue_waits.iter().map(|w| w.count).sum();
    assert!(waits > 0, "no queue waits recorded");
    assert_cache_law(&service);
}

/// Exemplar linking through the public API: a traced assessment leaves
/// its trace ID on the latency bucket it landed in, rendered
/// OpenMetrics-exemplar style after the bucket sample.
#[test]
fn traced_requests_leave_exemplars_on_latency_buckets() {
    let service = ReputationService::new(fast_config(1)).unwrap();
    let server = ServerId::new(3);
    service.ingest_batch(feedbacks_for(server, 90, 8)).unwrap();
    let (outcome, timings) = service.assess_observed(server, None, 0xfeed_beef).unwrap();
    assert!(matches!(outcome, hp_service::AssessOutcome::Fresh(_)));
    let t = timings.expect("fresh assessments carry stage timings");
    assert!(t.compute_ns > 0, "compute was measured");

    let text = service.render_prometheus();
    assert!(
        text.contains("trace_id=\"00000000feedbeef\""),
        "no exemplar carrying the request trace in:\n{text}"
    );
    let problems = hp_service::obs::lint_prometheus(&text);
    assert!(
        problems.is_empty(),
        "exemplars must not break the lint: {problems:?}"
    );
    assert_cache_law(&service);
}

/// Build identity is a first-class metric: version and trust-model
/// labels on a gauge, so fleet dashboards can slice by build.
#[test]
fn build_info_carries_version_and_model_labels() {
    let service = ReputationService::new(fast_config(2)).unwrap();
    let text = service.render_prometheus();
    let line = text
        .lines()
        .find(|l| l.starts_with("hp_build_info{"))
        .unwrap_or_else(|| panic!("no hp_build_info in:\n{text}"));
    assert!(line.contains("version=\""), "{line}");
    assert!(line.contains("trust=\""), "{line}");
    assert!(line.contains("shards=\"2\""), "{line}");
    assert!(line.ends_with("} 1"), "{line}");
}

/// The stage timings the shard reports are internally consistent: the
/// queue wait and compute it attributes never exceed what the caller
/// observed end-to-end for the same request.
#[test]
fn assess_timings_nest_inside_the_callers_window() {
    let service = ReputationService::new(fast_config(2)).unwrap();
    let server = ServerId::new(21);
    service
        .ingest_batch(feedbacks_for(server, 150, 11))
        .unwrap();

    let t0 = std::time::Instant::now();
    let (_, timings) = service.assess_observed(server, None, 0xabc).unwrap();
    let observed_ns = t0.elapsed().as_nanos() as u64;
    let t = timings.expect("fresh compute");
    assert!(!t.from_cache);
    assert!(
        t.queue_wait_ns + t.compute_ns <= observed_ns,
        "shard attributed {} + {} ns inside a {} ns call",
        t.queue_wait_ns,
        t.compute_ns,
        observed_ns
    );

    // The repeat answers from the versioned cache and says so.
    let (_, timings) = service.assess_observed(server, None, 0xabd).unwrap();
    assert!(timings.expect("still measured").from_cache);
    assert_cache_law(&service);
}
