//! End-to-end observability through the socket: trace IDs propagate
//! and echo, span trees resolve over `/debug/trace/{id}` and account
//! for client-observed latency, the merged `/metrics` exposition stays
//! lint-clean with the new families present, and `/version` reports
//! build + service identity.

mod support;

use hp_edge::{wire, EdgeConfig};
use hp_service::obs::{lint_catalogue, lint_prometheus, Family, SloMonitor, METRIC_TABLE};
use std::time::Instant;
use support::{boot, boot_default, fast_service_config, response_header, TestClient};

#[test]
fn trace_ids_echo_and_resolve_to_span_trees() {
    let (edge, addr) = boot_default();
    let mut client = TestClient::connect(addr);
    assert_eq!(
        client.post("/ingest", b"0,5,1,+\n1,5,2,+\n2,5,3,-\n").0,
        200
    );

    // A client-supplied trace ID wins and is echoed back zero-padded.
    let (status, head, body) =
        client.request_with_headers("GET", "/assess/5", &[("x-hp-trace", "feedcafe")], b"");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        response_header(&head, "x-hp-trace").as_deref(),
        Some("00000000feedcafe"),
        "trace echo missing from {head:?}"
    );

    // The span tree is findable by that ID and attributes the request
    // across the pipeline stages.
    let (status, tree) = client.get("/debug/trace/feedcafe");
    assert_eq!(status, 200, "{tree}");
    assert!(tree.contains("\"trace\":\"00000000feedcafe\""), "{tree}");
    assert_eq!(wire::json_str(&tree, "endpoint"), Some("/assess"));
    for stage in ["edge_read", "queue_wait", "compute", "write"] {
        assert!(
            tree.contains(&format!("\"name\":\"{stage}\"")),
            "missing {stage}: {tree}"
        );
    }
    // The tree's detail carries verdict provenance.
    let detail = wire::json_str(&tree, "detail").expect("tree detail");
    assert!(detail.contains("verdict="), "{detail}");
    assert!(detail.contains("cache_hit="), "{detail}");

    // The slow-request capture lists the same tree under its route.
    let (status, slow) = client.get("/debug/slow");
    assert_eq!(status, 200);
    assert!(slow.contains("\"endpoint\":\"/assess\""), "{slow}");
    assert!(slow.contains("00000000feedcafe"), "{slow}");
    edge.drain();
}

#[test]
fn span_stage_sum_accounts_for_client_observed_latency() {
    let (edge, addr) = boot_default();
    let mut client = TestClient::connect(addr);
    assert_eq!(client.post("/ingest", b"0,8,1,+\n1,8,2,+\n").0, 200);

    // Time the traced assess from the client's side of the socket.
    let started = Instant::now();
    let (status, _head, body) =
        client.request_with_headers("GET", "/assess/8", &[("x-hp-trace", "abc123")], b"");
    let client_observed_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(status, 200, "{body}");

    let (status, tree) = client.get("/debug/trace/abc123");
    assert_eq!(status, 200, "{tree}");
    let total_ns = wire::json_u64(&tree, "total_ns").expect("total_ns");
    let stage_sum_ns = wire::json_u64(&tree, "stage_sum_ns").expect("stage_sum_ns");

    // The tree's total must not exceed what the client saw (the client
    // window brackets the server window), and the recorded stages must
    // account for nearly all of it: the only untimed gaps are a few
    // instants captured between adjacent stages.
    assert!(
        total_ns <= client_observed_ns,
        "span total {total_ns}ns exceeds client-observed {client_observed_ns}ns"
    );
    let unattributed = total_ns.saturating_sub(stage_sum_ns);
    let slack_ns = 250_000_000u64.max(total_ns / 5);
    assert!(
        unattributed <= slack_ns,
        "stages sum to {stage_sum_ns}ns of a {total_ns}ns tree \
         ({unattributed}ns unattributed, slack {slack_ns}ns): {tree}"
    );
    edge.drain();
}

#[test]
fn untraced_requests_get_generated_ids_that_resolve() {
    let (edge, addr) = boot_default();
    let mut client = TestClient::connect(addr);
    assert_eq!(client.post("/ingest", b"0,3,1,+\n").0, 200);

    let (status, head, body) = client.request_with_headers("GET", "/assess/3", &[], b"");
    assert_eq!(status, 200, "{body}");
    let trace = response_header(&head, "x-hp-trace").expect("generated trace echoed");
    assert_eq!(trace.len(), 16, "zero-padded hex id: {trace}");

    let (status, tree) = client.get(&format!("/debug/trace/{trace}"));
    assert_eq!(status, 200, "{tree}");
    assert!(tree.contains(&format!("\"trace\":\"{trace}\"")), "{tree}");

    // Non-service routes are never traced: no echo on /metrics.
    let (_, head, _) = client.request_with_headers("GET", "/metrics", &[], b"");
    assert!(response_header(&head, "x-hp-trace").is_none());
    edge.drain();
}

#[test]
fn merged_exposition_is_lint_clean_with_span_families() {
    let (edge, addr) = boot_default();
    let mut client = TestClient::connect(addr);
    assert_eq!(client.post("/ingest", b"0,4,1,+\n1,4,2,+\n").0, 200);
    let (status, _head, body) =
        client.request_with_headers("GET", "/assess/4", &[("x-hp-trace", "beef")], b"");
    assert_eq!(status, 200, "{body}");

    let (status, metrics) = client.get("/metrics");
    assert_eq!(status, 200);

    // The merged service + edge + SLO exposition parses clean under the
    // promtool-style lint: no duplicate families, ordered buckets, and
    // consistent sums.
    let problems = lint_prometheus(&metrics);
    assert!(problems.is_empty(), "exposition lint: {problems:?}");

    // What the socket serves is the three tables and nothing else: the
    // service's metric table, the edge's families and the SLO monitor's,
    // every row with its HELP, TYPE and a sample — build identity of
    // both layers and the span-store counters among them.
    let service = METRIC_TABLE.iter().map(|row| row.family);
    let edge_side = hp_edge::metrics::FAMILIES
        .into_iter()
        .chain(SloMonitor::FAMILIES);
    let catalogue: Vec<Family> = service.chain(edge_side).collect();
    let problems = lint_catalogue(&metrics, &catalogue);
    assert!(
        problems.is_empty(),
        "tables vs exposition: {problems:?}\n{metrics}"
    );

    // Queue-wait attribution per shard (tentpole acceptance).
    assert!(
        metrics.contains("hp_shard_queue_wait_seconds_bucket{shard=\"0\""),
        "per-shard queue-wait histogram missing"
    );
    assert!(metrics.contains("hp_shard_utilization{shard=\"0\"}"));
    // Per-route edge latency with an exemplar linking back to the trace.
    assert!(metrics.contains("hp_edge_request_duration_seconds_bucket{route=\"/assess\""));
    assert!(
        metrics.contains("trace_id=\"000000000000beef\""),
        "no exemplar for the traced assess in the exposition"
    );
    // SLO burn rates per objective and window.
    assert!(metrics.contains("hp_slo_burn_rate{objective=\"assess_latency\",window=\"5m\"}"));
    edge.drain();
}

#[test]
fn disabled_spans_still_echo_client_ids_but_record_nothing() {
    let (edge, addr) = boot(
        fast_service_config(),
        EdgeConfig::default().with_workers(2).with_spans(false),
    );
    let mut client = TestClient::connect(addr);
    assert_eq!(client.post("/ingest", b"0,6,1,+\n").0, 200);

    // A client trace still rides through and echoes (correlation works
    // even with capture off)...
    let (status, head, _body) =
        client.request_with_headers("GET", "/assess/6", &[("x-hp-trace", "aa55")], b"");
    assert_eq!(status, 200);
    assert_eq!(
        response_header(&head, "x-hp-trace").as_deref(),
        Some("000000000000aa55")
    );

    // ...but no tree is captured, and no IDs are generated for untraced
    // requests.
    let (status, body) = client.get("/debug/trace/aa55");
    assert_eq!(status, 404, "{body}");
    let (_, head, _) = client.request_with_headers("GET", "/assess/6", &[], b"");
    assert!(response_header(&head, "x-hp-trace").is_none());

    let (_, metrics) = client.get("/metrics");
    assert!(
        metrics.contains("hp_edge_spans_recorded_total 0"),
        "span store must stay empty"
    );
    // Route latency histograms keep working with spans off.
    assert!(metrics.contains("hp_edge_request_duration_seconds_bucket{route=\"/assess\""));
    edge.drain();
}

#[test]
fn debug_trace_rejects_malformed_and_unknown_ids() {
    let (edge, addr) = boot_default();
    let mut client = TestClient::connect(addr);

    let (status, body) = client.get("/debug/trace/banana");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_trace_id"), "{body}");
    let (status, _) = client.get("/debug/trace/0");
    assert_eq!(status, 400, "the zero id is reserved for 'untraced'");
    let (status, body) = client.get("/debug/trace/abcdef0123456789");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("trace_not_found"), "{body}");
    edge.drain();
}

#[test]
fn version_reports_build_and_service_identity() {
    let (edge, addr) = boot_default();
    let mut client = TestClient::connect(addr);
    let (status, body) = client.get("/version");
    assert_eq!(status, 200, "{body}");
    assert_eq!(wire::json_str(&body, "name"), Some("hp-edge"));
    assert_eq!(
        wire::json_str(&body, "version"),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(wire::json_str(&body, "git").is_some(), "{body}");
    assert_eq!(wire::json_str(&body, "state"), Some("ready"));
    assert!(wire::json_str(&body, "trust").is_some(), "{body}");
    assert_eq!(wire::json_u64(&body, "shards"), Some(2), "{body}");
    edge.drain();
}
