//! Backpressure and fault-injection through the socket: shedding maps
//! to `429` with exact accounting, worker panics behind the edge never
//! wedge it, and `/metrics` agrees with what clients observed.

mod support;

use hp_edge::{wire, EdgeConfig};
use hp_service::{Durability, FaultPlan, FsyncPolicy, IngestPolicy};
use std::time::Duration;
use support::{boot, fast_service_config, TestClient};

/// Sums every sample of one per-shard counter in a Prometheus
/// exposition.
fn prom_sum(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(name) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

#[test]
fn shedding_returns_429_with_exact_accounting() {
    // One shard whose full queue sheds at once; a delayed assess stalls
    // the worker so ingests pile up deterministically.
    let service_config = fast_service_config()
        .with_shards(1)
        .with_ingest_policy(IngestPolicy::TryFor(Duration::ZERO))
        .with_fault_plan(FaultPlan::default().with_assess_delay(Duration::from_secs(2)));
    let (edge, addr) = boot(service_config, EdgeConfig::default().with_workers(4));

    // Seed the server, then stall the shard with an assess on its own
    // connection (the edge worker serving it blocks; others keep going).
    let mut seeder = TestClient::connect(addr);
    assert_eq!(seeder.post("/ingest", b"0,5,1,+\n").0, 200);
    let stall = std::thread::spawn(move || {
        let mut conn = TestClient::connect(addr);
        conn.get("/assess/5")
    });
    std::thread::sleep(Duration::from_millis(100));

    // Flood while the worker sleeps: the queue holds 1024 batches, the
    // rest are shed and answered 429 with the exact split.
    let mut sent = 0u64;
    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut saw_429 = false;
    for i in 0..1032u64 {
        let body = format!("{},5,{},+\n{},5,{},-\n", 10 + 2 * i, i, 11 + 2 * i, i);
        let (status, response) = seeder.post("/ingest", body.as_bytes());
        sent += 2;
        let a = wire::json_u64(&response, "accepted").expect("accepted field");
        let s = wire::json_u64(&response, "shed").expect("shed field");
        assert_eq!(a + s, 2, "every feedback accounted: {response}");
        match status {
            200 => assert_eq!(s, 0, "200 must mean nothing shed: {response}"),
            429 => {
                assert!(s > 0, "429 must mean something shed: {response}");
                saw_429 = true;
            }
            other => panic!("unexpected status {other}: {response}"),
        }
        accepted += a;
        shed += s;
    }
    assert!(saw_429, "the flood never tripped shedding");
    assert_eq!(accepted + shed, sent);

    let (status, _) = stall.join().expect("stalled assess thread");
    assert_eq!(status, 200);

    // Quiesce, then the exposition must match the client's ledger
    // exactly (+1 for the seed feedback).
    std::thread::sleep(Duration::from_millis(300));
    let (_, metrics) = seeder.get("/metrics");
    assert_eq!(
        prom_sum(&metrics, "hp_feedbacks_ingested_total"),
        accepted + 1
    );
    assert_eq!(prom_sum(&metrics, "hp_feedbacks_shed_total"), shed);
    assert_eq!(
        edge.metrics().responses_with(429),
        metrics
            .lines()
            .find(|l| l.starts_with("hp_edge_responses_total{status=\"429\"}"))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap_or(0),
    );
    edge.drain();
}

#[test]
fn worker_panic_behind_the_edge_never_wedges_it() {
    // Applying feedback (7, t=3) panics the shard worker every time
    // until the supervisor quarantines it. The edge must stay fully
    // responsive throughout: the apply follows the reply, so the client sees 200,
    // the crash happens behind the channel, and the supervisor restarts
    // the worker.
    let service_config = fast_service_config()
        .with_shards(1)
        .with_fault_plan(FaultPlan::default().with_poison(7, 3));
    let (edge, addr) = boot(service_config, EdgeConfig::default().with_workers(2));

    let mut client = TestClient::connect(addr);
    let (status, _) = client.post("/ingest", b"0,7,1,+\n1,7,2,+\n2,7,3,+\n");
    assert_eq!(status, 200);
    // The poisoned record: accepted at the socket, detonates at apply.
    let (status, _) = client.post("/ingest", b"3,7,4,+\n");
    assert_eq!(status, 200);

    // The supervisor quarantines the poison and respawns the worker;
    // the edge keeps answering the whole time.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let restarts = loop {
        let (status, metrics) = client.get("/metrics");
        assert_eq!(status, 200);
        let restarts = prom_sum(&metrics, "hp_shard_restarts_total");
        if restarts > 0 && prom_sum(&metrics, "hp_quarantined_records_total") > 0 {
            break restarts;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor never recovered the shard"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(restarts >= 1);

    // Post-recovery, the same server still assesses over the socket.
    let (status, body) = client.get("/assess/7");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"server\":7"), "{body}");
    // And health reports the shard population honestly.
    let (status, body) = client.get("/healthz");
    assert_eq!(status, 200, "{body}");
    edge.drain();
}

#[test]
fn trace_ids_survive_worker_respawn_into_crash_forensics() {
    // A request whose poisoned feedback panics the shard worker keeps the
    // one ID the client saw: it is echoed, and its span tree still
    // resolves after the respawn, while `/metrics` counts the restart,
    // the quarantine and the journal the respawn replayed.
    let dir = std::env::temp_dir().join(format!("hp-edge-chaos-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service_config = fast_service_config()
        .with_shards(1)
        .with_durability(Durability::Durable {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
        })
        .with_fault_plan(FaultPlan::default().with_poison(7, 3));
    let (edge, addr) = boot(service_config, EdgeConfig::default().with_workers(2));

    let mut client = TestClient::connect(addr);
    assert_eq!(client.post("/ingest", b"0,7,1,+\n1,7,2,+\n").0, 200);
    // The poisoned record rides a traced ingest: accepted at the socket
    // (the apply follows the reply), detonates at apply behind the channel.
    let (status, head, _) =
        client.request_with_headers("POST", "/ingest", &[("x-hp-trace", "c0ffee")], b"3,7,3,+\n");
    assert_eq!(status, 200);
    assert_eq!(
        support::response_header(&head, "x-hp-trace").as_deref(),
        Some("0000000000c0ffee")
    );

    // Wait for the supervisor to respawn the worker and quarantine the
    // poison; the edge answers /metrics the whole time.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (status, metrics) = client.get("/metrics");
        assert_eq!(status, 200);
        if prom_sum(&metrics, "hp_shard_restarts_total") > 0
            && prom_sum(&metrics, "hp_quarantined_records_total") > 0
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor never recovered the shard"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Post-recovery the server still assesses, the respawn's replay of
    // the whole three-record journal is counted, and the edge's own span
    // tree for the crashing ingest is still resolvable.
    let (status, body) = client.get("/assess/7");
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = client.get("/metrics");
    assert_eq!(
        prom_sum(&metrics, "hp_replayed_records_total"),
        3,
        "{metrics}"
    );
    let (status, tree) = client.get("/debug/trace/c0ffee");
    assert_eq!(status, 200, "{tree}");
    assert!(tree.contains("\"endpoint\":\"/ingest\""), "{tree}");
    edge.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_answers_are_stamped_with_staleness_and_reason() {
    // A 300 ms assess stall against a 50 ms edge deadline forces the
    // degraded path: the edge must serve the last published verdict,
    // stamped degraded with version provenance, not an error.
    let service_config = fast_service_config()
        .with_shards(1)
        .with_fault_plan(FaultPlan::default().with_assess_delay(Duration::from_millis(300)));
    let (edge, addr) = boot(
        service_config,
        EdgeConfig::default()
            .with_workers(2)
            .with_assess_deadline(Some(Duration::from_millis(50))),
    );

    let mut client = TestClient::connect(addr);
    assert_eq!(
        client.post("/ingest", b"0,9,1,+\n1,9,2,+\n2,9,3,+\n").0,
        200
    );
    // First assess publishes a verdict (slow, but within the queue: the
    // edge waits out the full stall only when there is no published
    // verdict to degrade to — so this one may take the slow path).
    let (first_status, first_body) = client.get("/assess/9");
    // Either a fresh (slow) answer or 504 if nothing was published yet.
    assert!(
        first_status == 200 || first_status == 504,
        "{first_status}: {first_body}"
    );
    // Retry until a verdict exists, then degrade against it.
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let degraded_body = loop {
        let (status, body) = client.get("/assess/9");
        if status == 200 && wire::json_raw(&body, "degraded") == Some("true") {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never saw a degraded answer; last: {status} {body}"
        );
    };
    assert!(
        degraded_body.contains("\"reason\":\"deadline_exceeded\""),
        "{degraded_body}"
    );
    assert!(
        wire::json_u64(&degraded_body, "staleness").is_some(),
        "{degraded_body}"
    );
    assert!(wire::json_u64(&degraded_body, "computed_at_version").is_some());

    // The degraded ledger is visible in the exposition.
    let (_, metrics) = client.get("/metrics");
    assert!(prom_sum(&metrics, "hp_degraded_answers_total") >= 1);
    edge.drain();
}

#[test]
fn a_refused_append_answers_503_and_acks_nothing() {
    // The shard's second journal append fails part-way (a full disk):
    // that request is refused retryably, nothing of it is counted or
    // served, and the shard keeps taking the requests after it.
    let dir = std::env::temp_dir().join(format!("hp-edge-chaos-append-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service_config = fast_service_config()
        .with_shards(1)
        .with_durability(Durability::Durable {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryBatch,
        })
        .with_fault_plan(FaultPlan::default().with_append_failure(0, 2));
    let (edge, addr) = boot(service_config, EdgeConfig::default().with_workers(2));

    let mut client = TestClient::connect(addr);
    assert_eq!(client.post("/ingest", b"0,8,1,+\n1,8,2,+\n").0, 200);
    let (status, body) = client.post("/ingest", b"2,8,3,-\n3,8,4,-\n");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("append_failed"), "{body}");
    assert_eq!(client.post("/ingest", b"4,8,5,+\n").0, 200);

    let (_, metrics) = client.get("/metrics");
    assert_eq!(prom_sum(&metrics, "hp_feedbacks_ingested_total"), 3);
    assert_eq!(prom_sum(&metrics, "hp_journal_records_total"), 3);
    assert_eq!(prom_sum(&metrics, "hp_shard_restarts_total"), 0);
    edge.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
