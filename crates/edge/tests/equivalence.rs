//! End-to-end equivalence: a verdict served over the socket must be
//! **bit-identical** to the offline `TwoPhaseAssessor` on the same
//! history — same verdict variant, same trust bits, and on the traced
//! route the same audit record byte for byte. The wire format carries raw
//! IEEE-754 bits (`trust_bits`) precisely so this suite can check equality
//! without a lossy decimal round-trip.

mod support;

use hp_core::twophase::Assessment;
use hp_core::{ServerId, TransactionHistory};
use hp_edge::{wire, EdgeConfig};
use hp_service::replay::{restamp, OfflineReference};
use hp_service::{AssessmentTrace, TracedAssessment};
use hp_sim::workload;
use std::sync::Arc;
use support::{boot, fast_service_config, TestClient};

fn verdict_name(assessment: &Assessment) -> &'static str {
    match assessment {
        Assessment::Accepted { .. } => "accepted",
        Assessment::Rejected { .. } => "rejected",
        Assessment::NeedsReview { .. } => "needs_review",
    }
}

/// Ingests `history` for `server` through the socket in small batches.
fn ingest_over_socket(client: &mut TestClient, history: &TransactionHistory, server: ServerId) {
    let feedbacks = restamp(history, server);
    for chunk in feedbacks.chunks(97) {
        let mut body = String::new();
        for feedback in chunk {
            wire::render_feedback_line(&mut body, feedback);
        }
        let (status, response) = client.post("/ingest", body.as_bytes());
        assert_eq!(status, 200, "{response}");
        assert_eq!(
            wire::json_u64(&response, "accepted"),
            Some(chunk.len() as u64)
        );
    }
}

/// Asserts one socket-served body matches the offline verdict bit-for-bit.
fn assert_matches_offline(body: &str, offline: &Assessment, context: &str) {
    assert_eq!(
        wire::json_str(body, "verdict"),
        Some(verdict_name(offline)),
        "{context}: verdict mismatch: {body}"
    );
    match offline.trust() {
        Some(trust) => {
            let served = wire::json_f64_bits(body, "trust")
                .unwrap_or_else(|| panic!("{context}: no trust bits in {body}"));
            assert_eq!(
                served.to_bits(),
                trust.value().to_bits(),
                "{context}: trust bits differ: served {served}, offline {}",
                trust.value()
            );
        }
        None => assert!(
            !body.contains("\"trust\""),
            "{context}: rejection must carry no trust: {body}"
        ),
    }
}

#[test]
fn socket_verdicts_are_bit_identical_to_the_offline_assessor() {
    let service_config = fast_service_config();
    let reference = OfflineReference::from_config(&service_config).expect("reference");
    let (edge, addr) = boot(service_config, EdgeConfig::default().with_workers(2));
    let mut client = TestClient::connect(addr);

    // The paper's populations: honest at two qualities, a hibernating
    // attacker, a windowed periodic attacker, and a colluder-inflated
    // history. Server ids spread across both shards.
    let cases: Vec<(&str, TransactionHistory)> = vec![
        ("honest p=0.9", workload::honest_history(400, 0.9, 11)),
        ("honest p=0.6", workload::honest_history(350, 0.6, 12)),
        ("short honest", workload::honest_history(8, 0.9, 13)),
        (
            "hibernating",
            workload::hibernating_history(300, 0.9, 80, 14),
        ),
        ("periodic", workload::periodic_history(400, 20, 0.3, 15)),
        (
            "colluding",
            workload::colluding_history(200, 3, 150, 0.9, 16),
        ),
    ];

    let mut servers = Vec::new();
    for (idx, (label, history)) in cases.iter().enumerate() {
        let server = ServerId::new(1_000 + idx as u64);
        ingest_over_socket(&mut client, history, server);
        servers.push((server, *label, reference.assess(history).expect("offline")));
    }

    for (server, label, offline) in &servers {
        // Single assess.
        let (status, body) = client.get(&format!("/assess/{}", server.value()));
        assert_eq!(status, 200, "{label}: {body}");
        assert_matches_offline(&body, offline, label);

        // Traced assess serves the same verdict with provenance.
        let (status, traced) = client.get(&format!("/assess_traced/{}", server.value()));
        assert_eq!(status, 200, "{label}: {traced}");
        assert_matches_offline(&traced, offline, &format!("{label} (traced)"));
        // The whole audit record — both counts, the binding suffix, the
        // p̂ / distance / threshold / margin bits — is what the offline
        // report gives; only the cache flag is the server's to say.
        let from_cache = traced.contains("\"from_cache\":true");
        let expected = wire::render_traced(&TracedAssessment {
            assessment: Arc::new(offline.clone()),
            trace: AssessmentTrace::from_assessment(*server, offline, from_cache),
        });
        assert_eq!(traced, expected, "{label}");
    }

    // Batch assess: one request, every server, the same bits.
    let batch_body: String = servers
        .iter()
        .map(|(s, _, _)| format!("{}\n", s.value()))
        .collect();
    let (status, batch) = client.post("/assess", batch_body.as_bytes());
    assert_eq!(status, 200, "{batch}");
    for (server, label, offline) in &servers {
        let marker = format!("\"server\":{}", server.value());
        let start = batch
            .find(&marker)
            .unwrap_or_else(|| panic!("{label} missing: {batch}"));
        let end = batch[start..]
            .find('}')
            .map_or(batch.len(), |e| start + e + 1);
        assert_matches_offline(&batch[start - 1..end], offline, &format!("{label} (batch)"));
    }
    edge.drain();
}

#[test]
fn incremental_socket_ingest_tracks_the_growing_history() {
    // Equivalence must hold at every growth step, not just at the end:
    // ingest a history in stages and cross-check after each.
    let service_config = fast_service_config().with_shards(1);
    let reference = OfflineReference::from_config(&service_config).expect("reference");
    let (edge, addr) = boot(service_config, EdgeConfig::default().with_workers(1));
    let mut client = TestClient::connect(addr);

    let full = workload::hibernating_history(250, 0.9, 60, 21);
    let server = ServerId::new(42);
    let feedbacks = restamp(&full, server);
    let mut prefix = TransactionHistory::new();
    for (step, chunk) in feedbacks.chunks(62).enumerate() {
        let mut body = String::new();
        for feedback in chunk {
            wire::render_feedback_line(&mut body, feedback);
            prefix.push(*feedback);
        }
        assert_eq!(client.post("/ingest", body.as_bytes()).0, 200);
        let offline = reference.assess(&prefix).expect("offline");
        let (status, served) = client.get("/assess/42");
        assert_eq!(status, 200, "step {step}: {served}");
        assert_matches_offline(&served, &offline, &format!("step {step}"));
    }
    edge.drain();
}
