//! Kill-9 soak: SIGKILL the real `hp-edge` binary mid-ingest, restart
//! it on the same journal/snapshot directory, and prove the recovered
//! service (a) becomes ready within a bound and (b) serves verdicts
//! bit-identical to an offline fold of the journal — the single source
//! of truth for what survived the kill.
//!
//! Run explicitly (CI does, release mode):
//!
//! ```text
//! cargo test --release -p hp-edge --test kill9 -- --ignored
//! ```

mod support;

use hp_core::twophase::Assessment;
use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory};
use hp_edge::wire;
use hp_service::journal::read_journal;
use hp_service::replay::OfflineReference;
use hp_service::ServiceConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use support::TestClient;

const SHARDS: usize = 2;
const SERVERS: u64 = 32;
/// Restart must reach ready well inside this bound: with snapshots the
/// recovery cost is O(journal tail), not O(history), and the default
/// calibration is served from the binary.
const READY_BOUND: Duration = Duration::from_secs(30);

/// Spawns `hp-edge` on an ephemeral port against `dir` and returns the
/// child plus the address it printed.
fn spawn_edge(dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hp-edge"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--shards",
            &SHARDS.to_string(),
            "--calibration-cache",
            dir.join("calibration.hpcal").to_str().unwrap(),
            "--journal-dir",
            dir.to_str().unwrap(),
            "--fsync",
            "never",
            "--snapshot-interval-records",
            "20000",
            // The soak recomputes ground truth from the full journal, so
            // checkpoints must not discard the prefix.
            "--snapshot-no-compact",
            "--checkpoint-interval-ms",
            "100",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hp-edge");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("hp-edge printed nothing")
        .expect("read hp-edge stdout");
    let addr = first
        .strip_prefix("hp-edge listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|raw| raw.parse().ok())
        .unwrap_or_else(|| panic!("unexpected banner: {first:?}"));
    (child, addr)
}

/// Polls `/healthz` until `status` is `ready`, panicking past `bound`.
fn wait_ready(addr: SocketAddr, bound: Duration) -> Duration {
    let t0 = Instant::now();
    loop {
        // Fresh connection per poll: the edge may not be accepting yet.
        if let Ok(stream) = TcpStream::connect(addr) {
            drop(stream);
            let (_status, body) = TestClient::connect(addr).get("/healthz");
            if wire::json_str(&body, "status") == Some("ready") {
                return t0.elapsed();
            }
        }
        assert!(t0.elapsed() < bound, "edge not ready within {bound:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The deterministic soak workload: `SERVERS` interleaved streams.
fn soak_batch(start_t: u64, len: usize) -> Vec<Feedback> {
    (0..len as u64)
        .map(|i| {
            let t = start_t + i;
            Feedback::new(
                t,
                ServerId::new(t % SERVERS),
                ClientId::new(t % 101),
                Rating::from_good(!t.is_multiple_of(19)),
            )
        })
        .collect()
}

/// Everything both shard journals hold, replayed offline into
/// per-server verdicts — the ground truth a recovered service must
/// match bit-for-bit. Also returns every journaled record, in time order.
fn offline_verdicts(dir: &Path) -> (Vec<(ServerId, Assessment)>, Vec<Feedback>) {
    let config = ServiceConfig::default().with_shards(SHARDS);
    let reference = OfflineReference::from_config(&config).expect("reference builds");
    let mut histories: std::collections::HashMap<ServerId, TransactionHistory> =
        std::collections::HashMap::new();
    let mut journaled = Vec::new();
    for shard in 0..SHARDS {
        let path = dir.join(format!("shard-{shard}.hpj"));
        let recovered =
            read_journal(&path, Some((shard as u32, SHARDS as u32))).expect("read journal");
        for feedback in recovered.feedbacks {
            histories.entry(feedback.server).or_default().push(feedback);
            journaled.push(feedback);
        }
    }
    journaled.sort_by_key(|f| f.time);
    let mut verdicts: Vec<(ServerId, Assessment)> = histories
        .into_iter()
        .map(|(server, history)| (server, reference.assess(&history).expect("offline assess")))
        .collect();
    verdicts.sort_by_key(|(server, _)| server.value());
    (verdicts, journaled)
}

fn verdict_name(assessment: &Assessment) -> &'static str {
    match assessment {
        Assessment::Accepted { .. } => "accepted",
        Assessment::Rejected { .. } => "rejected",
        Assessment::NeedsReview { .. } => "needs_review",
    }
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hp-edge-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
#[ignore = "process-level soak; run explicitly (CI runs it in release)"]
fn sigkill_mid_ingest_recovers_bit_identical_within_bound() {
    let dir = scratch_dir();

    // First life: boot, ingest steadily, then SIGKILL with a request
    // still in flight.
    let (mut child, addr) = spawn_edge(&dir);
    // No bound asserted on the first boot.
    wait_ready(addr, Duration::from_secs(120));

    let mut client = TestClient::connect(addr);
    let batch_len = 2_000usize;
    let batches = 60usize;
    let mut t = 0u64;
    for i in 0..batches {
        let mut body = String::new();
        for feedback in soak_batch(t, batch_len) {
            wire::render_feedback_line(&mut body, &feedback);
        }
        t += batch_len as u64;
        if i + 1 < batches {
            let (status, reply) = client.post("/ingest", body.as_bytes());
            assert_eq!(status, 200, "ingest refused: {reply}");
            assert_eq!(wire::json_u64(&reply, "shed"), Some(0));
        } else {
            // Final batch: fire the request and SIGKILL without reading
            // the response — the crash lands mid-ingest.
            let head = format!(
                "POST /ingest HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(head.as_bytes()).unwrap();
            raw.write_all(body.as_bytes()).unwrap();
        }
    }
    child.kill().expect("SIGKILL hp-edge");
    let _ = child.wait();

    // The journal (what reached the kernel before the kill) is the
    // truth; with `--fsync never` a SIGKILL keeps the page cache.
    let (truth, journaled) = offline_verdicts(&dir);
    assert!(!truth.is_empty(), "no records survived — soak is vacuous");
    // A 200 means journaled: every acked record is there, exactly once.
    // Of the batch in flight at the kill, any part may be.
    let acked = (batches - 1) * batch_len;
    assert!(
        journaled.len() >= acked,
        "acked records lost: journaled {} of {acked}",
        journaled.len()
    );
    assert!(
        journaled[..acked] == soak_batch(0, acked)[..],
        "the journal does not hold every acked record exactly once"
    );
    let in_flight = soak_batch(acked as u64, batch_len);
    assert!(
        journaled[acked..].iter().all(|f| in_flight.contains(f)),
        "the journal holds records past the one batch in flight"
    );

    // Second life: restart on the same directory. Recovery must be
    // bounded (snapshot + tail, built-in calibration) and bit-identical.
    let (mut child, addr) = spawn_edge(&dir);
    let elapsed = wait_ready(addr, READY_BOUND);
    println!(
        "restart ready in {elapsed:?} ({} records journaled)",
        journaled.len()
    );

    let mut client = TestClient::connect(addr);
    for (server, expected) in &truth {
        let (status, body) = client.get(&format!("/assess/{}", server.value()));
        assert_eq!(status, 200, "assess {server:?}: {body}");
        assert_eq!(
            wire::json_str(&body, "verdict"),
            Some(verdict_name(expected)),
            "verdict diverged for {server:?}: {body}"
        );
        match expected.trust() {
            Some(trust) => {
                let got = wire::json_f64_bits(&body, "trust").expect("trust bits");
                assert_eq!(
                    got.to_bits(),
                    trust.value().to_bits(),
                    "trust diverged for {server:?}: {body}"
                );
            }
            None => assert!(!body.contains("\"trust\""), "unexpected trust: {body}"),
        }
    }

    // Tracing survives the process restart: a traced assess against the
    // recovered service echoes its ID and resolves to a span tree whose
    // stages attribute the recovered shard's queue wait and compute.
    let (status, head, body) = client.request_with_headers(
        "GET",
        &format!("/assess/{}", truth[0].0.value()),
        &[("x-hp-trace", "dead9")],
        b"",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        support::response_header(&head, "x-hp-trace").as_deref(),
        Some("00000000000dead9"),
        "trace echo lost across restart"
    );
    let (status, tree) = client.get("/debug/trace/dead9");
    assert_eq!(status, 200, "{tree}");
    assert!(tree.contains("\"trace\":\"00000000000dead9\""), "{tree}");
    assert!(tree.contains("\"name\":\"queue_wait\""), "{tree}");

    child.kill().expect("stop restarted hp-edge");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
