//! Kill-9 soak: SIGKILL the real `hp-edge` binary mid-ingest, restart
//! it on the same journal/snapshot directory, and prove the recovered
//! service (a) becomes ready within a bound and (b) serves verdicts
//! bit-identical to an offline fold of what survived the kill. With
//! `--snapshot-no-compact` the journal keeps every record and is that
//! truth; with compaction on, checkpoints roll the journal into sealed
//! segments and delete its head (so a SIGKILL can land inside a roll),
//! and the truth is each shard's deterministic stream cut at the length
//! its journal reached.
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
use hp_service::{ReputationService, ServiceConfig};
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
/// child plus the address it printed. Without `compact`, checkpoints keep
/// the journal's prefix, so ground truth can be recomputed from the full
/// journal.
fn spawn_edge(dir: &Path, compact: bool) -> (Child, SocketAddr) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_hp-edge"));
    command.args([
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
        "--checkpoint-interval-ms",
        "100",
    ]);
    if !compact {
        command.arg("--snapshot-no-compact");
    }
    let mut child = command
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

/// The offline verdict of every server `feedbacks` name, over its records
/// in order: the ground truth a recovered service must match bit for bit.
fn offline_of(feedbacks: &[Feedback]) -> Vec<(ServerId, Assessment)> {
    let config = ServiceConfig::default().with_shards(SHARDS);
    let reference = OfflineReference::from_config(&config).expect("reference builds");
    let mut histories: std::collections::HashMap<ServerId, TransactionHistory> =
        std::collections::HashMap::new();
    for feedback in feedbacks {
        histories
            .entry(feedback.server)
            .or_default()
            .push(*feedback);
    }
    let mut verdicts: Vec<(ServerId, Assessment)> = histories
        .into_iter()
        .map(|(server, history)| (server, reference.assess(&history).expect("offline assess")))
        .collect();
    verdicts.sort_by_key(|(server, _)| server.value());
    verdicts
}

fn verdict_name(assessment: &Assessment) -> &'static str {
    match assessment {
        Assessment::Accepted { .. } => "accepted",
        Assessment::Rejected { .. } => "rejected",
        Assessment::NeedsReview { .. } => "needs_review",
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hp-edge-kill9-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const BATCH_LEN: usize = 2_000;
const BATCHES: usize = 60;

/// First life: boots on `dir`, ingests `BATCHES` batches of the soak
/// stream steadily, then SIGKILLs the edge with the last one in flight.
/// Returns how many records were acked.
fn ingest_then_sigkill(dir: &Path, compact: bool) -> usize {
    let (mut child, addr) = spawn_edge(dir, compact);
    // No bound asserted on the first boot.
    wait_ready(addr, Duration::from_secs(120));

    let mut client = TestClient::connect(addr);
    let mut t = 0u64;
    for i in 0..BATCHES {
        let mut body = String::new();
        for feedback in soak_batch(t, BATCH_LEN) {
            wire::render_feedback_line(&mut body, &feedback);
        }
        t += BATCH_LEN as u64;
        if i + 1 < BATCHES {
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
    (BATCHES - 1) * BATCH_LEN
}

/// Second life: restarts on `dir`, which must reach ready within the
/// bound (snapshot + tail, built-in calibration), and asserts every
/// server's verdict and trust bits equal `truth`. Returns the running
/// child and a client.
fn restart_and_serve(
    dir: &Path,
    compact: bool,
    truth: &[(ServerId, Assessment)],
) -> (Child, TestClient) {
    let (child, addr) = spawn_edge(dir, compact);
    let elapsed = wait_ready(addr, READY_BOUND);
    println!("restart ready in {elapsed:?}");

    let mut client = TestClient::connect(addr);
    for (server, expected) in truth {
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
    (child, client)
}

#[test]
#[ignore = "process-level soak; run explicitly (CI runs it in release)"]
fn sigkill_mid_ingest_recovers_bit_identical_within_bound() {
    let dir = scratch_dir("full");
    let acked = ingest_then_sigkill(&dir, false);

    // The journal (what reached the kernel before the kill) is the
    // truth; with `--fsync never` a SIGKILL keeps the page cache.
    let mut journaled = Vec::new();
    for shard in 0..SHARDS {
        let path = dir.join(format!("shard-{shard}.hpj"));
        let recovered =
            read_journal(&path, Some((shard as u32, SHARDS as u32))).expect("read journal");
        journaled.extend(recovered.feedbacks);
    }
    journaled.sort_by_key(|f| f.time);
    let truth = offline_of(&journaled);
    assert!(!truth.is_empty(), "no records survived — soak is vacuous");
    // A 200 means journaled: every acked record is there, exactly once.
    // Of the batch in flight at the kill, any part may be.
    assert!(
        journaled.len() >= acked,
        "acked records lost: journaled {} of {acked}",
        journaled.len()
    );
    assert!(
        journaled[..acked] == soak_batch(0, acked)[..],
        "the journal does not hold every acked record exactly once"
    );
    let in_flight = soak_batch(acked as u64, BATCH_LEN);
    assert!(
        journaled[acked..].iter().all(|f| in_flight.contains(f)),
        "the journal holds records past the one batch in flight"
    );
    println!("{} records journaled", journaled.len());

    let (mut child, mut client) = restart_and_serve(&dir, false, &truth);

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

/// The soak with compaction on: checkpoints roll each journal into
/// sealed segments and delete the ones below the older retained
/// snapshot, so the kill can land inside a roll and the journal's head
/// is gone. Each shard's retained records must be its stream at their
/// absolute indexes; the recovered total (where the journals end) covers
/// every acked record; and each server's recovered verdict equals the
/// offline verdict of its stream cut where its shard's journal ends.
#[test]
#[ignore = "process-level soak; run explicitly (CI runs it in release)"]
fn sigkill_mid_ingest_with_compaction_recovers_bit_identical_within_bound() {
    let dir = scratch_dir("compact");
    let acked = ingest_then_sigkill(&dir, true);

    let router = ReputationService::new(ServiceConfig::default().with_shards(SHARDS))
        .expect("routing service");
    let stream = soak_batch(0, BATCHES * BATCH_LEN);
    let (mut survived, mut total, mut compacted) = (Vec::new(), 0, 0);
    for shard in 0..SHARDS {
        let own: Vec<Feedback> = stream
            .iter()
            .filter(|f| router.shard_of(f.server) == shard)
            .copied()
            .collect();
        let path = dir.join(format!("shard-{shard}.hpj"));
        let recovered =
            read_journal(&path, Some((shard as u32, SHARDS as u32))).expect("read journal");
        let first = recovered.first_record as usize;
        let end = first + recovered.feedbacks.len();
        assert!(
            recovered.feedbacks[..] == own[first..end],
            "shard {shard}: the retained records are not its stream at [{first}, {end})"
        );
        survived.extend_from_slice(&own[..end]);
        total += end;
        compacted += first;
    }
    drop(router);
    assert!(
        total >= acked,
        "acked records lost: recovered {total} of {acked}"
    );
    assert!(compacted > 0, "no checkpoint compacted — soak is vacuous");
    println!("{total} records recovered, {compacted} compacted away");

    let truth = offline_of(&survived);
    let (mut child, _) = restart_and_serve(&dir, true, &truth);
    child.kill().expect("stop restarted hp-edge");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
