//! Online service: run a simulated marketplace through the sharded
//! reputation service and report detection quality and throughput.
//!
//! ```text
//! cargo run --release --example online_service
//! ```
//!
//! The service ingests interleaved feedback batches exactly as a deployed
//! front end would, answers every assessment from incremental per-server
//! state, and every verdict is cross-checked against the offline
//! `TwoPhaseAssessor` — the `mismatches` line must read 0.

use honest_players::service::obs::explain_assessment;
use honest_players::service::replay::{restamp, OfflineReference};
use honest_players::service::{ReputationService, ServiceConfig, ServiceError};
use honest_players::sim::workload;
use honest_players::stats::derive_seed;
use honest_players::{Assessment, Feedback, ServerId, TransactionHistory};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shape of the simulated marketplace a replay feeds through the service.
struct ReplayConfig {
    /// Honest servers, with per-server quality drawn from `honest_p`.
    honest_servers: usize,
    /// Hibernating attackers (build reputation, then strike).
    hibernating_attackers: usize,
    /// Periodic attackers (oscillate between honesty and cheating).
    periodic_attackers: usize,
    /// Transactions per honest server.
    history_len: usize,
    /// Honest success probabilities, cycled across honest servers.
    honest_p: Vec<f64>,
    /// Attack window for periodic attackers (paper Fig. 7: N = 10…80).
    attack_window: usize,
    /// Attacks per window as a fraction (paper: 0.1, keeping p̂ ≈ 0.9).
    attack_rate: f64,
    /// Feedbacks per `ingest_batch` call.
    batch_size: usize,
    /// Base seed for all generated histories.
    seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            honest_servers: 12,
            hibernating_attackers: 3,
            periodic_attackers: 3,
            history_len: 600,
            honest_p: vec![0.85, 0.9, 0.95],
            attack_window: 10,
            attack_rate: 0.1,
            batch_size: 256,
            seed: 0x5EED_4E91,
        }
    }
}

/// What a replay observed.
struct ReplayOutcome {
    /// Total servers replayed (honest + attackers).
    servers: usize,
    /// Total feedbacks ingested.
    feedbacks: usize,
    /// Honest servers the service accepted.
    honest_accepted: usize,
    /// Honest servers the service rejected (false positives).
    honest_rejected: usize,
    /// Attackers the service rejected (detections).
    attackers_rejected: usize,
    /// Attackers the service accepted (misses).
    attackers_accepted: usize,
    /// Servers sent to review under the short-history policy.
    needs_review: usize,
    /// Servers where the online verdict differed from the offline
    /// assessor. Always `0` unless the equivalence invariant is broken.
    mismatches: usize,
}

impl ReplayOutcome {
    /// Fraction of attackers detected (`1.0` when there were none).
    fn detection_rate(&self) -> f64 {
        let attackers = self.attackers_rejected + self.attackers_accepted;
        if attackers == 0 {
            1.0
        } else {
            self.attackers_rejected as f64 / attackers as f64
        }
    }

    /// Fraction of honest servers wrongly rejected.
    fn false_positive_rate(&self) -> f64 {
        let honest = self.honest_accepted + self.honest_rejected;
        if honest == 0 {
            0.0
        } else {
            self.honest_rejected as f64 / honest as f64
        }
    }
}

/// Runs a replay: generate the marketplace, ingest it through `service`
/// in round-robin batches, assess every server online, and cross-check
/// each verdict against the offline reference built from the service's
/// own configuration.
fn run_replay(
    service: &ReputationService,
    replay: &ReplayConfig,
) -> Result<ReplayOutcome, ServiceError> {
    // 1. Generate histories, each on its own server id.
    let mut streams: Vec<(ServerId, Vec<Feedback>, bool)> = Vec::new();
    let alloc = |history: TransactionHistory, honest: bool, streams: &mut Vec<_>| {
        let server = ServerId::new(streams.len() as u64);
        streams.push((server, restamp(&history, server), honest));
    };

    for i in 0..replay.honest_servers {
        let p = replay.honest_p[i % replay.honest_p.len().max(1)];
        let seed = derive_seed(replay.seed, streams.len() as u64);
        alloc(
            workload::honest_history(replay.history_len, p, seed),
            true,
            &mut streams,
        );
    }
    for _ in 0..replay.hibernating_attackers {
        let seed = derive_seed(replay.seed, streams.len() as u64);
        let prep = replay.history_len.saturating_sub(replay.history_len / 4);
        alloc(
            workload::hibernating_history(prep, 0.95, replay.history_len / 4, seed),
            false,
            &mut streams,
        );
    }
    for _ in 0..replay.periodic_attackers {
        let seed = derive_seed(replay.seed, streams.len() as u64);
        alloc(
            workload::periodic_history(
                replay.history_len,
                replay.attack_window,
                replay.attack_rate,
                seed,
            ),
            false,
            &mut streams,
        );
    }

    // 2. Ingest round-robin so batches interleave servers, as live
    //    traffic would.
    let mut feedbacks = 0usize;
    let mut cursors: Vec<usize> = vec![0; streams.len()];
    let mut batch = Vec::with_capacity(replay.batch_size.max(1));
    loop {
        let mut progressed = false;
        for (i, (_, stream, _)) in streams.iter().enumerate() {
            if cursors[i] < stream.len() {
                batch.push(stream[cursors[i]]);
                cursors[i] += 1;
                progressed = true;
                if batch.len() == replay.batch_size.max(1) {
                    feedbacks += service.ingest_batch(std::mem::take(&mut batch))?.accepted;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    if !batch.is_empty() {
        feedbacks += service.ingest_batch(batch)?.accepted;
    }

    // 3. Assess everything online in one batched call.
    let servers: Vec<ServerId> = streams.iter().map(|(s, _, _)| *s).collect();
    let online = service.assess_many(&servers)?;

    // 4. Cross-check against the offline reference.
    let reference = OfflineReference::from_config(service.config())?;
    let mut outcome = ReplayOutcome {
        servers: streams.len(),
        feedbacks,
        honest_accepted: 0,
        honest_rejected: 0,
        attackers_rejected: 0,
        attackers_accepted: 0,
        needs_review: 0,
        mismatches: 0,
    };
    for ((server, stream, honest), (answered, verdict)) in streams.iter().zip(&online) {
        debug_assert_eq!(server, answered);
        let verdict = verdict.clone().map_err(ServiceError::Core)?;
        let mut history = TransactionHistory::with_capacity(stream.len());
        for f in stream {
            history.push(*f);
        }
        let offline = reference.assess(&history).map_err(ServiceError::Core)?;
        if *verdict != offline {
            outcome.mismatches += 1;
        }
        match (&*verdict, honest) {
            (Assessment::Accepted { .. }, true) => outcome.honest_accepted += 1,
            (Assessment::Rejected { .. }, true) => outcome.honest_rejected += 1,
            (Assessment::Rejected { .. }, false) => outcome.attackers_rejected += 1,
            (Assessment::Accepted { .. }, false) => outcome.attackers_accepted += 1,
            (Assessment::NeedsReview { .. }, _) => outcome.needs_review += 1,
        }
    }
    Ok(outcome)
}

fn main() -> Result<(), ServiceError> {
    let config = ServiceConfig::default().with_shards(4);

    let start = Instant::now();
    let service = ReputationService::new(config)?;
    let startup = start.elapsed();
    println!(
        "service up: {} shards, calibration warmed with {} thresholds in {:.2?}",
        service.config().shards(),
        service.stats().calibration_cache_entries,
        startup,
    );

    // A marketplace: honest servers at several quality levels plus the
    // paper's two attacker archetypes (hibernating and Fig. 7 periodic).
    let replay = ReplayConfig {
        honest_servers: 40,
        hibernating_attackers: 10,
        periodic_attackers: 10,
        history_len: 1000,
        ..ReplayConfig::default()
    };

    let start = Instant::now();
    let outcome = run_replay(&service, &replay)?;
    let elapsed = start.elapsed();

    println!(
        "\nreplayed {} feedbacks across {} servers in {:.2?}",
        outcome.feedbacks, outcome.servers, elapsed
    );
    println!(
        "  ingest+assess throughput: {:.0} feedbacks/s",
        outcome.feedbacks as f64 / elapsed.as_secs_f64()
    );

    println!("\ndetection summary (online verdicts):");
    println!("  honest accepted:      {:3}", outcome.honest_accepted);
    println!(
        "  honest rejected:      {:3}  (false-positive rate {:.1}%)",
        outcome.honest_rejected,
        100.0 * outcome.false_positive_rate()
    );
    println!(
        "  attackers rejected:   {:3}  (detection rate {:.1}%)",
        outcome.attackers_rejected,
        100.0 * outcome.detection_rate()
    );
    println!("  attackers accepted:   {:3}", outcome.attackers_accepted);
    println!("  needs review:         {:3}", outcome.needs_review);
    println!("  online/offline mismatches: {}", outcome.mismatches);

    let stats = service.stats();
    println!("\nservice counters:");
    println!("  ingested feedbacks:   {}", stats.ingested_feedbacks);
    println!("  assessments served:   {}", stats.assessments_served);
    println!(
        "  cache hit rate:       {:.1}%  ({} hits / {} misses)",
        100.0 * stats.cache_hit_rate(),
        stats.cache_hits,
        stats.cache_misses
    );
    println!("  tracked servers:      {}", stats.tracked_servers);
    println!("  shard queue depths:   {:?}", stats.shard_queue_depths);

    // One verdict, fully explained: the audit trail of a rejected
    // attacker (server IDs after the honest block are attackers).
    let attacker = ServerId::new(replay.honest_servers as u64 + 1);
    let traced = service.assess_traced(attacker)?;
    println!(
        "\n{}",
        explain_assessment(&service.metrics(), &traced.trace)
    );

    println!("\nprometheus exposition:");
    println!("{}", service.render_prometheus());

    // Machine-readable latency snapshot for the bench harness / ci.sh.
    let out_dir = std::env::var("HP_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments/out"));
    std::fs::create_dir_all(&out_dir).expect("create bench output dir");
    let out = out_dir.join("bench_service.json");
    std::fs::write(&out, service.metrics_json()).expect("write bench json");
    println!("wrote {}", out.display());

    assert_eq!(outcome.mismatches, 0, "online verdicts must match offline");
    Ok(())
}
