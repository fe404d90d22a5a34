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
use honest_players::service::replay::{run_replay, ReplayConfig};
use honest_players::service::{ReputationService, ServiceConfig, ServiceError};
use honest_players::ServerId;
use std::path::{Path, PathBuf};
use std::time::Instant;

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

    println!("\nreplayed {} feedbacks across {} servers in {:.2?}", outcome.feedbacks, outcome.servers, elapsed);
    println!(
        "  ingest+assess throughput: {:.0} feedbacks/s",
        outcome.feedbacks as f64 / elapsed.as_secs_f64()
    );

    println!("\ndetection summary (online verdicts):");
    println!("  honest accepted:      {:3}", outcome.honest_accepted);
    println!("  honest rejected:      {:3}  (false-positive rate {:.1}%)",
        outcome.honest_rejected, 100.0 * outcome.false_positive_rate());
    println!("  attackers rejected:   {:3}  (detection rate {:.1}%)",
        outcome.attackers_rejected, 100.0 * outcome.detection_rate());
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
    println!("\n{}", explain_assessment(&service.metrics(), &traced.trace));

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
