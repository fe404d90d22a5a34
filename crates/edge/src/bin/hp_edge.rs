//! The `hp-edge` binary: serve the reputation service over HTTP/1.1.
//!
//! ```text
//! hp-edge [--help] [--addr HOST:PORT] [--workers N] [--shards N]
//!         [--calibration-cache PATH] [--assess-deadline-ms N]
//!         [--calibration-tolerance F]
//!         [--journal-dir PATH] [--fsync never|batch]
//!         [--snapshot-interval-records N] [--snapshot-no-compact]
//!         [--checkpoint-interval-ms N]
//!         [--history-horizon N] [--spill-budget-bytes N]
//!         [--no-spans] [--slo-assess-p99-ms N] [--slo-max-shed-ratio F]
//! ```
//!
//! A configuration the service refuses (`--shards 0`, snapshot flags
//! without `--journal-dir`, a spill budget without snapshots, …) exits 1
//! with the reason before anything binds; a malformed command line exits
//! 2 with the usage. Otherwise the listener binds immediately; `/healthz`
//! reports `warming` (with recovery progress: snapshot loaded, records
//! replayed / journal total) until shard spawn, journal recovery, and
//! boot calibration (the threshold surface and the rows below it) finish.
//! At the default calibration settings that last step runs no row job:
//! the binary carries their thresholds, computed when it was built.
//! `--calibration-cache` only matters for another configuration (here:
//! `--calibration-tolerance`), whose boot builds them or loads them from
//! the file. Each shard keeps its two newest snapshots. SIGTERM or SIGINT
//! triggers the graceful drain: stop accepting, finish in-flight
//! requests, shut the shards down (taking a final snapshot when
//! snapshots are enabled), persist the calibration cache if a row job
//! ran.

use hp_edge::{signals, EdgeConfig, EdgeServer};
use hp_service::{
    Durability, FsyncPolicy, ServiceConfig, SnapshotPolicy, SurfaceParams, TieringPolicy,
};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: hp-edge [--help] [--addr HOST:PORT] [--workers N] [--shards N]
               [--calibration-cache PATH] [--assess-deadline-ms N]
               [--calibration-tolerance F]
               [--journal-dir PATH] [--fsync never|batch]
               [--snapshot-interval-records N] [--snapshot-no-compact]
               [--checkpoint-interval-ms N]
               [--history-horizon N] [--spill-budget-bytes N]
               [--no-spans] [--slo-assess-p99-ms N] [--slo-max-shed-ratio F]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut edge_config = EdgeConfig::default().with_addr("127.0.0.1:7300");
    let mut service_config = ServiceConfig::default();
    let mut journal_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::default();
    let mut snapshot_policy: Option<SnapshotPolicy> = None;
    let mut tiering: Option<TieringPolicy> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => edge_config = edge_config.with_addr(value()),
            "--workers" => {
                edge_config = edge_config.with_workers(value().parse().unwrap_or_else(|_| usage()));
            }
            "--shards" => {
                service_config =
                    service_config.with_shards(value().parse().unwrap_or_else(|_| usage()));
            }
            "--calibration-cache" => {
                service_config = service_config.with_calibration_cache(value());
            }
            // Error tolerance (absolute, on the threshold) of the
            // threshold surface built at boot: a layer whose measured
            // error exceeds it is bypassed for the Monte-Carlo oracle.
            "--calibration-tolerance" => {
                let tolerance: f64 = value().parse().unwrap_or_else(|_| usage());
                service_config = service_config.with_calibration_surface(Some(SurfaceParams {
                    tolerance,
                    ..SurfaceParams::default()
                }));
            }
            "--assess-deadline-ms" => {
                let millis: u64 = value().parse().unwrap_or_else(|_| usage());
                edge_config = edge_config.with_assess_deadline(Some(Duration::from_millis(millis)));
            }
            "--journal-dir" => journal_dir = Some(PathBuf::from(value())),
            "--fsync" => {
                fsync = match value().as_str() {
                    "never" => FsyncPolicy::Never,
                    "batch" => FsyncPolicy::EveryBatch,
                    _ => usage(),
                }
            }
            "--snapshot-interval-records" => {
                let interval: u64 = value().parse().unwrap_or_else(|_| usage());
                snapshot_policy = Some(SnapshotPolicy {
                    interval_records: interval,
                    ..snapshot_policy.unwrap_or_default()
                });
            }
            "--snapshot-no-compact" => {
                snapshot_policy = Some(SnapshotPolicy {
                    compact_journal: false,
                    ..snapshot_policy.unwrap_or_default()
                });
            }
            // Fold history older than N outcomes into summary counts
            // (and cap the suffix sweep there, keeping verdicts
            // bit-identical to the untiered service).
            "--history-horizon" => {
                let horizon: usize = value().parse().unwrap_or_else(|_| usage());
                tiering = Some(TieringPolicy {
                    horizon,
                    ..tiering.unwrap_or_default()
                });
            }
            // Spill the coldest servers' histories to segment files
            // once resident history bytes exceed N per shard.
            "--spill-budget-bytes" => {
                let budget: u64 = value().parse().unwrap_or_else(|_| usage());
                tiering = Some(TieringPolicy {
                    spill_budget_bytes: Some(budget),
                    ..tiering.unwrap_or_default()
                });
            }
            "--checkpoint-interval-ms" => {
                let millis: u64 = value().parse().unwrap_or_else(|_| usage());
                edge_config =
                    edge_config.with_checkpoint_interval(Some(Duration::from_millis(millis)));
            }
            // Span-tree collection is on by default; turning it off
            // reduces the tracing subsystem's per-request cost to a
            // single relaxed atomic load.
            "--no-spans" => edge_config = edge_config.with_spans(false),
            "--slo-assess-p99-ms" => {
                let millis: u64 = value().parse().unwrap_or_else(|_| usage());
                let slo = hp_service::obs::SloObjectives {
                    assess_p99: Duration::from_millis(millis),
                    ..edge_config.slo
                };
                edge_config = edge_config.with_slo(slo);
            }
            "--slo-max-shed-ratio" => {
                let ratio: f64 = value().parse().unwrap_or_else(|_| usage());
                let slo = hp_service::obs::SloObjectives {
                    max_shed_ratio: ratio,
                    ..edge_config.slo
                };
                edge_config = edge_config.with_slo(slo);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ => usage(),
        }
    }

    // The service validates the combination (snapshots need a journal,
    // a spill budget needs snapshots) before the edge binds.
    if let Some(dir) = journal_dir {
        service_config = service_config.with_durability(Durability::Durable { dir, fsync });
    }
    if let Some(policy) = snapshot_policy {
        service_config = service_config.with_snapshots(policy);
    }
    if let Some(policy) = tiering {
        service_config = service_config.with_tiering(policy);
    }

    signals::install_term_handler();
    let edge = match EdgeServer::start(service_config, edge_config) {
        Ok(edge) => edge,
        Err(e) => {
            eprintln!("hp-edge: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "hp-edge listening on {} (state: {})",
        edge.local_addr(),
        edge.state()
    );

    while !signals::termination_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("hp-edge: termination requested, draining");
    edge.drain();
    println!("hp-edge: drained");
}
