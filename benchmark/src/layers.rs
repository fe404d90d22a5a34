//! Per-layer kernels: the benchmark calling each layer's public functions
//! in-process and timing them (source `k` in README.md).
//!
//! Each kernel runs once untimed, then [`REPS`] times; the reported value
//! is the median, normalised per unit of work where the name says so.
//! Inputs are fixed (not seeded by `--seed`): a kernel compares two
//! versions of one function, so its input should never change.

use crate::report::Metric;
use crate::verify::Reference;
use hp_core::testing::MultiBehaviorTest;
use hp_core::trust::incremental::{IncrementalTrust, WeightedTrustState};
use hp_core::{Feedback, HistoryView, ServerId, TieredHistory, TransactionHistory};
use hp_edge::wire;
use hp_load::{FeedbackStream, PopulationMix};
use hp_service::journal::FileJournal;
use hp_service::{
    Durability, FsyncPolicy, ReputationService, ServiceConfig, SnapshotPolicy, SurfaceParams,
};
use hp_stats::distance::l1_distance;
use hp_stats::{Binomial, Histogram, ThresholdCalibrator};
use hp_store::ColdStore;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repetitions per kernel.
const REPS: usize = 9;
/// The surface build takes seconds per repetition.
const SURFACE_REPS: usize = 3;
const SEED: u64 = 0x4B45_524E;
const LINES: usize = 512;
const DEEP: u64 = 20_000;

/// Median seconds of `reps` timed calls after one untimed call.
fn timed<O>(reps: usize, mut routine: impl FnMut() -> O) -> f64 {
    black_box(routine());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(routine());
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::est::median(&samples)
}

/// [`timed`] for a routine that times its own inner section (its set-up
/// is excluded) and returns that duration.
fn timed_inner(reps: usize, mut routine: impl FnMut() -> Duration) -> f64 {
    routine();
    let samples: Vec<f64> = (0..reps).map(|_| routine().as_secs_f64()).collect();
    crate::est::median(&samples)
}

fn mix(servers: u64) -> PopulationMix {
    PopulationMix::paper_mix(servers, 1_000_000, SEED)
}

fn deep_history() -> TransactionHistory {
    let mix = PopulationMix {
        honest_fraction: 1.0,
        ..mix(1)
    };
    let mut history = TransactionHistory::with_capacity(DEEP as usize);
    for feedback in crate::gen::history(&mix, 0, DEEP) {
        history.push(feedback);
    }
    history
}

fn batch(servers: u64, n: usize) -> Vec<Feedback> {
    let mut stream = FeedbackStream::new(mix(servers));
    let mut out = Vec::new();
    stream.next_batch(n, &mut out);
    out
}

/// Every `k` metric. `scratch` is an empty directory the kernels may write
/// journals, snapshots and segments into; `cache` is the reference's
/// calibration file, which lets the in-process services boot without a
/// Monte-Carlo build.
pub fn kernels(reference: &Reference, scratch: &Path, cache: &Path) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut push = |name: &'static str, value: f64, n: usize| {
        out.push(Metric {
            name,
            value,
            n: n as u64,
        });
    };
    let io = |e: std::io::Error| e.to_string();

    // hp-load: the production generator plus line rendering.
    {
        let mut stream = FeedbackStream::new(mix(4096));
        let mut feedbacks = Vec::new();
        let mut body = String::new();
        let s = timed(REPS, || {
            for _ in 0..16 {
                stream.next_batch(LINES, &mut feedbacks);
                body.clear();
                for feedback in &feedbacks {
                    wire::render_feedback_line(&mut body, feedback);
                }
            }
            body.len()
        });
        push(
            "hp-load.gen_ns_per_feedback",
            s * 1e9 / (16 * LINES) as f64,
            REPS,
        );
    }

    // hp-edge: body parsing and batch rendering.
    let body_512 = {
        let mut body = String::new();
        for feedback in batch(4096, LINES) {
            wire::render_feedback_line(&mut body, &feedback);
        }
        body
    };
    let s = timed(REPS, || {
        (0..16)
            .map(|_| wire::parse_feedback_body(body_512.as_bytes()).map_or(0, |f| f.len()))
            .sum::<usize>()
    });
    push(
        "hp-edge.parse_ns_per_feedback",
        s * 1e9 / (16 * LINES) as f64,
        REPS,
    );

    let deep = deep_history();
    let verdict = Arc::new(
        reference
            .assessor()
            .assess(&deep)
            .map_err(|e| e.to_string())?,
    );
    let answers: Vec<_> = (0..32)
        .map(|i| (ServerId::new(i), Ok(Arc::clone(&verdict))))
        .collect();
    let s = timed(REPS, || wire::render_batch(&answers).len());
    push("hp-edge.render_batch_us", s * 1e6, REPS);

    // hp-core: push, compaction, window counts, the multi-test, phase 1+2.
    let feedbacks_20k: Vec<Feedback> = deep.iter().copied().collect();
    let s = timed(REPS, || {
        let mut history = TieredHistory::new();
        let mut trust = WeightedTrustState::new(0.5).expect("0.5 is a valid lambda");
        for feedback in &feedbacks_20k {
            trust.update(feedback.is_good());
            history.push(*feedback);
        }
        history.len()
    });
    push("hp-core.push_ns_per_feedback", s * 1e9 / DEEP as f64, REPS);

    let s = timed(REPS, || {
        let mut trust = WeightedTrustState::new(0.5).expect("0.5 is a valid lambda");
        for feedback in &feedbacks_20k {
            trust.update(black_box(feedback.is_good()));
        }
        trust.current()
    });
    push("hp-core.trust_update_ns", s * 1e9 / DEEP as f64, REPS);

    let full: TieredHistory = feedbacks_20k.iter().copied().collect();
    let mut folded = 1;
    let s = timed_inner(REPS, || {
        let mut history = full.clone();
        let start = Instant::now();
        folded = black_box(history.compact(2048)).max(1);
        start.elapsed()
    });
    push(
        "hp-core.compact_ns_per_feedback",
        s * 1e9 / folded as f64,
        REPS,
    );

    let windows = (DEEP / 10) as f64;
    let s = timed(REPS, || {
        full.window_counts(0, DEEP as usize, 10)
            .map_or(0, |c| c.len())
    });
    push(
        "hp-core.window_counts_ns_per_window_m10",
        s * 1e9 / windows,
        REPS,
    );

    let multi: &MultiBehaviorTest = reference.assessor().behavior_test();
    let s = timed(REPS, || {
        multi.evaluate_detailed(&deep).map(|r| r.suffixes.len())
    });
    push("hp-core.multi_test_us_n20000", s * 1e6, REPS);
    // The same evaluation on two threads at once, as the two shards run it:
    // they share one calibrator, and its lock and hit counter are touched
    // once per threshold lookup (≈ 2000 per verdict).
    let s = timed(REPS, || {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        black_box(
                            multi
                                .evaluate_detailed(&deep)
                                .map(|r| r.suffixes.len())
                                .ok(),
                        );
                    }
                });
            }
        })
    });
    push("hp-core.multi_test_us_n20000_2threads", s * 1e6 / 4.0, REPS);
    let s = timed(REPS, || {
        reference.assessor().assess(&deep).map(|a| a.is_accepted())
    });
    push("hp-core.two_phase_assess_us_n20000", s * 1e6, REPS);

    // hp-stats: the two warm threshold tiers, the distance, a cold row,
    // and the boot-time surface build.
    let calibration = *reference.calibrator.config();
    let ks: Vec<usize> = (40..2040).step_by(8).collect();
    let s = timed(REPS, || {
        ks.iter()
            .map(|&k| {
                reference
                    .calibrator
                    .threshold_at(10, k, 0.9, 0.95)
                    .unwrap_or(0.0)
            })
            .sum::<f64>()
    });
    push("hp-stats.surface_hit_ns", s * 1e9 / ks.len() as f64, REPS);

    let oracle = ThresholdCalibrator::new(hp_stats::CalibrationConfig {
        surface: None,
        ..calibration
    })
    .map_err(|e| e.to_string())?;
    let mut next_k = 300usize;
    let s = timed(REPS, || {
        next_k += 1;
        oracle.threshold_at(10, next_k, 0.9, 0.95)
    });
    push("hp-stats.row_fill_ms", s * 1e3, REPS);
    let s = timed(REPS, || {
        (0..1000)
            .map(|_| {
                oracle
                    .threshold_at(10, black_box(301), 0.9, 0.95)
                    .unwrap_or(0.0)
            })
            .sum::<f64>()
    });
    push("hp-stats.cache_hit_ns", s * 1e9 / 1000.0, REPS);

    let counts = full
        .window_counts(0, DEEP as usize, 10)
        .map_err(|e| e.to_string())?;
    let histogram =
        Histogram::from_samples(10, counts.iter().copied()).map_err(|e| e.to_string())?;
    let pmf = Binomial::new(10, 0.9)
        .map_err(|e| e.to_string())?
        .pmf_table();
    let s = timed(REPS, || {
        (0..1000)
            .map(|_| l1_distance(black_box(&histogram), &pmf))
            .sum::<f64>()
    });
    push("hp-stats.l1_distance_ns", s * 1e9 / 1000.0, REPS);

    let surface_config = hp_stats::CalibrationConfig {
        surface: Some(SurfaceParams::default()),
        ..calibration
    };
    // Seconds per build, so no untimed warm-up call here.
    let builds: Vec<f64> = (0..SURFACE_REPS)
        .map(|_| {
            let start = Instant::now();
            let _ = black_box(
                ThresholdCalibrator::new(surface_config).and_then(|c| c.ensure_surface_for(10)),
            );
            start.elapsed().as_secs_f64()
        })
        .collect();
    push(
        "hp-stats.surface_build_ms",
        crate::est::median(&builds) * 1e3,
        SURFACE_REPS,
    );

    // hp-service: sharded ingest, the journal, a checkpoint.
    let service_config = ServiceConfig::default()
        .with_shards(crate::spec::SHARDS)
        .with_calibration_surface(Some(SurfaceParams::default()))
        .with_calibration_cache(cache);
    {
        let service = ReputationService::new(service_config.clone()).map_err(|e| e.to_string())?;
        let batches: Vec<Vec<Feedback>> = {
            let mut stream = FeedbackStream::new(mix(4096));
            (0..16 * (REPS + 1))
                .map(|_| {
                    let mut batch = Vec::new();
                    stream.next_batch(LINES, &mut batch);
                    batch
                })
                .collect()
        };
        let mut rounds = batches.chunks(16);
        let s = timed(REPS, || {
            for batch in rounds.next().expect("one round per repetition") {
                let _ = service.ingest_batch(batch.iter().copied());
            }
            // `stats` round-trips every shard: the barrier.
            service.stats().ingested_feedbacks
        });
        push(
            "hp-service.ingest_batch_ns_per_feedback",
            s * 1e9 / (16 * LINES) as f64,
            REPS,
        );
        service.shutdown();
    }
    {
        let path = scratch.join("kernel.hpj");
        let (mut journal, _) =
            FileJournal::open(&path, 0, 1, FsyncPolicy::Never).map_err(|e| e.to_string())?;
        let records = batch(4096, LINES);
        let s = timed(REPS, || journal.append_batch(&records).map(|i| i.bytes));
        push(
            "hp-service.journal_append_ns_per_record",
            s * 1e9 / LINES as f64,
            REPS,
        );
        let s = timed_inner(REPS, || {
            let _ = journal.append_batch(&records);
            let start = Instant::now();
            let _ = journal.sync();
            start.elapsed()
        });
        push("hp-service.journal_fsync_us", s * 1e6, REPS);
    }
    {
        let dir = scratch.join("kernel-checkpoint");
        let durable = service_config
            .clone()
            .with_durability(Durability::Durable {
                dir,
                fsync: FsyncPolicy::Never,
            })
            .with_snapshots(SnapshotPolicy {
                interval_records: 0,
                ..SnapshotPolicy::default()
            });
        let service = ReputationService::new(durable).map_err(|e| e.to_string())?;
        let mut stream = FeedbackStream::new(mix(4096));
        let mut feedbacks = Vec::new();
        let mut bytes = 0;
        // A checkpoint of 4096 servers after another 64 Ki feedbacks.
        let s = timed_inner(REPS, || {
            stream.next_batch(65_536, &mut feedbacks);
            let _ = service.ingest_batch(feedbacks.iter().copied());
            let _ = service.stats();
            let start = Instant::now();
            if let Ok(summary) = service.checkpoint() {
                bytes = summary.snapshot_bytes;
            }
            start.elapsed()
        });
        push("hp-service.checkpoint_ms", s * 1e3, REPS);
        push("hp-service.snapshot_bytes", bytes as f64, 1);
        service.shutdown();
    }

    // hp-store: sealing a segment of 64 spilled histories, faulting one.
    {
        let mut cold = ColdStore::open(&scratch.join("kernel-segments"), 0).map_err(io)?;
        let payload = {
            let history: TieredHistory = feedbacks_20k[..256].iter().copied().collect();
            history.encode()
        };
        let records: Vec<(u64, Vec<u8>)> = (0..64).map(|s| (s, payload.clone())).collect();
        let mut refs = Vec::new();
        let s = timed(REPS, || {
            refs = cold.write_segment(&records).unwrap_or_default();
            refs.len()
        });
        push("hp-store.segment_write_us_per_server", s * 1e6 / 64.0, REPS);
        let s = timed(REPS, || {
            (0..64u64)
                .map(|server| {
                    cold.fault(server, &refs[server as usize])
                        .map_or(0, |p| p.len())
                })
                .sum::<usize>()
        });
        push("hp-store.segment_fault_us", s * 1e6 / 64.0, REPS);
    }
    Ok(out)
}
