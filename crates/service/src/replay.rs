//! Replay driver: feed a simulated marketplace through the live service
//! and check every verdict against the offline two-phase assessor.
//!
//! This is the service's end-to-end correctness harness: the same feedback
//! stream is (a) ingested online, batch by batch, and (b) assessed offline
//! by a [`TwoPhaseAssessor`] built from the same configuration. Because
//! phase-1 calibration is deterministic and the streaming trust states are
//! bit-exact counterparts of the batch trust functions, the two paths must
//! agree on every server.

use crate::config::{ServiceConfig, TrustModel};
use crate::service::{ReputationService, ServiceError};
use hp_core::testing::MultiBehaviorTest;
use hp_core::trust::{AverageTrust, WeightedTrust};
use hp_core::twophase::{Assessment, TwoPhaseAssessor};
use hp_core::{CoreError, Feedback, ServerId, TransactionHistory};
use hp_sim::workload;

/// The offline reference wired exactly like a service: the behavior test
/// the service effectively runs (threshold surface and tiering horizon
/// included, hence the same deterministic calibration), same trust model,
/// same short-history policy.
#[derive(Debug)]
pub enum OfflineReference {
    /// Reference for [`TrustModel::Average`].
    Average(TwoPhaseAssessor<MultiBehaviorTest, AverageTrust>),
    /// Reference for [`TrustModel::Weighted`].
    Weighted(TwoPhaseAssessor<MultiBehaviorTest, WeightedTrust>),
}

impl OfflineReference {
    /// Builds the reference assessor for `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the core pipeline.
    pub fn from_config(config: &ServiceConfig) -> Result<Self, CoreError> {
        let test = MultiBehaviorTest::new(config.effective_test())?;
        Ok(match config.trust() {
            TrustModel::Average => OfflineReference::Average(
                TwoPhaseAssessor::new(test, AverageTrust::default())
                    .with_short_history_policy(config.short_history()),
            ),
            TrustModel::Weighted { lambda } => OfflineReference::Weighted(
                TwoPhaseAssessor::new(test, WeightedTrust::new(lambda)?)
                    .with_short_history_policy(config.short_history()),
            ),
        })
    }

    /// Assesses a full history from scratch — every suffix's report
    /// collected — and then summarizes that report, which is the form a
    /// service keeps: `==` against an online verdict compares the verdict,
    /// the trust value, the per-test confidence, both counts and the
    /// binding suffix's p̂, distance and threshold.
    ///
    /// # Errors
    ///
    /// Propagates assessment errors from the core pipeline.
    pub fn assess(&self, history: &TransactionHistory) -> Result<Assessment, CoreError> {
        let full = match self {
            OfflineReference::Average(a) => a.assess(history),
            OfflineReference::Weighted(a) => a.assess(history),
        }?;
        Ok(full.summarized())
    }
}

/// Shape of the simulated marketplace a replay feeds through the service.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// Honest servers, with per-server quality drawn from `honest_p`.
    pub honest_servers: usize,
    /// Hibernating attackers (build reputation, then strike).
    pub hibernating_attackers: usize,
    /// Periodic attackers (oscillate between honesty and cheating).
    pub periodic_attackers: usize,
    /// Transactions per honest server.
    pub history_len: usize,
    /// Honest success probabilities, cycled across honest servers.
    pub honest_p: Vec<f64>,
    /// Attack window for periodic attackers (paper Fig. 7: N = 10…80).
    pub attack_window: usize,
    /// Attacks per window as a fraction (paper: 0.1, keeping p̂ ≈ 0.9).
    pub attack_rate: f64,
    /// Feedbacks per `ingest_batch` call.
    pub batch_size: usize,
    /// Base seed for all generated histories.
    pub seed: u64,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Total servers replayed (honest + attackers).
    pub servers: usize,
    /// Total feedbacks ingested.
    pub feedbacks: usize,
    /// Honest servers the service accepted.
    pub honest_accepted: usize,
    /// Honest servers the service rejected (false positives).
    pub honest_rejected: usize,
    /// Attackers the service rejected (detections).
    pub attackers_rejected: usize,
    /// Attackers the service accepted (misses).
    pub attackers_accepted: usize,
    /// Servers sent to review under the short-history policy.
    pub needs_review: usize,
    /// Servers where the online verdict differed from the offline
    /// assessor. Always `0` unless the equivalence invariant is broken.
    pub mismatches: usize,
}

impl ReplayOutcome {
    /// Fraction of attackers detected (`1.0` when there were none).
    pub fn detection_rate(&self) -> f64 {
        let attackers = self.attackers_rejected + self.attackers_accepted;
        if attackers == 0 {
            1.0
        } else {
            self.attackers_rejected as f64 / attackers as f64
        }
    }

    /// Fraction of honest servers wrongly rejected.
    pub fn false_positive_rate(&self) -> f64 {
        let honest = self.honest_accepted + self.honest_rejected;
        if honest == 0 {
            0.0
        } else {
            self.honest_rejected as f64 / honest as f64
        }
    }
}

/// Re-stamps every feedback in `history` onto `server`, preserving order,
/// times, clients and ratings. Workload generators emit all histories
/// under one placeholder server id; a replay needs each history on its own
/// server.
pub fn restamp(history: &TransactionHistory, server: ServerId) -> Vec<Feedback> {
    history
        .iter()
        .map(|f| Feedback::new(f.time, server, f.client, f.rating))
        .collect()
}

/// Runs a replay: generate the marketplace, ingest it through `service`
/// in round-robin batches, assess every server online, and cross-check
/// each verdict against the offline reference built from the service's
/// own configuration.
///
/// # Errors
///
/// Propagates service and core errors; generation itself is infallible.
pub fn run_replay(
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
        let seed = hp_stats::derive_seed(replay.seed, streams.len() as u64);
        alloc(
            workload::honest_history(replay.history_len, p, seed),
            true,
            &mut streams,
        );
    }
    for _ in 0..replay.hibernating_attackers {
        let seed = hp_stats::derive_seed(replay.seed, streams.len() as u64);
        let prep = replay.history_len.saturating_sub(replay.history_len / 4);
        alloc(
            workload::hibernating_history(prep, 0.95, replay.history_len / 4, seed),
            false,
            &mut streams,
        );
    }
    for _ in 0..replay.periodic_attackers {
        let seed = hp_stats::derive_seed(replay.seed, streams.len() as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::testing::BehaviorTestConfig;

    fn fast_service() -> ReputationService {
        ReputationService::new(
            ServiceConfig::default()
                .with_shards(2)
                .with_test(
                    BehaviorTestConfig::builder()
                        .calibration_trials(500)
                        .build()
                        .unwrap(),
                )
                .with_calibration_surface(None),
        )
        .unwrap()
    }

    #[test]
    fn replay_matches_offline_and_detects() {
        let service = fast_service();
        let replay = ReplayConfig {
            honest_servers: 6,
            hibernating_attackers: 2,
            periodic_attackers: 2,
            history_len: 400,
            batch_size: 64,
            ..ReplayConfig::default()
        };
        let outcome = run_replay(&service, &replay).unwrap();
        assert_eq!(outcome.servers, 10);
        assert_eq!(outcome.feedbacks, 4000);
        assert_eq!(outcome.mismatches, 0, "online and offline verdicts diverged");
        assert!(outcome.detection_rate() > 0.5, "outcome: {outcome:?}");
        assert!(outcome.false_positive_rate() < 0.5, "outcome: {outcome:?}");
    }

    #[test]
    fn the_reference_of_a_default_shaped_service_runs_its_surface_and_horizon() {
        // Everything at its default but the trial count (and the tolerance
        // so few trials need for a layer to serve), plus a horizon: 250
        // windows is deep enough for the surface to answer, and for the
        // horizon to cut suffixes a reference without it would test.
        let surface = hp_stats::SurfaceParams {
            tolerance: 10.0,
            ..Default::default()
        };
        let tiering = crate::TieringPolicy {
            horizon: 1500,
            spill_budget_bytes: None,
        };
        let config = ServiceConfig::default()
            .with_shards(2)
            .with_test(BehaviorTestConfig::builder().calibration_trials(200).build().unwrap())
            .with_calibration_surface(Some(surface))
            .with_tiering(tiering);
        let service = ReputationService::new(config).unwrap();
        let replay = ReplayConfig {
            honest_servers: 4,
            hibernating_attackers: 1,
            periodic_attackers: 1,
            history_len: 2500,
            ..ReplayConfig::default()
        };
        let outcome = run_replay(&service, &replay).unwrap();
        assert_eq!(outcome.mismatches, 0, "outcome: {outcome:?}");
        assert!(service.stats().calibration_surface_hits > 0);
    }

    #[test]
    fn restamp_preserves_everything_but_server() {
        let history = workload::honest_history(50, 0.9, 7);
        let restamped = restamp(&history, ServerId::new(42));
        assert_eq!(restamped.len(), 50);
        for (a, b) in history.iter().zip(&restamped) {
            assert_eq!(b.server, ServerId::new(42));
            assert_eq!(a.time, b.time);
            assert_eq!(a.client, b.client);
            assert_eq!(a.rating, b.rating);
        }
    }
}
