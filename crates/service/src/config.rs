//! Service configuration.

#[cfg(feature = "fault-injection")]
use crate::faults::FaultPlan;
use crate::journal::FsyncPolicy;
use hp_core::testing::BehaviorTestConfig;
use hp_core::twophase::ShortHistoryPolicy;
use hp_core::CoreError;
use hp_stats::SurfaceParams;
use std::path::PathBuf;
use std::time::Duration;

/// Which phase-2 trust function the service maintains incrementally.
///
/// Both variants have exact streaming counterparts
/// ([`hp_core::trust::incremental`]), which is what makes per-feedback
/// ingest O(1): the service never replays a history to refresh trust.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrustModel {
    /// [`hp_core::trust::AverageTrust`] — trust is the good-feedback ratio.
    Average,
    /// [`hp_core::trust::WeightedTrust`] — EWMA with mixing factor λ.
    Weighted {
        /// The mixing factor λ ∈ (0, 1].
        lambda: f64,
    },
}

impl Default for TrustModel {
    fn default() -> Self {
        // The paper's experiments use λ = 0.5 (§5.1).
        TrustModel::Weighted { lambda: 0.5 }
    }
}

impl TrustModel {
    /// A short human/metric-label form of the model, used by the
    /// `hp_build_info` gauge (e.g. `average`, `weighted(λ=0.5)`).
    pub fn label(&self) -> String {
        match self {
            TrustModel::Average => "average".to_string(),
            TrustModel::Weighted { lambda } => format!("weighted(λ={lambda})"),
        }
    }
}

/// How long `ingest_batch` waits for a shard to take a sub-batch — to
/// find it room in the shard's queue (1024 commands) and then to
/// dequeue it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Wait until the shard takes it — lossless backpressure.
    #[default]
    Block,
    /// Wait up to the given duration, then shed what a busy shard has not
    /// taken — bounded backpressure. An idle shard is on its way to take
    /// the sub-batch and is never shed at, so `TryFor(Duration::ZERO)`
    /// sheds at once exactly when the shard is busy.
    TryFor(
        /// Longest the whole call waits for its shards to take its
        /// sub-batches.
        Duration,
    ),
}

/// What a shard has besides its in-memory state, and so how a crashed
/// worker is recovered.
///
/// `Durable` writes framed, checksummed records to `dir/shard-<i>.hpj`
/// before every in-memory apply: shard state is a pure fold over that
/// journal, the supervisor replays it to rebuild a crashed worker, and a
/// service restarted on the same directory recovers every acknowledged
/// feedback. `Ephemeral` keeps no journal and no second copy of what it
/// accepted: the per-server state *is* the record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Durability {
    /// No journal. The per-server state outlives a worker panic in place:
    /// the supervisor rolls the one record that was mid-apply back to the
    /// mark written before it (trusting only the append-only history
    /// columns up to the mark), applies the rest of that batch, and
    /// resumes — no accepted feedback is lost and a respawn costs one
    /// server plus one batch, whatever the shard holds. Nothing survives
    /// the process; and a panic inside a tiering fold, which cannot be
    /// rolled back, fails the shard
    /// ([`ServiceError::ShardUnavailable`](crate::ServiceError)) rather
    /// than serve from a torn state.
    #[default]
    Ephemeral,
    /// On-disk write-ahead journal, one per shard.
    Durable {
        /// Directory for the `shard-<i>.hpj` journal files (and the
        /// sealed `shard-<i>-<base>.hpj` segments of compacting ones).
        dir: PathBuf,
        /// When appended records are fsynced.
        fsync: FsyncPolicy,
    },
}

/// Checkpoint cadence and journal compaction.
///
/// Snapshots bound recovery time: a restarted shard loads its newest
/// valid snapshot and replays only the journal tail past it, instead of
/// folding the whole journal. Each shard keeps its two newest snapshots
/// and deletes older files after each checkpoint. They require
/// [`Durability::Durable`] — there is nothing durable to snapshot
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// A shard checkpoints automatically once this many records have
    /// been journalled since its last snapshot (`0` disables automatic
    /// checkpoints; explicit [`crate::ReputationService::checkpoint`]
    /// calls and the drain-time checkpoint still run).
    pub interval_records: u64,
    /// Delete, at each checkpoint, the sealed journal segments below the
    /// older retained snapshot's offset (every checkpoint rolls the
    /// journal into a sealed segment either way; without this, every
    /// record is kept). Keeps disk usage O(interval) instead of
    /// O(history); full-journal replay is then no longer possible, but a
    /// corrupted newest snapshot still leaves the older one and its tail.
    pub compact_journal: bool,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy {
            interval_records: 100_000,
            compact_journal: true,
        }
    }
}

/// Tiered-history policy: windowed compaction plus optional cold-segment
/// spill.
///
/// Compaction folds whole 64-outcome words older than the assessment
/// horizon into two exact counts (outcomes and good ones), keeping a full-resolution
/// bit suffix of at least `horizon` outcomes. Because the horizon also caps
/// the behavior test's suffix grid (see [`ServiceConfig::effective_test`]),
/// every suffix the test sweeps fits the retained bits and verdicts stay
/// bit-identical to the untiered service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieringPolicy {
    /// Assessment horizon in transactions: the newest `horizon` outcomes
    /// of every history stay at full bit resolution. The paper's longest
    /// experiment horizon is ~2000 transactions (§5), so the default
    /// keeps 2048 — the next word multiple.
    pub horizon: usize,
    /// Per-shard budget for hot-tier (full-resolution suffix) resident
    /// bytes. When the hot tier exceeds it at an ingest-batch boundary,
    /// the coldest servers' histories are spilled to segment files and
    /// faulted back on access, one positioned read of the record each.
    /// `None` disables spilling; compaction alone still bounds
    /// per-server residency.
    pub spill_budget_bytes: Option<u64>,
}

impl Default for TieringPolicy {
    fn default() -> Self {
        TieringPolicy {
            horizon: 2048,
            spill_budget_bytes: None,
        }
    }
}

impl TieringPolicy {
    fn validate(&self) -> Result<(), CoreError> {
        if self.horizon == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "tiering horizon must be at least 1 transaction".into(),
            });
        }
        Ok(())
    }
}

/// Configuration for [`crate::ReputationService`].
///
/// # Examples
///
/// ```
/// use hp_service::{ServiceConfig, TrustModel};
///
/// let config = ServiceConfig::default()
///     .with_shards(2)
///     .with_trust(TrustModel::Average);
/// assert_eq!(config.shards(), 2);
/// config.validate()?;
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    shards: usize,
    test: BehaviorTestConfig,
    trust: TrustModel,
    short_history: ShortHistoryPolicy,
    /// Where the calibration cache is persisted across restarts (`None`
    /// disables persistence). Loaded first thing at boot, written on
    /// graceful shutdown, keyed by the calibrator fingerprint so a
    /// configuration change invalidates the file instead of serving
    /// thresholds calibrated under different knobs.
    calibration_cache: Option<PathBuf>,
    /// Interpolated threshold-surface parameters applied on top of the
    /// test configuration (`None` leaves the test's own setting; see
    /// [`Self::with_calibration_surface`]). The surface is gated by its
    /// measured error bound and falls back to the oracle, so it is a
    /// deployment-time latency knob, not a semantics change.
    calibration_surface: Option<SurfaceParams>,
    ingest_policy: IngestPolicy,
    durability: Durability,
    snapshots: Option<SnapshotPolicy>,
    tiering: Option<TieringPolicy>,
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            test: BehaviorTestConfig::default(),
            trust: TrustModel::default(),
            short_history: ShortHistoryPolicy::default(),
            calibration_cache: None,
            calibration_surface: Some(SurfaceParams::default()),
            ingest_policy: IngestPolicy::default(),
            durability: Durability::default(),
            snapshots: None,
            tiering: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl ServiceConfig {
    /// Number of shard worker threads (builder style).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The phase-1 behavior-test configuration (builder style).
    #[must_use]
    pub fn with_test(mut self, test: BehaviorTestConfig) -> Self {
        self.test = test;
        self
    }

    /// The phase-2 trust model (builder style).
    #[must_use]
    pub fn with_trust(mut self, trust: TrustModel) -> Self {
        self.trust = trust;
        self
    }

    /// Policy for histories too short to test (builder style).
    #[must_use]
    pub fn with_short_history(mut self, policy: ShortHistoryPolicy) -> Self {
        self.short_history = policy;
        self
    }

    /// Persists the calibration cache at this path (builder style):
    /// loaded before anything is calibrated when the service starts,
    /// written when it shuts down gracefully (or via
    /// [`crate::ReputationService::save_calibration`]). A warm restart
    /// then never repeats a Monte-Carlo row job this deployment has
    /// already run — and because the rows round-trip bit-exactly, warm
    /// verdicts stay bit-identical to cold ones.
    #[must_use]
    pub fn with_calibration_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.calibration_cache = Some(path.into());
        self
    }

    /// Replaces the interpolated threshold surface's parameters (builder
    /// style; the default is [`SurfaceParams::default`]). `None` leaves
    /// the test configuration's own setting, which unless it names a
    /// surface means none: boot warms nothing and every oracle row is
    /// calibrated the first time it is asked for. A surface is built at
    /// boot (or loaded from the persisted calibration cache) for the
    /// configured window size, with the oracle rows below its `k_min`
    /// that the test can ask for, and consulted before the rows — with
    /// oracle fallback whenever the measured error bound exceeds the
    /// configured tolerance.
    #[must_use]
    pub fn with_calibration_surface(mut self, surface: Option<SurfaceParams>) -> Self {
        self.calibration_surface = surface;
        self
    }

    /// What to do when a shard queue is full (builder style).
    #[must_use]
    pub fn with_ingest_policy(mut self, policy: IngestPolicy) -> Self {
        self.ingest_policy = policy;
        self
    }

    /// Journal placement and fsync policy (builder style).
    #[must_use]
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Enables per-shard snapshots with this checkpoint policy (builder
    /// style). Requires durable journals ([`Self::with_durability`]);
    /// [`Self::validate`] rejects the combination with
    /// [`Durability::Ephemeral`].
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshots = Some(policy);
        self
    }

    /// Enables tiered history storage with this policy (builder style).
    ///
    /// Spilling ([`TieringPolicy::spill_budget_bytes`]) additionally
    /// requires durable journals *and* snapshots: segment references are
    /// only persisted inside snapshots, and cold segments are reclaimed
    /// at checkpoint boundaries. [`Self::validate`] rejects a spill
    /// budget without both.
    #[must_use]
    pub fn with_tiering(mut self, policy: TieringPolicy) -> Self {
        self.tiering = Some(policy);
        self
    }

    /// Deterministic fault plan for chaos testing (builder style).
    ///
    /// Only available with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Number of shard worker threads.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The phase-1 behavior-test configuration.
    pub fn test(&self) -> &BehaviorTestConfig {
        &self.test
    }

    /// The phase-2 trust model.
    pub fn trust(&self) -> TrustModel {
        self.trust
    }

    /// Policy for histories too short to test.
    pub fn short_history(&self) -> ShortHistoryPolicy {
        self.short_history
    }

    /// The behavior-test configuration the service actually runs: the
    /// configured test calibrating on
    /// [`std::thread::available_parallelism`] threads (a row's samples
    /// depend on the seed and the row alone, so thresholds are
    /// bit-identical at every thread count), the surface applied, and,
    /// when tiering is enabled, the suffix grid capped at the tiering
    /// horizon so the multi-suffix sweep never queries outcomes that
    /// compaction has folded away. Exposed so replay/equivalence tooling
    /// can reproduce the exact service setup.
    pub fn effective_test(&self) -> BehaviorTestConfig {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut test = self.test.clone().with_calibration_threads(threads);
        if self.calibration_surface.is_some() {
            test = test.with_calibration_surface(self.calibration_surface);
        }
        if let Some(tiering) = &self.tiering {
            let capped = test
                .max_suffix()
                .map_or(tiering.horizon, |m| m.min(tiering.horizon));
            test = test.with_max_suffix(Some(capped));
        }
        test
    }

    /// Where the calibration cache persists across restarts, if anywhere.
    pub fn calibration_cache(&self) -> Option<&std::path::Path> {
        self.calibration_cache.as_deref()
    }

    /// The configured threshold-surface parameters (`None` = the test
    /// configuration's own setting).
    pub fn calibration_surface(&self) -> Option<SurfaceParams> {
        self.calibration_surface
    }

    /// The full-queue policy applied by `ingest_batch`.
    pub fn ingest_policy(&self) -> IngestPolicy {
        self.ingest_policy
    }

    /// Journal placement and fsync policy.
    pub fn durability(&self) -> &Durability {
        &self.durability
    }

    /// The snapshot/checkpoint policy, if snapshots are enabled.
    pub fn snapshots(&self) -> Option<&SnapshotPolicy> {
        self.snapshots.as_ref()
    }

    /// The tiered-history policy, if tiering is enabled.
    pub fn tiering(&self) -> Option<&TieringPolicy> {
        self.tiering.as_ref()
    }

    /// The configured fault plan, if any.
    ///
    /// Only available with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero shards, an invalid
    /// trust model, snapshots or a spill budget without what they need,
    /// bad surface parameters, or an invalid behavior-test configuration.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.shards == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "service needs at least one shard".into(),
            });
        }
        if let TrustModel::Weighted { lambda } = self.trust {
            if !(lambda > 0.0 && lambda <= 1.0) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("weighted trust λ must lie in (0, 1], got {lambda}"),
                });
            }
        }
        if self.snapshots.is_some() && matches!(self.durability, Durability::Ephemeral) {
            return Err(CoreError::InvalidConfig {
                reason: "snapshots require durable journals \
                         (with_durability(Durability::Durable { .. }))"
                    .into(),
            });
        }
        if let Some(tiering) = &self.tiering {
            tiering.validate()?;
            if tiering.spill_budget_bytes.is_some() {
                if matches!(self.durability, Durability::Ephemeral) {
                    return Err(CoreError::InvalidConfig {
                        reason: "cold-segment spill requires durable journals \
                                 (with_durability(Durability::Durable { .. }))"
                            .into(),
                    });
                }
                if self.snapshots.is_none() {
                    return Err(CoreError::InvalidConfig {
                        reason: "cold-segment spill requires snapshots \
                                 (with_snapshots): segment references persist \
                                 only inside snapshots and segments are \
                                 reclaimed at checkpoint boundaries"
                            .into(),
                    });
                }
            }
        }
        // The test as the service runs it: the surface applied, and the
        // suffix grid capped at the tiering horizon, which must still
        // leave one (a horizon below the test's minimum suffix would make
        // every history long enough to tier untestable).
        self.effective_test().validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ServiceConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(ServiceConfig::default().with_shards(0).validate().is_err());
    }

    #[test]
    fn bad_lambda_rejected() {
        let c = ServiceConfig::default().with_trust(TrustModel::Weighted { lambda: 1.5 });
        assert!(c.validate().is_err());
    }

    #[test]
    fn calibration_surface_flows_into_effective_test() {
        let default = ServiceConfig::default();
        assert_eq!(
            default.calibration_surface(),
            Some(SurfaceParams::default())
        );
        assert_eq!(
            default.effective_test().calibration_surface(),
            Some(SurfaceParams::default())
        );
        // `None` is "the test's own setting", which by default is none.
        let off = ServiceConfig::default().with_calibration_surface(None);
        assert_eq!(off.calibration_surface(), None);
        assert_eq!(off.effective_test().calibration_surface(), None);

        let params = SurfaceParams {
            tolerance: 0.02,
            ..SurfaceParams::default()
        };
        let on = ServiceConfig::default().with_calibration_surface(Some(params));
        assert_eq!(on.calibration_surface(), Some(params));
        assert_eq!(on.effective_test().calibration_surface(), Some(params));
        on.validate().unwrap();
        let own = off
            .clone()
            .with_test(off.test().clone().with_calibration_surface(Some(params)));
        assert_eq!(own.effective_test().calibration_surface(), Some(params));

        let bad = ServiceConfig::default().with_calibration_surface(Some(SurfaceParams {
            tolerance: f64::NAN,
            ..SurfaceParams::default()
        }));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builders_round_trip() {
        let c = ServiceConfig::default().with_shards(8);
        assert_eq!(c.shards(), 8);
        c.validate().unwrap();
    }

    #[test]
    fn fault_tolerance_builders_round_trip() {
        let c = ServiceConfig::default()
            .with_ingest_policy(IngestPolicy::TryFor(Duration::ZERO))
            .with_durability(Durability::Durable {
                dir: PathBuf::from("/tmp/journals"),
                fsync: crate::journal::FsyncPolicy::EveryBatch,
            });
        assert_eq!(c.ingest_policy(), IngestPolicy::TryFor(Duration::ZERO));
        assert!(matches!(c.durability(), Durability::Durable { .. }));
        c.validate().unwrap();
    }

    #[test]
    fn snapshot_policy_validation() {
        // Snapshots without a durable journal are rejected.
        let c = ServiceConfig::default().with_snapshots(SnapshotPolicy::default());
        assert!(c.validate().is_err());
        let durable = Durability::Durable {
            dir: PathBuf::from("/tmp/journals"),
            fsync: crate::journal::FsyncPolicy::Never,
        };
        let c = ServiceConfig::default()
            .with_durability(durable)
            .with_snapshots(SnapshotPolicy::default());
        c.validate().unwrap();
    }

    #[test]
    fn tiering_policy_validation() {
        // Compaction alone needs no durability.
        let c = ServiceConfig::default().with_tiering(TieringPolicy::default());
        c.validate().unwrap();
        // A zero horizon is rejected.
        let c = ServiceConfig::default().with_tiering(TieringPolicy {
            horizon: 0,
            ..TieringPolicy::default()
        });
        assert!(c.validate().is_err());
        // A spill budget without durable journals is rejected…
        let spill = TieringPolicy {
            horizon: 2048,
            spill_budget_bytes: Some(1 << 20),
        };
        let c = ServiceConfig::default().with_tiering(spill);
        assert!(c.validate().is_err());
        // …and without snapshots…
        let durable = Durability::Durable {
            dir: PathBuf::from("/tmp/journals"),
            fsync: crate::journal::FsyncPolicy::Never,
        };
        let c = ServiceConfig::default()
            .with_durability(durable.clone())
            .with_tiering(spill);
        assert!(c.validate().is_err());
        // …but with both it is accepted.
        let c = ServiceConfig::default()
            .with_durability(durable)
            .with_snapshots(SnapshotPolicy::default())
            .with_tiering(spill);
        c.validate().unwrap();
        assert_eq!(c.tiering(), Some(&spill));
    }

    #[test]
    fn tiering_caps_effective_suffix_grid() {
        let plain = ServiceConfig::default();
        assert_eq!(
            plain.effective_test().max_suffix(),
            plain.test().max_suffix()
        );

        let tiered = ServiceConfig::default().with_tiering(TieringPolicy {
            horizon: 1500,
            spill_budget_bytes: None,
        });
        assert_eq!(tiered.effective_test().max_suffix(), Some(1500));

        // An explicit max_suffix below the horizon wins; above, the
        // horizon wins.
        let tight = tiered
            .clone()
            .with_test(tiered.test().clone().with_max_suffix(Some(600)));
        assert_eq!(tight.effective_test().max_suffix(), Some(600));
        let loose = tiered
            .clone()
            .with_test(tiered.test().clone().with_max_suffix(Some(9000)));
        assert_eq!(loose.effective_test().max_suffix(), Some(1500));

        // A horizon below the test's minimum suffix leaves no testable
        // suffix grid and is rejected.
        let c = ServiceConfig::default().with_tiering(TieringPolicy {
            horizon: 1,
            spill_budget_bytes: None,
        });
        assert!(c.validate().is_err());
    }
}
