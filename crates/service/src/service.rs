//! The front end: shard routing, batching, backpressure, and lifecycle.

use crate::config::{Durability, IngestPolicy, ServiceConfig};
use crate::faults::ShardFaults;
use crate::journal::FileJournal;
use crate::metrics::ServiceStats;
use crate::obs::{
    AssessmentTrace, LatencyPath, MetricsRegistry, ShardMetric, ShardMetrics, TracedAssessment,
};
use crate::shard::{
    Acked, AssessTimings, Command, Published, ShardContext, ShardHandle, ShardOccupancy,
    ShardSnapshots, ShardTiering,
};
use crate::snapshot::{BootProgress, SnapshotStore};
use crate::supervisor::spawn_supervised_shard;
use crossbeam::channel::{self, RecvTimeoutError, SendTimeoutError, Sender};
use hp_core::testing::MultiBehaviorTest;
use hp_core::twophase::Assessment;
use hp_core::{CoreError, Feedback, ServerId};
use hp_stats::ThresholdCalibrator;
use hp_store::ColdStore;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a service-wide [`ReputationService::checkpoint`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Shards that wrote a snapshot (0 when snapshots are disabled).
    pub shards_snapshotted: usize,
    /// Serialized snapshot bytes written across shards.
    pub snapshot_bytes: u64,
    /// Journal records dropped by compaction across shards.
    pub journal_records_compacted: u64,
    /// Calibration thresholds persisted alongside the checkpoint.
    pub calibration_entries: usize,
}

/// Calibration serving readiness, reported by
/// [`ReputationService::calibration_readiness`] for health endpoints: a
/// deployment that configured a threshold surface is "ready" once the
/// surface actually serves the effective window size within its error
/// bound (a surface whose measured bound exceeded the tolerance is
/// installed but bypassed — `surface_ready` stays false).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrationReadiness {
    /// Whether an interpolated threshold surface is configured.
    pub surface_configured: bool,
    /// Whether a built surface currently serves the effective test's
    /// window size within its measured error bound.
    pub surface_ready: bool,
    /// Entries resident in the shared calibration cache.
    pub cache_entries: usize,
}

/// Errors surfaced by [`ReputationService`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// An assessment or configuration error from the core pipeline.
    Core(CoreError),
    /// A shard worker is no longer reachable (restart budget exhausted or
    /// its thread exited).
    ShardUnavailable {
        /// Index of the unreachable shard.
        shard: usize,
    },
    /// An assessment deadline expired with no published verdict to
    /// degrade to.
    DeadlineExceeded {
        /// Index of the shard that missed the deadline.
        shard: usize,
    },
    /// The shard worker restarted while holding this request; no
    /// accepted feedback was lost, only this reply. Retry.
    Interrupted {
        /// Index of the restarting shard.
        shard: usize,
    },
    /// A shard's journal refused an ingest sub-batch (an I/O error on
    /// the append or its fsync). The sub-batch was neither acknowledged
    /// nor applied, and the journal holds none of it; the worker keeps
    /// serving. Retryable once the disk recovers.
    AppendFailed {
        /// Index of the refusing shard.
        shard: usize,
        /// The journal's error.
        reason: String,
    },
    /// A shard journal could not be opened or recovered at start-up.
    Journal {
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Core(e) => write!(f, "assessment error: {e}"),
            ServiceError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is unavailable")
            }
            ServiceError::DeadlineExceeded { shard } => {
                write!(f, "shard {shard} missed the assessment deadline")
            }
            ServiceError::Interrupted { shard } => {
                write!(f, "shard {shard} restarted while serving the request")
            }
            ServiceError::AppendFailed { shard, reason } => {
                write!(f, "shard {shard} refused the batch: {reason}")
            }
            ServiceError::Journal { reason } => write!(f, "journal error: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

/// Per-server answers from [`ReputationService::assess_many`], in request
/// order. Verdicts are shared (`Arc`): a duplicate request and the shard's
/// own caches all point at one report instance.
pub type BatchAssessments = Vec<(ServerId, Result<Arc<Assessment>, CoreError>)>;

/// What happened to a batch offered to [`ReputationService::ingest_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestOutcome {
    /// Feedbacks their shards took before the call returned: journaled
    /// (and fsynced under `FsyncPolicy::EveryBatch`) on a durable
    /// service, owed to the state by the supervisor on an ephemeral one.
    /// Either way they survive a worker crash; journaled ones survive a
    /// process crash too.
    pub accepted: usize,
    /// Feedbacks dropped by the [`IngestPolicy::TryFor`] policy because
    /// their shard had not taken them within the wait: never journaled,
    /// never applied.
    pub shed: usize,
}

/// Why an assessment was answered from the published-verdict cache
/// instead of freshly by the shard worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The deadline expired before the worker answered (queue backlog or
    /// a slow computation).
    DeadlineExceeded,
    /// The worker panicked while holding the request and is restarting.
    WorkerRestarting,
    /// The shard is permanently unavailable (restart budget exhausted).
    ShardUnavailable,
}

impl DegradedReason {
    /// The error a missed answer is when nothing was published to degrade to.
    fn into_error(self, shard: usize) -> ServiceError {
        match self {
            DegradedReason::DeadlineExceeded => ServiceError::DeadlineExceeded { shard },
            DegradedReason::WorkerRestarting => ServiceError::Interrupted { shard },
            DegradedReason::ShardUnavailable => ServiceError::ShardUnavailable { shard },
        }
    }
}

/// A stale-but-honest answer: the last verdict the shard published for
/// this server, stamped with how stale it is.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedAssessment {
    /// The last published assessment (shared with the shard's caches).
    pub assessment: Arc<Assessment>,
    /// The server's history version the assessment was computed at.
    pub computed_at_version: u64,
    /// The latest history version the shard had applied for this server
    /// when the verdict was last updated.
    pub latest_version: u64,
    /// Why the fresh path did not answer.
    pub reason: DegradedReason,
}

impl DegradedAssessment {
    /// Feedbacks ingested since this verdict was computed (`0` means the
    /// verdict is current despite being served from the cache).
    pub fn staleness(&self) -> u64 {
        self.latest_version.saturating_sub(self.computed_at_version)
    }
}

/// Answer from [`ReputationService::assess_observed`].
#[derive(Debug, Clone, PartialEq)]
pub enum AssessOutcome {
    /// The worker answered within the deadline.
    Fresh(Arc<Assessment>),
    /// The deadline expired (or the worker was restarting); this is the
    /// last published verdict, stamped with its staleness.
    Degraded(DegradedAssessment),
}

impl AssessOutcome {
    /// The assessment, fresh or degraded.
    pub fn assessment(&self) -> &Assessment {
        match self {
            AssessOutcome::Fresh(a) => a,
            AssessOutcome::Degraded(d) => &d.assessment,
        }
    }

    /// True when the answer came from the published-verdict cache.
    pub fn is_degraded(&self) -> bool {
        matches!(self, AssessOutcome::Degraded(_))
    }
}

/// A concurrent online reputation service.
///
/// Feedback events are ingested in batches and routed to shard worker
/// threads by server hash; each worker maintains per-server incremental
/// state (history with prefix sums, streaming trust, versioned assessment
/// cache), so ingest cost is O(1) per feedback regardless of history
/// length and `assess` never replays a history it has already screened.
///
/// Verdicts are exactly those of the offline
/// [`TwoPhaseAssessor`](hp_core::twophase::TwoPhaseAssessor) over the same
/// feedback sequence: phase-1 thresholds come from a deterministic, shared
/// calibrator, warmed at boot, and phase-2 trust states are bit-exact
/// streaming counterparts of the batch trust functions.
///
/// # Fault tolerance
///
/// A panicking worker is respawned by its supervisor (capped exponential
/// backoff) with no accepted feedback lost. With
/// [`Durability::Durable`](crate::Durability) every ingest batch is
/// appended to its shard's on-disk journal *before* it is acknowledged or
/// applied, so shard state is a pure fold over the journal: the respawn
/// replays it, and a whole process restart recovers every acknowledged
/// feedback. The default [`Durability::Ephemeral`](crate::Durability)
/// keeps no journal: the per-server state survives the panic, the one
/// record that was mid-apply is rolled back and the rest of its batch
/// retried. An ingest waits for its shards to take its batch, bounded
/// per the configured [`IngestPolicy`](crate::IngestPolicy), and
/// [`Self::assess_observed`] trades freshness for latency by answering
/// from the last published verdict when its deadline expires.
///
/// # Examples
///
/// ```
/// use hp_core::{ClientId, Feedback, Rating, ServerId};
/// use hp_service::{ReputationService, ServiceConfig};
///
/// let config = ServiceConfig::default()
///     .with_shards(2)
///     .with_test(
///         hp_core::testing::BehaviorTestConfig::builder()
///             .calibration_trials(200)
///             .build()?,
///     )
///     .with_calibration_surface(None); // calibrate on demand in doctests
/// let service = ReputationService::new(config)?;
///
/// let server = ServerId::new(7);
/// let feedbacks: Vec<Feedback> = (0..300)
///     .map(|t| Feedback::new(t, server, ClientId::new(t % 9), Rating::from_good(t % 17 != 0)))
///     .collect();
/// let outcome = service.ingest_batch(feedbacks)?;
/// assert_eq!(outcome.accepted, 300);
/// let assessment = service.assess(server)?;
/// assert!(assessment.trust().is_some() || assessment.is_rejected());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ReputationService {
    config: ServiceConfig,
    shards: Vec<ShardHandle>,
    obs: Arc<MetricsRegistry>,
    calibrator: Arc<ThresholdCalibrator>,
    /// Row jobs the calibrator had run when nothing it held was missing
    /// from its cache file and its binary — at its last save, or at a
    /// boot that ran none — plus one (0: not since boot).
    calibration_saved: AtomicU64,
}

impl ReputationService {
    /// Starts the service: validates the configuration, readies the
    /// shared threshold calibrator (persisted cache, surface, the rows
    /// below it), opens (and recovers) the per-shard journals, and spawns
    /// one supervised worker thread per shard.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Core`] for an invalid configuration or a
    /// calibration failure at boot, and [`ServiceError::Journal`] when a
    /// durable journal cannot be opened or recovered.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        Self::new_with_progress(config, None)
    }

    /// [`Self::new`] with live recovery-progress reporting: the caller
    /// keeps a clone of `progress` and can poll
    /// [`BootProgress::status`] from another thread while this
    /// constructor recovers the shards (the edge front-end surfaces it
    /// through `/healthz` while WARMING).
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn new_with_progress(
        config: ServiceConfig,
        progress: Option<Arc<BootProgress>>,
    ) -> Result<Self, ServiceError> {
        config.validate()?;
        if let Some(boot) = &progress {
            boot.set_shards(config.shards() as u64);
        }
        // The effective test resolves the calibration thread count (auto =
        // available parallelism) so the row jobs below run in parallel;
        // per-row calibration RNG keeps the resulting thresholds
        // bit-identical to a serial (offline) calibrator's.
        let effective_test = config.effective_test();
        let calibrator = Arc::new(
            ThresholdCalibrator::new(effective_test.calibration_config())
                .map_err(CoreError::from)?,
        );

        // Load the persisted calibration cache (if configured) *before*
        // anything calibrates: on a warm restart the surface installs
        // straight from the file (or rebuilds from the loaded rows without
        // Monte Carlo) and the rows below it are already held. A missing,
        // stale, or partly corrupt file degrades to online calibration —
        // the file is a cache, never a source of truth.
        if let Some(path) = config.calibration_cache() {
            let _ = crate::calcache::load(path, &calibrator);
        }
        // The default configuration's rows and surface were calibrated
        // when this binary was built: lend them to the calibrator for
        // whatever the file did not bring.
        crate::builtin::install(&calibrator, effective_test.window_size());

        // Build (or verify) the interpolated threshold surface and fill
        // the rows below it. No job runs for what the file or the binary
        // brought; a true cold boot of any other configuration runs them
        // all here, so that no first assessment waits on one.
        effective_test.prepare_calibrator(&calibrator)?;

        let obs = Arc::new(MetricsRegistry::new(config.shards()));
        obs.set_build_info(format!(
            "version=\"{}\",git=\"{}\",trust=\"{}\",shards=\"{}\"",
            env!("CARGO_PKG_VERSION"),
            option_env!("HP_GIT_HASH").unwrap_or("unknown"),
            config.trust().label(),
            config.shards(),
        ));
        let mut shards = Vec::with_capacity(config.shards());
        for shard in 0..config.shards() {
            let test = MultiBehaviorTest::with_calibrator(
                effective_test.clone(),
                Arc::clone(&calibrator),
            )?;
            let snapshots = open_snapshots(&config, shard)?;
            let journal = open_journal(&config, shard, obs.shard(shard))?;
            if let (Some(boot), Some(journal)) = (&progress, &journal) {
                boot.add_journal_records(journal.records());
            }
            let tiering = open_tiering(&config, shard)?;
            let ctx = ShardContext {
                shard,
                test,
                model: config.trust(),
                policy: config.short_history(),
                obs: Arc::clone(&obs),
                journal: journal.map(Mutex::new),
                published: Published::default(),
                faults: ShardFaults::for_config(&config, shard),
                snapshots,
                tiering,
                boot: progress.clone(),
                idle: Arc::default(),
            };
            shards.push(spawn_supervised_shard(shard, ctx));
        }
        // A boot that ran no row job holds nothing its file or its binary
        // lacks: nothing to save until a job runs.
        let booted_jobs = calibrator.stats().oracle_jobs;
        let service = ReputationService {
            config,
            shards,
            obs,
            calibrator,
            calibration_saved: AtomicU64::new(if booted_jobs == 0 { 1 } else { 0 }),
        };
        // A boot that ran row jobs holds thresholds no file has yet. Save
        // them now (best-effort, as `shutdown` does) rather than at the
        // first drain, so a SIGKILL before it costs no second surface build.
        if booted_jobs > 0 {
            let _ = service.save_calibration();
        }
        Ok(service)
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shard a server's feedback and queries are routed to.
    pub fn shard_of(&self, server: ServerId) -> usize {
        // SplitMix64 finalizer: ServerIds are often sequential, so spread
        // them before taking the residue.
        let mut z = server.value().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % self.shards.len() as u64) as usize
    }

    /// Ingests a batch of feedback events, routing each to its server's
    /// shard, and reports exactly what happened to them.
    ///
    /// Returns once every shard involved has answered for its sub-batch:
    /// a feedback counted `accepted` was taken by its shard — on a
    /// durable service appended to the shard's journal first, and fsynced
    /// under [`FsyncPolicy::EveryBatch`](crate::FsyncPolicy) — so it
    /// survives a crash of the worker or of the process from then on. The
    /// shard applies it after replying; a subsequent [`Self::assess`] of
    /// its server observes it (FIFO per shard), and per-server order
    /// within the batch is kept. A shard takes every ingest command
    /// queued at its head as one group commit: one journal write, at most
    /// one fsync, one reply each.
    ///
    /// The configured [`IngestPolicy`](crate::IngestPolicy) bounds the
    /// wait. [`IngestPolicy::Block`] waits as long as the shards need;
    /// [`IngestPolicy::TryFor`] sheds a sub-batch its shard has not taken
    /// within the wait — unless that shard was idle, and so is on its way
    /// to take it. Shedding is exact: one compare-exchange per sub-batch
    /// decides "taken" against "shed", so a shed feedback is never
    /// journaled or applied and every one is counted.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::ShardUnavailable`] if a worker is
    /// permanently gone, and [`ServiceError::AppendFailed`] if a shard's
    /// journal refused its sub-batch (which is then neither acknowledged
    /// nor applied). Sub-batches routed to healthy shards in the same call
    /// are still taken before the error returns.
    pub fn ingest_batch(
        &self,
        feedbacks: impl IntoIterator<Item = Feedback>,
    ) -> Result<IngestOutcome, ServiceError> {
        let mut per_shard: Vec<Vec<Feedback>> = vec![Vec::new(); self.shards.len()];
        for feedback in feedbacks {
            per_shard[self.shard_of(feedback.server)].push(feedback);
        }
        let deadline = match self.config.ingest_policy() {
            IngestPolicy::Block => None,
            IngestPolicy::TryFor(wait) => Some(Instant::now() + wait),
        };
        let mut outcome = IngestOutcome::default();
        let mut failure = None;
        let mut count = |shard: usize, acked: Acked, offered: usize| {
            let (accepted, shed) = match acked {
                Acked::Taken => (offered, 0),
                Acked::Shed => (0, offered),
                Acked::Refused(reason) => {
                    failure.get_or_insert(ServiceError::AppendFailed { shard, reason });
                    (0, 0)
                }
                Acked::Gone => {
                    failure.get_or_insert(ServiceError::ShardUnavailable { shard });
                    (0, 0)
                }
            };
            let metrics = self.obs.shard(shard);
            metrics.add(ShardMetric::Ingested, accepted as u64);
            metrics.add(ShardMetric::Shed, shed as u64);
            outcome.accepted += accepted;
            outcome.shed += shed;
        };
        // Every sub-batch is queued before any reply is awaited, so the
        // shards take them in parallel.
        let mut waits = Vec::new();
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let offered = batch.len();
            let (command, wait) = Command::ingest(batch);
            match self.queue(shard, command, deadline) {
                Ok(()) => waits.push((shard, offered, wait)),
                Err(SendTimeoutError::Timeout(_)) => count(shard, Acked::Shed, offered),
                Err(SendTimeoutError::Disconnected(_)) => count(shard, Acked::Gone, offered),
            }
        }
        for (shard, offered, wait) in waits {
            count(
                shard,
                wait.wait(deadline, &self.shards[shard].idle),
                offered,
            );
        }
        match failure {
            Some(error) => Err(error),
            None => Ok(outcome),
        }
    }

    /// Assesses one server: phase-1 behavior screening plus phase-2 trust,
    /// answered from the versioned cache when the history is unchanged.
    /// Blocks until the shard answers.
    ///
    /// The assessment's report is a
    /// [`TestReport::MultiSummary`](hp_core::testing::TestReport::MultiSummary)
    /// — verdict, counts and the binding suffix, the same few hundred
    /// bytes at any history length. The per-suffix record is
    /// `MultiBehaviorTest::evaluate_detailed` on an offline history.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Core`] for assessment failures,
    /// [`ServiceError::ShardUnavailable`] if the worker is permanently
    /// gone, [`ServiceError::Interrupted`] if it restarted while holding
    /// this request (safe to retry).
    pub fn assess(&self, server: ServerId) -> Result<Arc<Assessment>, ServiceError> {
        self.assess_fresh(server).map(|(assessment, _)| assessment)
    }

    /// Assesses one server and returns the verdict together with its
    /// audit trail: which phase-1 scheme ran, the binding suffix, the
    /// measured L¹ distance, the calibrated threshold, and the pass/fail
    /// margin, plus whether the versioned cache answered.
    ///
    /// The assessment is the exact value [`Self::assess`] would have
    /// returned — the trace is derived from the verdict's embedded
    /// report after the fact, never recomputed.
    ///
    /// # Errors
    ///
    /// As [`Self::assess`].
    pub fn assess_traced(&self, server: ServerId) -> Result<TracedAssessment, ServiceError> {
        let (assessment, timings) = self.assess_fresh(server)?;
        let trace =
            AssessmentTrace::from_assessment(server, assessment.as_ref(), timings.from_cache);
        Ok(TracedAssessment { assessment, trace })
    }

    /// [`Self::assess_observed`] without a deadline, which is always fresh.
    fn assess_fresh(
        &self,
        server: ServerId,
    ) -> Result<(Arc<Assessment>, AssessTimings), ServiceError> {
        match self.assess_observed(server, None, 0)? {
            (AssessOutcome::Fresh(assessment), Some(timings)) => Ok((assessment, timings)),
            _ => unreachable!("an assessment without a deadline is fresh"),
        }
    }

    /// Assesses one server, stamping the command with `trace` (so the
    /// latency-histogram exemplars carry the request ID) and returning
    /// the shard-side stage timings alongside the verdict.
    ///
    /// With `deadline: None` this is [`Self::assess`]. With a deadline it
    /// never waits past it on a slow shard: if the shard has not answered
    /// by then, the last verdict it published for this server is returned
    /// as [`AssessOutcome::Degraded`], stamped with the history version it
    /// was computed at and the latest version the shard has applied, so
    /// the caller can see exactly how stale it is. Timings are `Some`
    /// exactly when the answer is fresh — a degraded answer never entered
    /// the shard queue, so there is nothing to attribute.
    ///
    /// # Errors
    ///
    /// As [`Self::assess`]; with a deadline, only when there is nothing
    /// to degrade to: [`ServiceError::DeadlineExceeded`] when the deadline
    /// expires and no verdict was ever published for this server,
    /// [`ServiceError::Interrupted`] / [`ServiceError::ShardUnavailable`]
    /// likewise when the worker restarted or is gone.
    pub fn assess_observed(
        &self,
        server: ServerId,
        deadline: Option<Duration>,
        trace: u64,
    ) -> Result<(AssessOutcome, Option<AssessTimings>), ServiceError> {
        let shard = self.shard_of(server);
        let start = Instant::now();
        let deadline = deadline.map(|d| start + d);
        let command = |_, reply| Command::assess(vec![server], reply, trace);
        let (_, answer) = self.round_trip([shard], command, deadline).remove(0);
        let answer = match answer {
            Ok(mut answers) => {
                let (assessment, timings) = answers.pop().expect("one answer per server")?;
                (AssessOutcome::Fresh(assessment), Some(timings))
            }
            Err(missed) => {
                let published = deadline.and_then(|_| {
                    let published = self.shards[shard].published.lock();
                    published.get(&server).cloned()
                });
                let Some(pv) = published else {
                    return Err(missed.into_error(shard));
                };
                let metrics = self.obs.shard(shard);
                metrics.add(ShardMetric::Degraded, 1);
                // A degraded answer is served from the published-verdict
                // cache — it is a cache event like any other serve.
                metrics.add(ShardMetric::CacheHits, 1);
                let degraded = DegradedAssessment {
                    assessment: pv.assessment,
                    computed_at_version: pv.computed_at_version,
                    latest_version: pv.latest_version,
                    reason: missed,
                };
                (AssessOutcome::Degraded(degraded), None)
            }
        };
        self.obs
            .latency(LatencyPath::AssessE2e)
            .record_ns_traced(start.elapsed().as_nanos() as u64, trace);
        Ok(answer)
    }

    /// Assesses many servers with one command per shard, returning answers
    /// in the order requested.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShardUnavailable`] / [`ServiceError::Interrupted`]
    /// if any involved worker is gone or restarted mid-request;
    /// per-server assessment failures are reported inline.
    pub fn assess_many(&self, servers: &[ServerId]) -> Result<BatchAssessments, ServiceError> {
        self.assess_many_traced(servers, 0)
    }

    /// [`Self::assess_many`] carrying a request trace ID stamped onto the
    /// per-shard commands (0 behaves exactly like `assess_many`).
    ///
    /// # Errors
    ///
    /// As [`Self::assess_many`].
    pub fn assess_many_traced(
        &self,
        servers: &[ServerId],
        trace: u64,
    ) -> Result<BatchAssessments, ServiceError> {
        let start = Instant::now();
        let mut per_shard: Vec<Vec<ServerId>> = vec![Vec::new(); self.shards.len()];
        for &server in servers {
            per_shard[self.shard_of(server)].push(server);
        }
        let involved: Vec<usize> = (0..per_shard.len())
            .filter(|&shard| !per_shard[shard].is_empty())
            .collect();
        let command = |shard: usize, reply| {
            Command::assess(std::mem::take(&mut per_shard[shard]), reply, trace)
        };
        // Each shard answers its servers in request order.
        let mut answers: Vec<_> = self.shards.iter().map(|_| Vec::new().into_iter()).collect();
        for (shard, answer) in self.round_trip(involved, command, None) {
            answers[shard] = answer
                .map_err(|missed| missed.into_error(shard))?
                .into_iter();
        }
        self.obs
            .latency(LatencyPath::AssessE2e)
            .record_n(start.elapsed().as_nanos() as u64, servers.len() as u64);
        Ok(servers
            .iter()
            .map(|&server| {
                let answer = answers[self.shard_of(server)]
                    .next()
                    .expect("one answer per server");
                (server, answer.map(|(assessment, _)| assessment))
            })
            .collect())
    }

    /// The one round trip to the shards: queues `command(shard, reply)` on
    /// each of `shards` — every one before any answer is awaited, so the
    /// shards work in parallel — and returns their answers in that order.
    /// With a `deadline`, neither the queueing nor the wait outlasts it.
    fn round_trip<T>(
        &self,
        shards: impl IntoIterator<Item = usize>,
        mut command: impl FnMut(usize, Sender<T>) -> Command,
        deadline: Option<Instant>,
    ) -> Vec<(usize, Result<T, DegradedReason>)> {
        let asked: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let (reply, answer) = channel::bounded(1);
                let sent = self.queue(shard, command(shard, reply), deadline);
                let sent = sent.map_err(|e| match e {
                    SendTimeoutError::Timeout(_) => DegradedReason::DeadlineExceeded,
                    SendTimeoutError::Disconnected(_) => DegradedReason::ShardUnavailable,
                });
                (shard, sent.map(|()| answer))
            })
            .collect();
        asked
            .into_iter()
            .map(|(shard, answer)| {
                let answer = answer.and_then(|answer| {
                    let Some(deadline) = deadline else {
                        return answer.recv().map_err(|_| DegradedReason::WorkerRestarting);
                    };
                    answer
                        .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                        .map_err(|e| match e {
                            RecvTimeoutError::Timeout => DegradedReason::DeadlineExceeded,
                            RecvTimeoutError::Disconnected => DegradedReason::WorkerRestarting,
                        })
                });
                (shard, answer)
            })
            .collect()
    }

    /// Queues `command` on `shard`, waiting for room in its queue until
    /// `deadline` when one is given; the error returns the command.
    fn queue(
        &self,
        shard: usize,
        command: Command,
        deadline: Option<Instant>,
    ) -> Result<(), SendTimeoutError<Command>> {
        let tx = &self.shards[shard].tx;
        match deadline {
            None => tx
                .send(command)
                .map_err(|e| SendTimeoutError::Disconnected(e.0)),
            Some(deadline) => {
                tx.send_timeout(command, deadline.saturating_duration_since(Instant::now()))
            }
        }
    }

    /// A snapshot of operational counters and shard occupancy.
    pub fn stats(&self) -> ServiceStats {
        self.sample_gauges();
        // Ask every shard for its occupancy *before* reading the
        // registry: the round-trip is a barrier (each worker drains its
        // queue first, and publishes its tier byte sums before it
        // replies), so worker-side counters for commands enqueued before
        // this call are visible in the registry read.
        let command = |_, reply| Command::Occupancy { reply };
        let occupancies = self.round_trip(0..self.shards.len(), command, None);
        let mut stats = ServiceStats::from_registry(&self.obs.snapshot());
        for (_, occupancy) in occupancies {
            let occupancy: ShardOccupancy = occupancy.unwrap_or_default();
            stats.tracked_servers += occupancy.servers;
            stats.tracked_feedbacks += occupancy.feedbacks;
        }
        stats
    }

    /// The unified metrics registry (per-shard counters, latency
    /// histograms). Shared: clones of the `Arc` observe live
    /// updates.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.obs)
    }

    /// Renders the current metrics as Prometheus text exposition
    /// (format 0.0.4), sampling queue depths and calibration gauges
    /// first.
    pub fn render_prometheus(&self) -> String {
        self.sample_gauges();
        self.obs.render_prometheus()
    }

    /// Renders the current latency quantiles and totals as a JSON object,
    /// a machine-readable snapshot (the `online_service` example checks
    /// its path histograms and percentiles).
    pub fn metrics_json(&self) -> String {
        self.sample_gauges();
        self.obs.render_json()
    }

    /// Samples point-in-time gauges (queue depths, calibration cache)
    /// into the registry so snapshots and expositions are current.
    fn sample_gauges(&self) {
        for (shard, handle) in self.shards.iter().enumerate() {
            let depth = handle.queue_depth() as u64;
            self.obs.shard(shard).set(ShardMetric::QueueDepth, depth);
        }
        self.obs.set_calibration(
            self.calibrator.stats(),
            self.calibrator.cache_len() as u64,
            self.calibrator.cache_bytes() as u64,
        );
    }

    /// Calibration serving readiness, for health endpoints: whether an
    /// interpolated threshold surface is configured and currently serving
    /// the effective test's window size, plus resident cache entries.
    pub fn calibration_readiness(&self) -> CalibrationReadiness {
        let m = self.config.effective_test().window_size();
        let surface_configured = self.calibrator.config().surface.is_some();
        let surface_ready = self.calibrator.surface().is_some_and(|s| s.serves(m));
        CalibrationReadiness {
            surface_configured,
            surface_ready,
            cache_entries: self.calibrator.cache_len(),
        }
    }

    /// Writes the calibration cache to the configured
    /// [`ServiceConfig::with_calibration_cache`] path, returning how many
    /// thresholds it holds (`Ok(0)` when no path is configured). Only a
    /// row job makes something the file lacks, so a call that follows no
    /// job since this process last saved — most periodic checkpoints —
    /// leaves the file as it is.
    ///
    /// A boot that calibrated and [`Self::shutdown`] call this
    /// automatically; exposing it lets an edge front-end (or an operator
    /// endpoint) checkpoint the cache while the service keeps running.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Journal`] when the file cannot be written.
    pub fn save_calibration(&self) -> Result<usize, ServiceError> {
        let Some(path) = self.config.calibration_cache() else {
            return Ok(0);
        };
        // Read before the save: a job that lands meanwhile may miss the
        // file, and then the next call saves again.
        let jobs = self.calibrator.stats().oracle_jobs + 1;
        if self.calibration_saved.load(Ordering::Relaxed) == jobs {
            return Ok(self.calibrator.cache_len());
        }
        let saved =
            crate::calcache::save(path, &self.calibrator).map_err(|e| ServiceError::Journal {
                reason: format!("save calibration cache {}: {e}", path.display()),
            })?;
        self.calibration_saved.store(jobs, Ordering::Relaxed); // a statistic
        Ok(saved)
    }

    /// Takes a checkpoint across the whole service: every shard writes a
    /// durable state snapshot (and compacts its journal per the policy),
    /// and the calibration cache is persisted alongside — so a SIGKILL
    /// right after a checkpoint loses neither verdict state nor
    /// calibration warmth.
    ///
    /// Each shard writes its snapshot as a due checkpoint does: it goes
    /// on journaling and acknowledging ingest while the snapshot is
    /// written, and answers once the write is done. An ingest acked
    /// meanwhile is in the journal tail, not in this snapshot.
    ///
    /// Requires [`ServiceConfig::with_snapshots`]; without it the shard
    /// side is a no-op and only the calibration cache is written. Shard
    /// snapshot failures are counted (`hp_snapshot_failures_total`), not errored:
    /// the journal remains the source of truth either way.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Journal`] when the calibration cache path
    /// is configured but cannot be written.
    pub fn checkpoint(&self) -> Result<CheckpointSummary, ServiceError> {
        let mut summary = CheckpointSummary::default();
        let command = |_, reply| Command::Checkpoint { reply };
        for (_, info) in self.round_trip(0..self.shards.len(), command, None) {
            if let Ok(Some(info)) = info {
                summary.shards_snapshotted += 1;
                summary.snapshot_bytes += info.bytes;
                summary.journal_records_compacted += info.compacted;
            }
        }
        summary.calibration_entries = self.save_calibration()?;
        Ok(summary)
    }

    /// Shuts the service down gracefully: every shard serves the
    /// commands already queued (journaling queued ingests), takes a
    /// final snapshot (when snapshots are enabled), flushes its
    /// journal, and joins; the calibration cache is persisted if a path
    /// is configured. Acknowledged feedback is never lost to a shutdown;
    /// with a durable journal it survives to the next start.
    ///
    /// Dropping the service performs the same drain (but not the
    /// calibration save) — this method makes the sequence explicit.
    pub fn shutdown(mut self) {
        // Best-effort: a full disk must not block the drain below.
        let _ = self.save_calibration();
        for handle in &mut self.shards {
            handle.shutdown();
        }
    }
}

/// Opens the snapshot store for one shard when snapshots are enabled
/// (they require durable journals, enforced by `validate`).
fn open_snapshots(
    config: &ServiceConfig,
    shard: usize,
) -> Result<Option<ShardSnapshots>, ServiceError> {
    let Some(policy) = config.snapshots() else {
        return Ok(None);
    };
    let Durability::Durable { dir, .. } = config.durability() else {
        return Ok(None); // unreachable after validate(); be lenient
    };
    let store = SnapshotStore::open(dir, shard as u32, config.shards() as u32).map_err(|e| {
        ServiceError::Journal {
            reason: format!("open snapshot store {}: {e}", dir.display()),
        }
    })?;
    Ok(Some(ShardSnapshots {
        store: Mutex::new(store),
        policy: *policy,
    }))
}

/// Builds the tiering context for one shard when tiering is enabled,
/// opening its cold-segment store when a spill budget is set (spill
/// requires durable journals + snapshots, enforced by `validate`). The
/// segment directory sits beside the journals as
/// `shard-<i>.segments/`.
fn open_tiering(
    config: &ServiceConfig,
    shard: usize,
) -> Result<Option<ShardTiering>, ServiceError> {
    let Some(policy) = config.tiering() else {
        return Ok(None);
    };
    let cold = match (policy.spill_budget_bytes, config.durability()) {
        (Some(_), Durability::Durable { dir, .. }) => {
            let path = dir.join(format!("shard-{shard}.segments"));
            let store =
                ColdStore::open(&path, shard as u32).map_err(|e| ServiceError::Journal {
                    reason: format!("open cold-segment store {}: {e}", path.display()),
                })?;
            Some(store)
        }
        _ => None,
    };
    Ok(Some(ShardTiering::new(*policy, cold)))
}

/// Opens (and recovers) the journal for one shard of a durable service,
/// crediting torn bytes to the shard's metric block; an ephemeral service has none.
fn open_journal(
    config: &ServiceConfig,
    shard: usize,
    metrics: &ShardMetrics,
) -> Result<Option<FileJournal>, ServiceError> {
    match config.durability() {
        Durability::Ephemeral => Ok(None),
        Durability::Durable { dir, fsync } => {
            std::fs::create_dir_all(dir).map_err(|e| ServiceError::Journal {
                reason: format!("create {}: {e}", dir.display()),
            })?;
            let path = dir.join(format!("shard-{shard}.hpj"));
            let (journal, recovered) =
                FileJournal::open(&path, shard as u32, config.shards() as u32, *fsync).map_err(
                    |e| ServiceError::Journal {
                        reason: format!("open {}: {e}", path.display()),
                    },
                )?;
            // Recovered records count toward journal_records/_bytes so the
            // stats describe the durable sequence, not just this process's
            // appends. `records()` is absolute: it includes the segments
            // the open did not re-scan and any compacted base.
            let recovered_bytes = journal.records() * crate::journal::RECORD_LEN;
            metrics.add(ShardMetric::JournalRecords, journal.records());
            metrics.add(ShardMetric::JournalBytes, recovered_bytes);
            metrics.add(ShardMetric::TornBytes, recovered.torn_bytes);
            Ok(Some(journal))
        }
    }
}

impl fmt::Debug for ReputationService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReputationService")
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

// Workers shut down via ShardHandle::drop: each handle sends Shutdown and
// joins its thread, after draining commands already queued (FIFO).

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrustModel;
    use hp_core::testing::BehaviorTestConfig;
    use hp_core::{ClientId, Rating};

    fn fast_config() -> ServiceConfig {
        ServiceConfig::default()
            .with_shards(3)
            .with_test(
                BehaviorTestConfig::builder()
                    .calibration_trials(200)
                    .build()
                    .unwrap(),
            )
            .with_calibration_surface(None)
    }

    fn feedbacks_for(server: ServerId, n: u64, bad_every: u64) -> Vec<Feedback> {
        (0..n)
            .map(|t| {
                Feedback::new(
                    t,
                    server,
                    ClientId::new(t % 9),
                    Rating::from_good(t % bad_every != 0),
                )
            })
            .collect()
    }

    #[test]
    fn ingest_and_assess_round_trip() {
        let service = ReputationService::new(fast_config()).unwrap();
        let server = ServerId::new(1);
        let outcome = service
            .ingest_batch(feedbacks_for(server, 300, 17))
            .unwrap();
        assert_eq!(outcome.accepted, 300);
        assert_eq!(outcome.shed, 0);
        let assessment = service.assess(server).unwrap();
        assert!(assessment.trust().is_some() || assessment.is_rejected());
        let stats = service.stats();
        assert_eq!(stats.ingested_feedbacks, 300);
        assert_eq!(stats.assessments_served, 1);
        assert_eq!(stats.tracked_servers, 1);
        assert_eq!(
            stats.journal_records, 0,
            "an ephemeral service has no journal"
        );
        assert_eq!(stats.shard_restarts, 0);
    }

    #[test]
    fn repeat_assessments_hit_the_cache() {
        let service = ReputationService::new(fast_config()).unwrap();
        let server = ServerId::new(2);
        service
            .ingest_batch(feedbacks_for(server, 200, 13))
            .unwrap();
        let a = service.assess(server).unwrap();
        let b = service.assess(server).unwrap();
        assert_eq!(a, b);
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn assess_many_preserves_request_order() {
        let service = ReputationService::new(fast_config()).unwrap();
        let servers: Vec<ServerId> = (0..20).map(ServerId::new).collect();
        let mut all = Vec::new();
        for (i, &server) in servers.iter().enumerate() {
            all.extend(feedbacks_for(server, 120 + i as u64, 11));
        }
        service.ingest_batch(all).unwrap();
        let answers = service.assess_many(&servers).unwrap();
        assert_eq!(answers.len(), servers.len());
        for (i, (server, answer)) in answers.iter().enumerate() {
            assert_eq!(*server, servers[i]);
            assert!(answer.is_ok());
        }
    }

    #[test]
    fn assess_many_duplicates_share_one_answer() {
        let service = ReputationService::new(fast_config()).unwrap();
        let server = ServerId::new(3);
        service.ingest_batch(feedbacks_for(server, 100, 9)).unwrap();
        let answers = service.assess_many(&[server, server, server]).unwrap();
        assert_eq!(answers.len(), 3);
        let first = answers[0].1.clone().unwrap();
        for (id, answer) in answers {
            assert_eq!(id, server);
            assert_eq!(answer.unwrap(), first);
        }
    }

    #[test]
    fn sharding_is_stable_and_in_range() {
        let service = ReputationService::new(fast_config()).unwrap();
        for id in 0..500 {
            let s = ServerId::new(id);
            let shard = service.shard_of(s);
            assert!(shard < 3);
            assert_eq!(shard, service.shard_of(s));
        }
    }

    #[test]
    fn weighted_model_round_trips() {
        let config = fast_config().with_trust(TrustModel::Weighted { lambda: 0.5 });
        let service = ReputationService::new(config).unwrap();
        let server = ServerId::new(8);
        service
            .ingest_batch(feedbacks_for(server, 400, 23))
            .unwrap();
        let assessment = service.assess(server).unwrap();
        if let Some(trust) = assessment.trust() {
            assert!((0.0..=1.0).contains(&trust.value()));
        }
    }

    #[test]
    fn assess_observed_generous_deadline_is_fresh() {
        let service = ReputationService::new(fast_config()).unwrap();
        let server = ServerId::new(12);
        service.ingest_batch(feedbacks_for(server, 150, 7)).unwrap();
        let (outcome, timings) = service
            .assess_observed(server, Some(Duration::from_secs(30)), 0)
            .unwrap();
        assert!(!outcome.is_degraded());
        assert!(timings.is_some(), "a fresh answer carries its timings");
        assert_eq!(outcome.assessment(), &*service.assess(server).unwrap());
    }

    #[test]
    fn assess_observed_unknown_server_has_nothing_to_degrade_to() {
        let service = ReputationService::new(fast_config()).unwrap();
        // Zero deadline: the send may still slip through an empty queue,
        // but the reply wait is what matters — an unknown server has no
        // published verdict, so a timeout must be the typed error, while
        // an answered request is a fresh assessment of an empty history.
        match service.assess_observed(ServerId::new(9999), Some(Duration::ZERO), 0) {
            Ok((outcome, _)) => assert!(!outcome.is_degraded()),
            Err(e) => assert!(matches!(e, ServiceError::DeadlineExceeded { .. })),
        }
    }

    #[test]
    fn graceful_shutdown_drains() {
        let service = ReputationService::new(fast_config()).unwrap();
        let server = ServerId::new(21);
        service
            .ingest_batch(feedbacks_for(server, 200, 13))
            .unwrap();
        service.shutdown();
    }
}
