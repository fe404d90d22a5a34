//! hp-service: a concurrent online reputation service with incremental
//! two-phase assessment.
//!
//! The offline pipeline in `hp-core` answers "is this history consistent
//! with an honest player?" for one history at a time. This crate turns
//! that into a *service*: feedback arrives continuously in batches,
//! servers are hashed across shard worker threads, and every shard keeps
//! per-server incremental state so that
//!
//! * **ingest** is O(1) per feedback regardless of history length (prefix
//!   sums and streaming trust advance in place), and
//! * **assess** is answered from a versioned cache when nothing changed,
//!   and otherwise re-runs only phase-1 screening over the maintained
//!   prefix sums — never a from-scratch replay of the history.
//!
//! Verdicts are exactly those of the offline
//! [`TwoPhaseAssessor`](hp_core::twophase::TwoPhaseAssessor): phase-1
//! thresholds come from a deterministic shared calibrator (its surface
//! and the rows below it made ready at start-up) and the streaming trust
//! states are bit-exact counterparts of the batch trust functions. The
//! property tests in `tests/equivalence.rs` and the `online_service`
//! example both enforce this against [`replay::OfflineReference`].
//!
//! # Quick start
//!
//! ```
//! use hp_core::{ClientId, Feedback, Rating, ServerId};
//! use hp_service::{ReputationService, ServiceConfig};
//!
//! let config = ServiceConfig::default()
//!     .with_shards(2)
//!     .with_test(
//!         hp_core::testing::BehaviorTestConfig::builder()
//!             .calibration_trials(200)
//!             .build()?,
//!     )
//!     .with_calibration_surface(None);
//! let service = ReputationService::new(config)?;
//!
//! let server = ServerId::new(1);
//! service.ingest_batch((0..400).map(|t| {
//!     Feedback::new(t, server, ClientId::new(t % 11), Rating::from_good(t % 19 != 0))
//! }))?;
//! let assessment = service.assess(server)?;
//! println!("accepted: {}", assessment.is_accepted());
//! println!("{:?}", service.stats());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builtin;
pub mod calcache;
mod config;
mod faults;
pub mod journal;
mod metrics;
pub mod obs;
pub mod replay;
mod service;
mod shard;
mod snapshot;
mod state;
mod supervisor;

pub use config::{
    Durability, IngestPolicy, ServiceConfig, SnapshotPolicy, TieringPolicy, TrustModel,
};
#[cfg(feature = "fault-injection")]
pub use faults::{CheckpointGate, FaultPlan, TearPoint};
pub use journal::FsyncPolicy;
pub use metrics::ServiceStats;
pub use obs::{AssessmentTrace, MetricsRegistry, TracedAssessment};
pub use replay::OfflineReference;
pub use service::{
    AssessOutcome, BatchAssessments, CalibrationReadiness, CheckpointSummary, DegradedAssessment,
    DegradedReason, IngestOutcome, ReputationService, ServiceError,
};
pub use shard::AssessTimings;
pub use snapshot::{BootProgress, BootStatus};

// Surface parameters ride on `ServiceConfig::with_calibration_surface`;
// re-exported so front-ends (hp-edge) can build them without a direct
// hp-stats dependency.
pub use hp_stats::SurfaceParams;
