//! # hp-core — two-phase reputation assessment
//!
//! Implementation of the primary contribution of Zhang, Wei & Yu, *On the
//! Modeling of Honest Players in Reputation Systems* (ICDCS'08 / JCST'09).
//!
//! The crate is organized around the paper's two-phase pipeline:
//!
//! 1. **Behavior testing** ([`testing`]): does a server's transaction
//!    history look like the history of an *honest player* — one whose
//!    window counts of good transactions follow a binomial `B(m, p̂)`?
//!    Three schemes are provided:
//!    * [`testing::SingleBehaviorTest`] — one goodness-of-fit test over the
//!      whole history (the paper's *Scheme 1*),
//!    * [`testing::MultiBehaviorTest`] — the same test over every suffix,
//!      stepping back `k` transactions at a time, with both the naive
//!      O(n²) and the paper's optimized O(n) evaluation (*Scheme 2*),
//!    * [`testing::CollusionResilientTest`] — the §4 variant that re-orders
//!      feedback by issuer frequency before testing, defeating colluder-
//!      fueled reputations.
//! 2. **Trust functions** ([`trust`]): classical reputation aggregation —
//!    [`trust::AverageTrust`], [`trust::WeightedTrust`] (the λ-EWMA used in
//!    the paper's evaluation), plus the beta reputation baseline.
//!
//! [`TwoPhaseAssessor`] glues the phases together: only histories that pass
//! the behavior test are handed to the trust function.
//!
//! ## Example
//!
//! ```
//! use hp_core::testing::{BehaviorTest, BehaviorTestConfig, SingleBehaviorTest};
//! use hp_core::trust::AverageTrust;
//! use hp_core::{ClientId, Feedback, Rating, ServerId, TransactionHistory, TwoPhaseAssessor};
//!
//! // An honest server: each transaction is an independent Bernoulli trial
//! // with p = 0.95 (failures come from factors outside its control).
//! use rand::RngExt;
//! let mut rng = hp_stats::seeded_rng(42);
//! let mut history = TransactionHistory::new();
//! for t in 0..400u64 {
//!     let rating = Rating::from_good(rng.random::<f64>() < 0.95);
//!     history.push(Feedback::new(t, ServerId::new(1), ClientId::new(t % 13), rating));
//! }
//!
//! let test = SingleBehaviorTest::new(BehaviorTestConfig::default())?;
//! let assessor = TwoPhaseAssessor::new(test, AverageTrust::default());
//! let assessment = assessor.assess(&history)?;
//! assert!(assessment.is_accepted());
//! # Ok::<(), hp_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod feedback;
pub mod history;
pub mod id;
pub mod testing;
pub mod trust;
pub mod twophase;

pub use error::CoreError;
pub use feedback::{Feedback, Rating};
pub use history::{HistoryView, TieredHistory, TransactionHistory};
pub use id::{ClientId, ServerId};
pub use testing::{BehaviorTest, BehaviorTestConfig, TestOutcome};
pub use trust::{TrustFunction, TrustValue};
pub use twophase::{Assessment, ShortHistoryPolicy, TwoPhaseAssessor};
