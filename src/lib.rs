//! # honest-players
//!
//! A Rust implementation of **two-phase reputation assessment** from
//! Zhang, Wei & Yu, *On the Modeling of Honest Players in Reputation
//! Systems* (ICDCS 2008 / JCST 24(5), 2009), together with everything
//! needed to reproduce the paper's evaluation.
//!
//! Reputation systems predict future behavior from past feedback — an
//! assumption *honest players* satisfy (their transaction outcomes are
//! i.i.d. Bernoulli trials driven by factors outside their control) and
//! adversaries deliberately violate. This library therefore screens a
//! server's transaction history against the honest-player statistical
//! model *before* applying any trust function:
//!
//! 1. **Phase 1 — behavior testing** ([`testing`]): window counts of good
//!    transactions must follow a binomial `B(m, p̂)` within a Monte-Carlo-
//!    calibrated L¹ distance. Variants: whole-history
//!    ([`testing::SingleBehaviorTest`]), every-suffix
//!    ([`testing::MultiBehaviorTest`], with the paper's O(n) optimization)
//!    and issuer-reordered ([`testing::CollusionResilientTest`]).
//! 2. **Phase 2 — trust functions** ([`trust`]): average, λ-weighted,
//!    beta, time-decay, windowed.
//!
//! The workspace also ships the evaluation substrate: a statistics crate
//! ([`stats`]), feedback stores ([`store`]: central, sharded/P2P, partial
//! visibility) and an agent simulator ([`sim`]: honest players,
//! hibernating/periodic/collusive attackers, client-arrival model).
//!
//! ## Quickstart
//!
//! ```
//! use honest_players::prelude::*;
//!
//! // Screen-then-trust pipeline with the paper's defaults (m=10, 95%).
//! let assessor = TwoPhaseAssessor::new(
//!     MultiBehaviorTest::new(BehaviorTestConfig::default())?,
//!     WeightedTrust::new(0.5)?,
//! );
//!
//! // An honest server with p = 0.95 …
//! let honest = honest_players::sim::workload::honest_history(800, 0.95, 1);
//! assert!(assessor.assess(&honest)?.is_accepted());
//!
//! // … and a hibernating attacker that cheats after a clean record.
//! let attacker = honest_players::sim::workload::hibernating_history(800, 0.95, 25, 1);
//! assert!(assessor.assess(&attacker)?.is_rejected());
//! # Ok::<(), honest_players::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hp_core::twophase::{Assessment, ShortHistoryPolicy, TwoPhaseAssessor};
pub use hp_core::{
    error::CoreError, testing, trust, twophase, ClientId, Feedback, Rating, ServerId,
    TransactionHistory, TrustValue,
};

/// Statistical substrate (distributions, distances, calibration).
pub use hp_stats as stats;

/// Agent simulation (honest players, attackers, client arrivals).
pub use hp_sim as sim;

/// Feedback storage (central, sharded, partial visibility).
pub use hp_store as store;

/// Concurrent online reputation service (sharded, incremental).
pub use hp_service as service;

/// The most commonly used items in one import.
pub mod prelude {
    pub use hp_core::testing::{
        BehaviorTest, BehaviorTestConfig, CollusionResilientTest, MultiBehaviorTest,
        SingleBehaviorTest, TestOutcome,
    };
    pub use hp_core::trust::{
        AverageTrust, BetaTrust, DecayTrust, TrustFunction, WeightedTrust, WindowedAverageTrust,
    };
    pub use hp_core::twophase::{Assessment, ShortHistoryPolicy, TwoPhaseAssessor};
    pub use hp_core::{
        ClientId, CoreError, Feedback, Rating, ServerId, TransactionHistory, TrustValue,
    };
    pub use hp_service::{
        AssessOutcome, Durability, IngestOutcome, IngestPolicy, ReputationService, ServiceConfig,
        ServiceStats,
    };
    pub use hp_store::{FeedbackStore, MemoryStore};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_pipeline() {
        let mut store = MemoryStore::new();
        let server = ServerId::new(1);
        for t in 0..300u64 {
            store.append(Feedback::new(
                t,
                server,
                ClientId::new(t % 9),
                Rating::from_good(t % 17 != 0),
            ));
        }
        let assessor = TwoPhaseAssessor::new(
            SingleBehaviorTest::new(BehaviorTestConfig::default()).unwrap(),
            AverageTrust::default(),
        );
        let assessment = assessor.assess(&store.history_of(server)).unwrap();
        // Regular once-every-17 failures are suspiciously regular or at
        // least conclusively assessed; what matters here is the plumbing.
        let _ = assessment;
    }
}
