//! # hp-sim — agent simulation for reputation systems
//!
//! The evaluation substrate for the honest-players paper: honest service
//! providers, the attacker strategies of §3 and §4, the probabilistic
//! client-arrival model of §5.2, and the experiment drivers behind every
//! figure in §5.
//!
//! ## Components
//!
//! * [`behavior`] — the [`behavior::ServerBehavior`] trait and honest
//!   players ([`behavior::HonestBehavior`]).
//! * [`attacker`] — hibernating, periodic, windowed-periodic and
//!   cheat-and-run attackers as pluggable behaviors, plus the *strategic*
//!   attacker drivers ([`scenario`]) that consult the deployed trust
//!   function and behavior test before every move.
//! * [`clients`] — the a₁/a₂/a₃ client-arrival model.
//! * [`engine`] — a small discrete-event loop that runs any behavior
//!   against a feedback store and records the trust trajectory.
//! * [`scenario`] — attack-cost experiments (Figs. 3–6).
//! * [`detection`] — detection-rate experiments (Fig. 7).
//! * [`ecosystem`] — a whole-marketplace welfare simulation (beyond the
//!   paper: does screening reduce the harm clients actually experience?).
//! * [`workload`] — synthetic history generators shared by tests/benches.
//!
//! ## Example: an honest player passes, a hibernator does not
//!
//! ```
//! use hp_core::testing::{BehaviorTest, BehaviorTestConfig, MultiBehaviorTest, TestOutcome};
//! use hp_sim::workload;
//!
//! let test = MultiBehaviorTest::new(BehaviorTestConfig::default())?;
//! let honest = workload::honest_history(1000, 0.95, 7);
//! assert_ne!(test.evaluate(&honest)?.outcome(), TestOutcome::Suspicious);
//!
//! let hibernator = workload::hibernating_history(1000, 0.95, 25, 7);
//! assert_eq!(test.evaluate(&hibernator)?.outcome(), TestOutcome::Suspicious);
//! # Ok::<(), hp_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacker;
pub mod behavior;
pub mod clients;
pub mod detection;
pub mod ecosystem;
pub mod engine;
pub mod metrics;
pub mod scenario;
pub mod workload;

pub use behavior::{BehaviorContext, HonestBehavior, ServerBehavior};
pub use clients::{ClientArrivalConfig, ClientPopulation, Experience};
pub use ecosystem::{run_marketplace, EcosystemConfig, EcosystemOutcome};
pub use engine::{Simulation, SimulationConfig, SimulationOutcome};
pub use metrics::{AttackCostResult, CollusionCostResult};
pub use scenario::{
    attack_cost, collusion_attack_cost, AttackCostConfig, CollusionConfig, Screening,
};
