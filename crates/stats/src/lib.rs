//! # hp-stats — statistics substrate for honest-player modeling
//!
//! This crate provides the statistical machinery behind the two-phase
//! reputation assessment of Zhang, Wei & Yu (*On the Modeling of Honest
//! Players in Reputation Systems*, ICDCS'08 / JCST'09):
//!
//! * exact discrete distributions ([`Binomial`], [`Bernoulli`]) with
//!   numerically stable log-space evaluation,
//! * empirical [`Histogram`]s over a bounded integer support,
//! * distribution [`distance`]s (L¹, total variation, L², KS, χ²),
//! * Monte-Carlo [`calibration`] of goodness-of-fit thresholds for the case
//!   the paper cares about: *the distribution parameter p is unknown* and is
//!   estimated from the same data that is being tested,
//! * the streaming [`PrefixSums`] that make the paper's O(n)
//!   multi-testing optimization possible,
//! * empirical quantiles.
//!
//! Everything is deterministic given a seed; see [`rng`].
//!
//! ## Example
//!
//! ```
//! use hp_stats::{Binomial, Histogram, distance::l1_distance};
//! use rand::SeedableRng;
//!
//! let b = Binomial::new(10, 0.9).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let samples: Vec<u32> = (0..500).map(|_| b.sample(&mut rng)).collect();
//! let hist = Histogram::from_samples(10, samples.iter().copied()).unwrap();
//! let d = l1_distance(&hist, &b.pmf_table());
//! assert!(d < 0.25, "500 honest samples sit close to the model: {d}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bernoulli;
pub mod beta_dist;
pub mod binomial;
pub mod calibration;
pub mod distance;
pub mod empirical;
pub mod error;
pub mod quantile;
pub mod rng;
pub mod special;
pub mod stream;
pub mod surface;

pub use bernoulli::Bernoulli;
pub use beta_dist::BetaDist;
pub use binomial::Binomial;
pub use calibration::{
    thread_calibration_nanos, CalibrationConfig, CalibrationEntry, CalibrationRow,
    CalibrationStats, ThresholdCalibrator, ThresholdProvenance, ThresholdView,
};
pub use distance::DistanceKind;
pub use empirical::Histogram;
pub use error::StatsError;
pub use quantile::quantile;
pub use rng::{derive_seed, seeded_rng};
pub use stream::PrefixSums;
pub use surface::{SurfaceLayer, SurfaceParams, ThresholdSurface};
