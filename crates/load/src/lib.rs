//! hp-load: an open-loop load harness for the `hp-edge` front-end.
//!
//! Replays the paper's §5 population mixes — honest players,
//! hibernating attackers, windowed periodic attackers — against a
//! running edge at configurable rates: millions of simulated users,
//! hundreds of thousands of feedbacks per second (reached by batching
//! feedback lines into each `POST /ingest` body), with interleaved
//! `GET /assess` probes.
//!
//! Three properties matter more than raw speed:
//!
//! * **Open-loop arrival**: send times are scheduled up front and
//!   latency is measured from the *scheduled* time, so a struggling
//!   server shows up as queueing delay in the histogram instead of
//!   quietly throttling the generator (coordinated omission).
//! * **Deterministic population**: every feedback is a pure function of
//!   `(seed, server, t)` ([`population`]), so runs are reproducible and
//!   workers partition the population without coordination.
//! * **Exact accounting**: accepted/shed counts come from the service's
//!   own responses and are cross-checked against `/metrics` by the soak
//!   binary — the harness would catch a front-end that miscounts.
//!
//! Binaries: `hp-load` (CLI against any running edge) and `edge-soak`
//! (self-contained: boots service + edge in-process, runs a short soak,
//! writes `experiments/out/bench_edge.json` and asserts its SLO).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod population;
pub mod report;
pub mod runner;

pub use client::{HttpClient, Response};
pub use population::{BehaviorClass, FeedbackStream, PopulationMix};
pub use runner::{run, LoadConfig, LoadOutcome};
