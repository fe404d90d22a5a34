//! hp-edge: a dependency-free HTTP/1.1 network front-end for the
//! sharded reputation service.
//!
//! `hp-service` answers assessments behind in-process channels; this
//! crate puts a socket in front of it so the paper's pipeline can be
//! operated — and load-tested — as a network service. The design goal
//! is *boring robustness* on hostile input with zero new dependencies:
//! the HTTP layer is hand-rolled over `std::net`, bounded everywhere
//! (head size, body size, head/body delivery deadlines, pending
//! connections), and every way a client can misbehave maps to a typed
//! status instead of a panicked worker or a wedged shard.
//!
//! # Endpoints
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/ingest` | POST | Feedback lines `time,server,client,±`; `429` + exact counts when shed |
//! | `/assess/{id}` | GET | One verdict; degraded + staleness-stamped past the deadline |
//! | `/assess_traced/{id}` | GET | Verdict + audit record (phase-1 statistics, raw bits) |
//! | `/assess` | POST | Batched verdicts, one server id per line |
//! | `/metrics` | GET | Service Prometheus exposition + `hp_edge_*` socket counters + `hp_slo_*` burn rates |
//! | `/healthz` | GET | `warming`/`ready`/`degraded`/`draining` + shard state (degraded on a burning fast SLO window) |
//! | `/version` | GET | Build identity: crate version, git hash, trust model, shard count |
//! | `/debug/slow` | GET | Slowest captured span trees per route |
//! | `/debug/trace/{id}` | GET | One span tree by trace ID (from an `x-hp-trace` echo or a histogram exemplar) |
//!
//! Service requests carry a trace ID (client-supplied `x-hp-trace`
//! header or edge-generated), echoed back on the response; span trees
//! attribute the request's time across admission wait, edge read, shard
//! queue wait, compute, and response write.
//!
//! # Quick start
//!
//! ```
//! use hp_edge::{EdgeConfig, EdgeServer};
//! use hp_service::{ReputationService, ServiceConfig};
//! use std::io::{Read, Write};
//! use std::sync::Arc;
//!
//! let service_config = ServiceConfig::default()
//!     .with_shards(2)
//!     .with_test(
//!         hp_core::testing::BehaviorTestConfig::builder()
//!             .calibration_trials(200)
//!             .build()?,
//!     )
//!     .with_calibration_surface(None);
//! let service = Arc::new(ReputationService::new(service_config)?);
//! let edge = EdgeServer::serve(service, EdgeConfig::default().with_workers(2))?;
//!
//! let mut conn = std::net::TcpStream::connect(edge.local_addr())?;
//! conn.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")?;
//! let mut response = String::new();
//! conn.read_to_string(&mut response)?;
//! assert!(response.starts_with("HTTP/1.1 200"));
//! edge.drain();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// `signals` registers a SIGTERM handler through the raw C `signal`
// symbol (the crate is std-only); that module is the only unsafe code
// of the workspace outside its tests.
#![deny(unsafe_op_in_unsafe_fn)]

mod config;
pub mod http;
pub mod metrics;
mod server;
pub mod signals;
pub mod wire;

pub use config::EdgeConfig;
pub use metrics::EdgeMetrics;
pub use server::EdgeServer;
