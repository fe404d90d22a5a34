//! Observability: latency histograms, per-shard metrics, structured
//! tracing, request-scoped span trees, SLO burn-rate accounting, and the
//! phase-1 verdict audit trail.
//!
//! Everything in this module is dependency-free and lock-free on the hot
//! path. The pieces:
//!
//! * [`LatencyHistogram`] — fixed-bucket log-scale histograms (p50/p90/
//!   p99/max, mergeable) for the ingest, journal, and assess paths;
//! * [`MetricsRegistry`] — per-shard counters and gauges unified with the
//!   histograms and tracer; renders Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]) and a JSON snapshot for the
//!   bench harness ([`MetricsRegistry::render_json`]);
//! * [`Tracer`] / [`crate::span!`] — bounded per-shard event rings with
//!   global sequence numbers, off by default, drained on demand so chaos
//!   tests can assert causal ordering (journal-before-apply);
//! * [`AssessmentTrace`] — a flat audit record of *why* phase 1 decided,
//!   derived from the report inside an [`crate::Assessment`] (never
//!   recomputed, so traced and untraced assessments are bit-identical);
//! * [`SpanTree`] / [`SpanStore`] — per-request span trees stitched from
//!   edge read to response write, with a slow-request capture ring and
//!   by-ID lookup behind `GET /debug/slow` / `GET /debug/trace/{id}`;
//! * [`SloMonitor`] — windowed good/bad counts for the configured
//!   objectives, rendered as `hp_slo_*` burn-rate gauges;
//! * [`lint_prometheus`] — a promtool-style exposition lint used by the
//!   test suites to keep the text format honest.

mod audit;
mod histogram;
mod lint;
mod registry;
mod slo;
mod span;
mod trace;

pub use audit::{AssessScheme, AssessmentTrace, TraceVerdict, TracedAssessment};
pub use histogram::{LatencyHistogram, LatencySnapshot, BUCKETS};
pub use lint::lint_prometheus;
pub use registry::{
    explain_assessment, render_json, render_latency_family, render_prometheus,
    LatencyPath, MetricsRegistry, RegistrySnapshot, ShardSnapshot,
};
pub use slo::{SloBurns, SloMonitor, SloObjectives, ASSESS_BREACH_BUDGET};
pub use span::{
    format_trace_id, next_trace_id, parse_trace_id, SpanBuilder, SpanRecord, SpanStore, SpanTree,
};
pub use trace::{TraceEvent, TraceKind, TraceRing, Tracer};

// Re-export the macro under its natural path (`#[macro_export]` puts it
// at the crate root).
pub use crate::span;
