//! Observability: latency histograms, per-shard metrics, request-scoped
//! span trees, SLO burn-rate accounting, and the phase-1 verdict audit
//! trail.
//!
//! Everything in this module is dependency-free and lock-free on the hot
//! path. The pieces:
//!
//! * [`LatencyHistogram`] — fixed-bucket log-scale histograms (p50/p90/
//!   p99/max, mergeable) for the ingest, journal, and assess paths;
//! * [`METRIC_TABLE`] — the one declaration of the metric set: a row per
//!   exposition family, which storage, snapshots, both renderings,
//!   [`crate::ServiceStats`] and the catalogue tests iterate;
//! * [`MetricsRegistry`] — per-shard counters and gauges unified with the
//!   histograms; renders Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]) and a JSON snapshot
//!   ([`MetricsRegistry::render_json`]). [`render_scalar_family`] and
//!   [`render_latency_family`] are the only writers of a `HELP` /
//!   `TYPE` header, for this crate's families and `hp-edge`'s alike;
//! * [`AssessmentTrace`] — a flat audit record of *why* phase 1 decided,
//!   derived from the report inside an
//!   [`Assessment`](hp_core::twophase::Assessment) (never recomputed, so
//!   traced and untraced assessments are bit-identical);
//! * [`SpanTree`] / [`SpanStore`] — per-request span trees stitched from
//!   edge read to response write, with a slow-request capture ring and
//!   by-ID lookup behind `GET /debug/slow` / `GET /debug/trace/{id}`;
//! * [`SloMonitor`] — windowed good/bad counts for the configured
//!   objectives, rendered as `hp_slo_*` burn-rate gauges;
//! * [`lint_prometheus`] / [`lint_catalogue`] — a promtool-style
//!   exposition lint and the table ⇄ exposition bijection check, used by
//!   the test suites to keep the text format and the catalogue honest.

mod audit;
mod histogram;
mod lint;
mod registry;
mod slo;
mod span;

pub use audit::{AssessScheme, AssessmentTrace, TraceVerdict, TracedAssessment};
pub use histogram::{LatencyHistogram, LatencySnapshot, BUCKETS};
pub use lint::{lint_catalogue, lint_prometheus};
pub(crate) use registry::ShardMetrics;
#[cfg(test)]
pub(crate) use registry::Source;
pub use registry::{
    explain_assessment, render_latency_family, render_scalar_family, Family, Kind, LatencyPath,
    MetricRow, MetricsRegistry, RegistrySnapshot, ShardMetric, ShardSnapshot, METRIC_TABLE,
};
pub use slo::{SloBurns, SloMonitor, SloObjectives, ASSESS_BREACH_BUDGET};
pub use span::{
    format_trace_id, next_trace_id, parse_trace_id, SpanBuilder, SpanRecord, SpanStore, SpanTree,
};
