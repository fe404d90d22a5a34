//! Edge-side counters, appended to the service's Prometheus exposition.
//!
//! The service already accounts for everything behind the shard
//! channels (ingested, shed, degraded, restarts…); this layer counts
//! what happens *at the socket*: connections accepted and refused,
//! responses by status code, protocol-defense trips (timeouts,
//! oversized requests, malformed heads), and per-route request
//! latency — first header byte to last response byte, the
//! client-observed duration the service-side histograms cannot see.
//! Shed/degraded accounting remains the service's single source of
//! truth — the edge does not duplicate those counters, it only adds the
//! network-visible ones.

use hp_service::obs::{render_latency_family, render_scalar_family, Family, LatencyHistogram};
use std::sync::atomic::{AtomicU64, Ordering};

/// Status codes the edge can emit, in exposition order.
pub const STATUSES: [u16; 12] = [200, 400, 404, 405, 408, 413, 422, 429, 431, 500, 503, 504];

/// The service routes with a per-route latency histogram, in exposition
/// order. `/assess` is the single-server GET, `/assess_batch` the POST
/// batch endpoint.
pub const ROUTES: [&str; 4] = ["/ingest", "/assess", "/assess_traced", "/assess_batch"];

/// Every family the edge itself adds to `/metrics`, in exposition order:
/// [`EdgeMetrics::render_prometheus`] writes the first seven, then come
/// the SLO monitor's own, then the server appends the two span-store
/// counters that close the list.
#[rustfmt::skip]
pub const FAMILIES: [Family; 9] = [
    Family::counter("hp_edge_connections_accepted_total", "Connections accepted and served."),
    Family::counter("hp_edge_connections_refused_total", "Connections refused by admission control."),
    Family::counter("hp_edge_responses_total", "Responses sent, by status code."),
    Family::counter("hp_edge_protocol_rejects_total", "Requests refused by a protocol defense (timeout, size cap, malformed)."),
    Family::counter("hp_edge_served_while_draining_total", "Requests answered after drain began."),
    Family::histogram("hp_edge_request_duration_seconds", "Client-observed request duration by route, first header byte to last response byte"),
    Family::gauge("hp_edge_build_info", "Edge build information (constant 1)."),
    Family::counter("hp_edge_spans_recorded_total", "Completed span trees recorded."),
    Family::counter("hp_edge_spans_evicted_total", "Span trees evicted from the recent ring."),
];

/// Socket-level counters. All relaxed atomics: they are monotone
/// counters scraped for trends, not synchronization points.
#[derive(Debug, Default)]
pub struct EdgeMetrics {
    /// Connections accepted and handed to a worker.
    pub connections_accepted: AtomicU64,
    /// Connections refused by admission control (all workers busy and
    /// the pending queue full) with an immediate `503`.
    pub connections_refused: AtomicU64,
    /// Responses sent, by status code (indexed as [`STATUSES`]).
    responses: [AtomicU64; STATUSES.len()],
    /// Requests that tripped a protocol defense (timeout, size cap,
    /// malformed head) — a subset of the 4xx/408 responses, kept
    /// separately so probes of hostile traffic don't require summing
    /// status codes.
    pub protocol_rejects: AtomicU64,
    /// Requests answered after the drain began (politely, with
    /// `connection: close`).
    pub served_while_draining: AtomicU64,
    /// Per-route request latency, first header byte to last response
    /// byte (indexed as [`ROUTES`]). Exemplar-linked: buckets remember
    /// the most recent traced request that landed in them.
    route_latency: [LatencyHistogram; ROUTES.len()],
}

impl EdgeMetrics {
    /// Records one response with `status`.
    pub fn record_response(&self, status: u16) {
        if let Some(idx) = STATUSES.iter().position(|&s| s == status) {
            self.responses[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one served request on `route` with its client-observed
    /// duration, linking `trace` as the bucket's exemplar when nonzero.
    /// Unknown routes are ignored (only [`ROUTES`] carry histograms).
    pub fn record_route(&self, route: &str, ns: u64, trace: u64) {
        if let Some(idx) = ROUTES.iter().position(|&r| r == route) {
            self.route_latency[idx].record_ns_traced(ns, trace);
        }
    }

    /// Requests recorded on `route` so far.
    pub fn route_count(&self, route: &str) -> u64 {
        ROUTES
            .iter()
            .position(|&r| r == route)
            .map_or(0, |idx| self.route_latency[idx].snapshot().count)
    }

    /// Responses sent with `status` so far.
    pub fn responses_with(&self, status: u16) -> u64 {
        STATUSES
            .iter()
            .position(|&s| s == status)
            .map_or(0, |idx| self.responses[idx].load(Ordering::Relaxed))
    }

    /// Renders the edge counters in Prometheus text exposition format
    /// (appended after the service's own `render_prometheus` output).
    pub fn render_prometheus(&self) -> String {
        let [accepted, refused, responses, rejects, draining, duration, build, ..] = &FAMILIES;
        let mut out = String::with_capacity(1024);
        let one = |counter: &AtomicU64| [("", counter.load(Ordering::Relaxed))];
        render_scalar_family(&mut out, accepted, one(&self.connections_accepted));
        render_scalar_family(&mut out, refused, one(&self.connections_refused));
        let by_status = STATUSES.iter().zip(&self.responses);
        let by_status =
            by_status.map(|(s, n)| (format!("status=\"{s}\""), n.load(Ordering::Relaxed)));
        render_scalar_family(&mut out, responses, by_status);
        render_scalar_family(&mut out, rejects, one(&self.protocol_rejects));
        render_scalar_family(&mut out, draining, one(&self.served_while_draining));
        let snapshots: Vec<_> = self
            .route_latency
            .iter()
            .map(LatencyHistogram::snapshot)
            .collect();
        let by_route = ROUTES
            .iter()
            .zip(&snapshots)
            .map(|(r, h)| (format!("route=\"{r}\""), h));
        render_latency_family(&mut out, duration, by_route);
        let labels = format!(
            "version=\"{}\",git=\"{}\"",
            env!("CARGO_PKG_VERSION"),
            option_env!("HP_GIT_HASH").unwrap_or("unknown"),
        );
        render_scalar_family(&mut out, build, [(labels, 1)]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_counters_index_by_status() {
        let m = EdgeMetrics::default();
        m.record_response(200);
        m.record_response(200);
        m.record_response(429);
        assert_eq!(m.responses_with(200), 2);
        assert_eq!(m.responses_with(429), 1);
        assert_eq!(m.responses_with(503), 0);
        // Unknown statuses are ignored, not a panic.
        m.record_response(999);
    }

    #[test]
    fn exposition_contains_every_status_series() {
        let m = EdgeMetrics::default();
        m.record_response(503);
        let text = m.render_prometheus();
        for status in STATUSES {
            assert!(text.contains(&format!("status=\"{status}\"")));
        }
        assert!(text.contains("hp_edge_responses_total{status=\"503\"} 1"));
    }

    /// FNV-1a (the pinned-bytes fingerprint).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Length and fingerprint of the edge + SLO exposition over a fixed
    /// script of writes (the `hp_edge_build_info{` sample, which names the
    /// build, dropped), as computed at the commit that still wrote every
    /// `# HELP` / `# TYPE` line by hand (PR 21's parent): declaring the
    /// families as rows must not move a byte of what a scraper reads.
    /// Re-derived since as that render (9 006 bytes) minus the
    /// `hp_edge_state` block, the one family deleted.
    #[test]
    fn edge_and_slo_exposition_bytes_are_pinned() {
        use hp_service::obs::{SloMonitor, SloObjectives};
        use std::time::Duration;
        let m = EdgeMetrics::default();
        m.connections_accepted.store(11, Ordering::Relaxed);
        m.connections_refused.store(12, Ordering::Relaxed);
        m.protocol_rejects.store(13, Ordering::Relaxed);
        m.served_while_draining.store(14, Ordering::Relaxed);
        for (i, status) in STATUSES.into_iter().enumerate() {
            for _ in 0..=i {
                m.record_response(status);
            }
        }
        for (i, route) in ROUTES.into_iter().enumerate() {
            m.record_route(route, 9_000 * (i as u64 + 1), 0xe0 + i as u64);
        }
        let slo = SloMonitor::new(SloObjectives {
            assess_p99: Duration::from_millis(10),
            max_shed_ratio: 0.2,
        });
        for _ in 0..97 {
            slo.record_assess(Duration::from_millis(1));
        }
        for _ in 0..3 {
            slo.record_assess(Duration::from_millis(50));
        }
        slo.record_ingest(900, 100);
        let mut text = m.render_prometheus();
        slo.render_prometheus(&mut text);
        let pinned: String = text
            .lines()
            .filter(|line| !line.starts_with("hp_edge_build_info{"))
            .flat_map(|line| [line, "\n"])
            .collect();
        assert_eq!(
            (pinned.len(), fnv1a(pinned.as_bytes())),
            (8_887, 0x89d2_526b_e531_dbc4),
            "{pinned}"
        );
    }

    #[test]
    fn route_histograms_render_with_exemplars_and_lint_clean() {
        let m = EdgeMetrics::default();
        m.record_route("/assess", 100_000, 0xfeed);
        m.record_route("/ingest", 50_000, 0);
        m.record_route("/not-a-route", 1, 0); // ignored, not a panic
        assert_eq!(m.route_count("/assess"), 1);
        assert_eq!(m.route_count("/ingest"), 1);
        assert_eq!(m.route_count("/not-a-route"), 0);
        let text = m.render_prometheus();
        assert!(
            text.contains("hp_edge_request_duration_seconds_bucket{route=\"/assess\""),
            "{text}"
        );
        assert!(
            text.contains("# {trace_id=\"000000000000feed\"} 0.0001"),
            "exemplar missing:\n{text}"
        );
        assert!(text.contains("hp_edge_build_info{version=\""), "{text}");
        let problems = hp_service::obs::lint_prometheus(&text);
        assert!(problems.is_empty(), "lint: {problems:?}");
    }
}
