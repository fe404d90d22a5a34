//! Edge front-end configuration.

use hp_service::obs::SloObjectives;
use std::time::Duration;

/// Configuration for [`crate::EdgeServer`].
///
/// Every setting has an operational default; the two that deployments
/// most often touch are `addr` (bind address, `:0` picks an ephemeral
/// port) and `workers` (maximum concurrently served connections). The
/// socket bounds are fixed: `2 × workers` pending connections, a 16 KiB
/// head and an 8 MiB body, 5 s to deliver a head and 10 s a body, 30 s of
/// keep-alive idleness.
///
/// # Examples
///
/// ```
/// use hp_edge::EdgeConfig;
///
/// let config = EdgeConfig::default().with_addr("127.0.0.1:0").with_workers(4);
/// assert_eq!(config.workers, 4);
/// config.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads, each serving one connection at a time through its
    /// keep-alive loop. `0` resolves to the machine's available
    /// parallelism at start.
    pub workers: usize,
    /// When set, `GET /assess/{id}` passes it to
    /// [`assess_observed`](hp_service::ReputationService::assess_observed):
    /// past the deadline the response is the last published verdict,
    /// stamped degraded with its exact staleness, instead of waiting out
    /// a saturated shard.
    pub assess_deadline: Option<Duration>,
    /// When set, a background thread calls
    /// [`checkpoint`](hp_service::ReputationService::checkpoint) at this
    /// interval once the service is READY: every shard writes a durable
    /// snapshot and the calibration cache is persisted, bounding both
    /// recovery time and calibration loss after a SIGKILL. Meaningful
    /// only when the service config enables snapshots (the calibration
    /// persistence part works regardless).
    pub checkpoint_interval: Option<Duration>,
    /// Whether per-request span trees are collected (`/debug/slow`,
    /// `/debug/trace/{id}`, histogram exemplars). When off, the
    /// per-request cost of the tracing subsystem is a single relaxed
    /// atomic load.
    pub spans: bool,
    /// Service-level objectives driving the `hp_slo_*` burn-rate gauges
    /// and the `/healthz` `degraded` flip on a burning fast window.
    pub slo: SloObjectives,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            assess_deadline: None,
            checkpoint_interval: None,
            spans: true,
            slo: SloObjectives::default(),
        }
    }
}

impl EdgeConfig {
    /// Bind address (builder style).
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Worker thread count (builder style); `0` = available parallelism.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Assessment latency budget (builder style); see `assess_deadline`.
    #[must_use]
    pub fn with_assess_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.assess_deadline = deadline;
        self
    }

    /// Periodic checkpoint interval (builder style); see
    /// `checkpoint_interval`.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: Option<Duration>) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Span-tree collection on/off (builder style); see `spans`.
    #[must_use]
    pub fn with_spans(mut self, spans: bool) -> Self {
        self.spans = spans;
        self
    }

    /// Service-level objectives (builder style); see `slo`.
    #[must_use]
    pub fn with_slo(mut self, slo: SloObjectives) -> Self {
        self.slo = slo;
        self
    }

    /// The worker count with `0` resolved to available parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for a zero deadline or interval
    /// or an unattainable SLO objective.
    pub fn validate(&self) -> Result<(), String> {
        if self.assess_deadline.is_some_and(|d| d.is_zero()) {
            return Err("assess deadline must be nonzero when set".to_string());
        }
        if self.checkpoint_interval.is_some_and(|d| d.is_zero()) {
            return Err("checkpoint interval must be nonzero when set".to_string());
        }
        self.slo.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_resolves() {
        let c = EdgeConfig::default();
        c.validate().unwrap();
        assert!(c.effective_workers() >= 1);
    }

    #[test]
    fn zero_deadline_and_unattainable_slo_rejected() {
        assert!(EdgeConfig::default()
            .with_assess_deadline(Some(Duration::ZERO))
            .validate()
            .is_err());
        assert!(EdgeConfig::default()
            .with_slo(SloObjectives {
                max_shed_ratio: 0.0,
                ..SloObjectives::default()
            })
            .validate()
            .is_err());
    }

    #[test]
    fn builders_round_trip() {
        let c = EdgeConfig::default()
            .with_addr("0.0.0.0:8080")
            .with_workers(3);
        assert_eq!(c.addr, "0.0.0.0:8080");
        assert_eq!(c.effective_workers(), 3);
    }
}
