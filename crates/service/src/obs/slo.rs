//! SLO burn-rate monitoring over fast/slow windows.
//!
//! Two objectives cover the service's externally visible promises:
//!
//! * **assess latency** — at most [`ASSESS_BREACH_BUDGET`] of
//!   assessments may exceed the configured latency objective (a "p99 ≤
//!   X" promise expressed as an error budget);
//! * **shed ratio** — at most the configured fraction of offered
//!   feedbacks may be shed by admission control.
//!
//! Each observation lands in a ring of 10-second buckets covering the
//! last hour. Burn rate over a window is
//! `bad_fraction / budget_fraction`: `1.0` means the error budget is
//! being consumed exactly as fast as it accrues; sustained `> 1.0` on
//! the **fast window** (5 minutes) means the objective is being missed
//! *right now*, which is when `/healthz` flips to `degraded`. The slow
//! window (1 hour) catches slow leaks that never trip the fast alarm.
//! This is the standard multi-window burn-rate construction, sized for
//! a single process rather than a fleet.
//!
//! Counters are relaxed atomics; bucket reuse is epoch-stamped (a bucket
//! whose epoch is stale is reset by the first writer of the new epoch),
//! so recording never takes a lock and racing writers at a bucket
//! boundary can at worst misplace a handful of observations by one
//! 10-second bucket.

use super::registry::{render_scalar_family, Family};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Seconds covered by one bucket.
const BUCKET_SECS: u64 = 10;
/// Buckets in the ring: one hour.
const BUCKETS: usize = 360;
/// Buckets in the fast window: five minutes.
const FAST_BUCKETS: u64 = 30;
/// Error budget for the latency objective: a "p99 ≤ X" promise allows
/// 1% of requests over X.
pub const ASSESS_BREACH_BUDGET: f64 = 0.01;

/// The configurable objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObjectives {
    /// Assess-latency objective: at most 1% of assessments
    /// ([`ASSESS_BREACH_BUDGET`]) may take longer than this.
    pub assess_p99: Duration,
    /// Largest acceptable fraction of offered feedbacks shed by
    /// admission control.
    pub max_shed_ratio: f64,
}

impl Default for SloObjectives {
    fn default() -> Self {
        // Deliberately lenient defaults: a deployment tightens these to
        // its own promises via the edge flags. The point of defaults is
        // that the burn-rate plumbing is always exercised, not that they
        // bind for every test rig.
        SloObjectives {
            assess_p99: Duration::from_secs(1),
            max_shed_ratio: 0.5,
        }
    }
}

impl SloObjectives {
    /// Validates the objectives.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the latency objective is zero or the
    /// shed ratio lies outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.assess_p99.is_zero() {
            return Err("SLO assess-latency objective must be nonzero".to_string());
        }
        if !(self.max_shed_ratio > 0.0 && self.max_shed_ratio <= 1.0) {
            return Err(format!(
                "SLO shed-ratio objective must lie in (0, 1], got {}",
                self.max_shed_ratio
            ));
        }
        Ok(())
    }
}

/// One epoch-stamped good/bad bucket.
#[derive(Debug, Default)]
struct Bucket {
    epoch: AtomicU64,
    good: AtomicU64,
    bad: AtomicU64,
}

/// A ring of good/bad buckets with windowed sums.
#[derive(Debug)]
struct WindowedCounts {
    buckets: Vec<Bucket>,
    total_good: AtomicU64,
    total_bad: AtomicU64,
}

impl WindowedCounts {
    fn new() -> WindowedCounts {
        WindowedCounts {
            buckets: (0..BUCKETS).map(|_| Bucket::default()).collect(),
            total_good: AtomicU64::new(0),
            total_bad: AtomicU64::new(0),
        }
    }

    fn record(&self, epoch: u64, good: u64, bad: u64) {
        let bucket = &self.buckets[(epoch % BUCKETS as u64) as usize];
        let seen = bucket.epoch.load(Ordering::Relaxed);
        if seen != epoch
            && bucket
                .epoch
                .compare_exchange(seen, epoch, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            // First writer of the new epoch resets the stale counts; a
            // racing writer adds into the freshly reset bucket, which is
            // the correct epoch either way.
            bucket.good.store(0, Ordering::Relaxed);
            bucket.bad.store(0, Ordering::Relaxed);
        }
        bucket.good.fetch_add(good, Ordering::Relaxed);
        bucket.bad.fetch_add(bad, Ordering::Relaxed);
        self.total_good.fetch_add(good, Ordering::Relaxed);
        self.total_bad.fetch_add(bad, Ordering::Relaxed);
    }

    /// (good, bad) summed over the last `window` epochs ending at `now`.
    fn window(&self, now: u64, window: u64) -> (u64, u64) {
        let oldest = now.saturating_sub(window.saturating_sub(1));
        let mut good = 0;
        let mut bad = 0;
        for bucket in &self.buckets {
            let epoch = bucket.epoch.load(Ordering::Relaxed);
            if epoch >= oldest && epoch <= now {
                good += bucket.good.load(Ordering::Relaxed);
                bad += bucket.bad.load(Ordering::Relaxed);
            }
        }
        (good, bad)
    }
}

/// Burn rates for both objectives over both windows, plus the inputs
/// they were computed from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloBurns {
    /// Assess-latency burn over the 5-minute window.
    pub assess_fast: f64,
    /// Assess-latency burn over the 1-hour window.
    pub assess_slow: f64,
    /// Shed-ratio burn over the 5-minute window.
    pub shed_fast: f64,
    /// Shed-ratio burn over the 1-hour window.
    pub shed_slow: f64,
}

impl SloBurns {
    /// Whether the fast window of either objective is burning budget
    /// faster than it accrues — the `/healthz` degradation trigger.
    pub fn fast_burning(&self) -> bool {
        self.assess_fast >= 1.0 || self.shed_fast >= 1.0
    }
}

/// The monitor: records per-request observations, answers burn rates.
#[derive(Debug)]
pub struct SloMonitor {
    objectives: SloObjectives,
    started: Instant,
    assess: WindowedCounts,
    shed: WindowedCounts,
}

impl SloMonitor {
    /// A monitor for `objectives`, with its bucket clock starting now.
    pub fn new(objectives: SloObjectives) -> SloMonitor {
        SloMonitor {
            objectives,
            started: Instant::now(),
            assess: WindowedCounts::new(),
            shed: WindowedCounts::new(),
        }
    }

    fn epoch(&self) -> u64 {
        self.started.elapsed().as_secs() / BUCKET_SECS
    }

    /// Records one served assessment with its client-visible latency.
    pub fn record_assess(&self, latency: Duration) {
        let breach = latency > self.objectives.assess_p99;
        self.assess
            .record(self.epoch(), u64::from(!breach), u64::from(breach));
    }

    /// Records one ingest outcome: `accepted` feedbacks admitted,
    /// `shed` dropped by admission control.
    pub fn record_ingest(&self, accepted: u64, shed: u64) {
        if accepted > 0 || shed > 0 {
            self.shed.record(self.epoch(), accepted, shed);
        }
    }

    /// Burn rates over both windows as of now.
    pub fn burns(&self) -> SloBurns {
        self.burns_at(self.epoch())
    }

    fn burns_at(&self, now: u64) -> SloBurns {
        let burn = |counts: &WindowedCounts, window: u64, budget: f64| {
            let (good, bad) = counts.window(now, window);
            let total = good + bad;
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        SloBurns {
            assess_fast: burn(&self.assess, FAST_BUCKETS, ASSESS_BREACH_BUDGET),
            assess_slow: burn(&self.assess, BUCKETS as u64, ASSESS_BREACH_BUDGET),
            shed_fast: burn(&self.shed, FAST_BUCKETS, self.objectives.max_shed_ratio),
            shed_slow: burn(&self.shed, BUCKETS as u64, self.objectives.max_shed_ratio),
        }
    }

    /// The `hp_slo_*` families, in the order [`Self::render_prometheus`]
    /// writes them.
    #[rustfmt::skip]
    pub const FAMILIES: [Family; 5] = [
        Family::gauge("hp_slo_assess_latency_objective_seconds", "The assess-latency objective (at most 1% of assessments may exceed it)."),
        Family::gauge("hp_slo_shed_ratio_objective", "The largest acceptable shed fraction of offered feedbacks."),
        Family::gauge("hp_slo_burn_rate", "Error-budget burn rate per objective and window (1.0 = budget consumed exactly as fast as it accrues)."),
        Family::counter("hp_slo_assess_observations_total", "Assessments observed by the SLO monitor, by objective outcome."),
        Family::counter("hp_slo_ingest_observations_total", "Feedbacks observed by the SLO monitor, accepted vs shed."),
    ];

    /// Renders the `hp_slo_*` metric families (appended to the edge
    /// exposition).
    pub fn render_prometheus(&self, out: &mut String) {
        let [assess_objective, shed_objective, burn_rate, assess_seen, ingest_seen] =
            &Self::FAMILIES;
        let objectives = self.objectives;
        render_scalar_family(
            out,
            assess_objective,
            [("", objectives.assess_p99.as_secs_f64())],
        );
        render_scalar_family(out, shed_objective, [("", objectives.max_shed_ratio)]);
        let burns = self.burns();
        let burns = [
            ("assess_latency", "5m", burns.assess_fast),
            ("assess_latency", "1h", burns.assess_slow),
            ("shed_ratio", "5m", burns.shed_fast),
            ("shed_ratio", "1h", burns.shed_slow),
        ];
        let burns = burns.map(|(objective, window, burn)| {
            (
                format!("objective=\"{objective}\",window=\"{window}\""),
                format!("{burn:.6}"),
            )
        });
        render_scalar_family(out, burn_rate, burns);
        let outcomes = |counts: &WindowedCounts, good: &str, bad: &str| {
            [(good, &counts.total_good), (bad, &counts.total_bad)]
                .map(|(result, n)| (format!("result=\"{result}\""), n.load(Ordering::Relaxed)))
        };
        render_scalar_family(out, assess_seen, outcomes(&self.assess, "ok", "breach"));
        render_scalar_family(out, ingest_seen, outcomes(&self.shed, "accepted", "shed"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> SloMonitor {
        SloMonitor::new(SloObjectives {
            assess_p99: Duration::from_millis(10),
            max_shed_ratio: 0.2,
        })
    }

    #[test]
    fn objectives_validate() {
        SloObjectives::default().validate().unwrap();
        assert!(SloObjectives {
            assess_p99: Duration::ZERO,
            ..SloObjectives::default()
        }
        .validate()
        .is_err());
        assert!(SloObjectives {
            max_shed_ratio: 0.0,
            ..SloObjectives::default()
        }
        .validate()
        .is_err());
        assert!(SloObjectives {
            max_shed_ratio: 1.5,
            ..SloObjectives::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn no_traffic_means_no_burn() {
        let m = tight();
        let burns = m.burns();
        assert_eq!(burns, SloBurns::default());
        assert!(!burns.fast_burning());
    }

    #[test]
    fn latency_breaches_burn_the_fast_window() {
        let m = tight();
        // 98 good + 2 breaches: 2% bad against a 1% budget → burn 2.0.
        for _ in 0..98 {
            m.record_assess(Duration::from_millis(1));
        }
        for _ in 0..2 {
            m.record_assess(Duration::from_millis(50));
        }
        let burns = m.burns();
        assert!((burns.assess_fast - 2.0).abs() < 1e-9, "{burns:?}");
        assert!((burns.assess_slow - 2.0).abs() < 1e-9, "same single bucket");
        assert!(burns.fast_burning());
        assert_eq!(burns.shed_fast, 0.0, "no ingest traffic observed");
    }

    #[test]
    fn shed_ratio_burns_against_its_own_budget() {
        let m = tight();
        // 10% shed against a 20% budget → burn 0.5: within objective.
        m.record_ingest(900, 100);
        let burns = m.burns();
        assert!((burns.shed_fast - 0.5).abs() < 1e-9, "{burns:?}");
        assert!(!burns.fast_burning());
        // Push past the budget: 400/1400 ≈ 28.6% shed → burn > 1.
        m.record_ingest(0, 300);
        assert!(m.burns().fast_burning());
    }

    #[test]
    fn stale_buckets_age_out_of_the_window() {
        let m = tight();
        // Write breaches at epoch 0, then ask for the fast window far in
        // the future: the bucket's epoch is outside the window.
        m.assess.record(0, 0, 100);
        let later = m.burns_at(FAST_BUCKETS + 5);
        assert_eq!(later.assess_fast, 0.0);
        // The slow window still sees it (epoch 0 is within the last hour
        // of epoch 35).
        assert!(later.assess_slow > 1.0);
        // A bucket reused for a new epoch resets its stale counts.
        m.assess.record(BUCKETS as u64, 50, 0);
        let (good, bad) = m.assess.window(BUCKETS as u64, 1);
        assert_eq!((good, bad), (50, 0));
    }

    #[test]
    fn exposition_carries_objectives_burns_and_totals() {
        let m = tight();
        m.record_assess(Duration::from_millis(1));
        m.record_assess(Duration::from_millis(500));
        m.record_ingest(10, 0);
        let mut out = String::new();
        m.render_prometheus(&mut out);
        for needle in [
            "hp_slo_assess_latency_objective_seconds 0.01",
            "hp_slo_shed_ratio_objective 0.2",
            "hp_slo_burn_rate{objective=\"assess_latency\",window=\"5m\"}",
            "hp_slo_burn_rate{objective=\"shed_ratio\",window=\"1h\"}",
            "hp_slo_assess_observations_total{result=\"ok\"} 1",
            "hp_slo_assess_observations_total{result=\"breach\"} 1",
            "hp_slo_ingest_observations_total{result=\"accepted\"} 10",
            "hp_slo_ingest_observations_total{result=\"shed\"} 0",
        ] {
            assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
        }
    }
}
