//! Fixed-bucket log-scale latency histograms.
//!
//! One [`LatencyHistogram`] records durations in nanoseconds into 64
//! power-of-two buckets (bucket `i` covers `(2^(i-1), 2^i]` ns — upper
//! edge inclusive, as a Prometheus `le` label promises), so the whole
//! dynamic range from 1 ns to ~580 years fits in a fixed array of
//! atomics. Recording is lock-free — three relaxed atomic adds and one
//! atomic max — which is what lets every shard worker and the front end
//! share one histogram per latency path without contention.
//!
//! Quantiles are estimated from a [`LatencySnapshot`]: the reported value
//! is the geometric midpoint of the bucket holding the requested rank, so
//! the estimate is within a factor of √2 of the true latency — plenty for
//! the p50/p90/p99 operator questions these histograms answer. Snapshots
//! are mergeable bucket-wise, so per-shard histograms can be folded into a
//! service-wide view without losing quantile fidelity beyond the bucket
//! resolution.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets (covers `u64` nanoseconds entirely).
pub const BUCKETS: usize = 64;

/// A lock-free latency histogram with power-of-two nanosecond buckets.
///
/// # Examples
///
/// ```
/// use hp_service::obs::LatencyHistogram;
///
/// let hist = LatencyHistogram::default();
/// for ns in [900, 1_100, 1_300, 40_000] {
///     hist.record_ns(ns);
/// }
/// let snap = hist.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.max_ns, 40_000);
/// assert!(snap.quantile_ns(0.5) >= 512 && snap.quantile_ns(0.5) <= 2_048);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Most recent nonzero trace ID that landed in each bucket (0 = none).
    exemplar_trace: [AtomicU64; BUCKETS],
    /// The duration (ns) of that exemplar sample.
    exemplar_ns: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            exemplar_trace: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a duration: `0` holds 0 and 1 ns, bucket `i ≥ 1`
/// holds `(2^(i-1), 2^i]` ns, so a sample of exactly `2^i` ns counts
/// under the `le` bound that names it. The last bucket absorbs everything
/// above `2^62` ns (~146 years), so no duration can index out of range.
fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.saturating_sub(1).leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Upper bound (inclusive) of bucket `i` in nanoseconds.
fn bucket_upper(i: usize) -> u64 {
    1u64.checked_shl(i as u32).unwrap_or(u64::MAX)
}

/// Representative latency for bucket `i`: the geometric midpoint of its
/// range, which bounds the quantile estimation error by √2.
fn bucket_mid(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let lo = 1u64 << (i - 1).min(62);
    let hi = bucket_upper(i);
    // √(lo·hi) = lo·√2 for power-of-two buckets.
    ((lo as f64) * (hi as f64)).sqrt() as u64
}

impl LatencyHistogram {
    /// Records one duration of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records `n` events that each took `ns` nanoseconds (used to spread
    /// a batch-level measurement over the batch's elements, so histogram
    /// totals stay comparable to element counters like `ingested`).
    #[inline]
    pub fn record_n(&self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(ns)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(ns.saturating_mul(n), Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one duration and, when `trace` is nonzero, remembers it as
    /// the bucket's exemplar — the OpenMetrics-style link from a histogram
    /// bucket back to a concrete request's span tree. Exemplar storage is
    /// two extra relaxed stores, and only on the traced path.
    #[inline]
    pub fn record_ns_traced(&self, ns: u64, trace: u64) {
        self.record_n(ns, 1);
        if trace != 0 {
            let bucket = bucket_of(ns);
            self.exemplar_trace[bucket].store(trace, Ordering::Relaxed);
            self.exemplar_ns[bucket].store(ns, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram's contents.
    pub fn snapshot(&self) -> LatencySnapshot {
        let load =
            |slots: &[AtomicU64; BUCKETS]| slots.each_ref().map(|n| n.load(Ordering::Relaxed));
        LatencySnapshot {
            buckets: load(&self.buckets),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            exemplar_trace: load(&self.exemplar_trace),
            exemplar_ns: load(&self.exemplar_ns),
        }
    }
}

/// A point-in-time, mergeable copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-bucket event counts (bucket `i` covers `(2^(i-1), 2^i]` ns).
    pub buckets: [u64; BUCKETS],
    /// Total events recorded.
    pub count: u64,
    /// Sum of all recorded durations, in nanoseconds (saturating).
    pub sum_ns: u64,
    /// Largest single recorded duration, in nanoseconds.
    pub max_ns: u64,
    /// Per-bucket exemplar trace IDs (0 = no traced sample landed there).
    pub exemplar_trace: [u64; BUCKETS],
    /// The duration (ns) of each bucket's exemplar sample.
    pub exemplar_ns: [u64; BUCKETS],
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        LatencySnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            exemplar_trace: [0; BUCKETS],
            exemplar_ns: [0; BUCKETS],
        }
    }
}

impl LatencySnapshot {
    /// Folds `other` into this snapshot bucket-wise. A nonzero exemplar in
    /// `other` wins the bucket (merges fold newer shards in last, so the
    /// freshest traced sample survives).
    pub fn merge(&mut self, other: &LatencySnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for i in 0..BUCKETS {
            if other.exemplar_trace[i] != 0 {
                self.exemplar_trace[i] = other.exemplar_trace[i];
                self.exemplar_ns[i] = other.exemplar_ns[i];
            }
        }
    }

    /// Estimated latency at quantile `q ∈ [0, 1]`, in nanoseconds
    /// (geometric bucket midpoint; `0` when the histogram is empty).
    ///
    /// `q = 1.0` returns the exact recorded maximum rather than a bucket
    /// estimate.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let rank = (q.max(0.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean recorded latency in nanoseconds (`0` when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The upper bound (inclusive, in seconds) of bucket `i` — the
    /// Prometheus `le` label for that bucket.
    pub fn bucket_upper_seconds(i: usize) -> f64 {
        bucket_upper(i) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        // Every bucket's own upper edge lands in it, the next value above.
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_upper(i)), i);
            assert_eq!(bucket_of(bucket_upper(i) + 1), i + 1);
        }
        // The top bucket is saturating: every value lands in range.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn u64_max_does_not_overflow_the_array() {
        let hist = LatencyHistogram::default();
        hist.record_ns(u64::MAX);
        assert_eq!(hist.snapshot().count, 1);
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let hist = LatencyHistogram::default();
        // 90 fast events (~1µs), 10 slow (~1ms).
        for _ in 0..90 {
            hist.record_ns(1_000);
        }
        for _ in 0..10 {
            hist.record_ns(1_000_000);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 100);
        let p50 = snap.quantile_ns(0.50);
        let p99 = snap.quantile_ns(0.99);
        assert!((512..=2_048).contains(&p50), "p50 {p50}");
        assert!((524_288..=2_097_152).contains(&p99), "p99 {p99}");
        assert_eq!(snap.quantile_ns(1.0), 1_000_000, "max is exact");
        assert!(snap.mean_ns() > 1_000 && snap.mean_ns() < 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snap = LatencyHistogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile_ns(0.5), 0);
        assert_eq!(snap.mean_ns(), 0);
        assert_eq!(snap, LatencySnapshot::default());
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        for i in 0..50u64 {
            a.record_ns(1_000 + i);
            b.record_ns(1_000_000 + i);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 100);
        assert_eq!(merged.max_ns, 1_000_049);
        // The merged distribution contains both modes.
        assert!(merged.quantile_ns(0.25) < 10_000);
        assert!(merged.quantile_ns(0.75) > 100_000);
    }

    #[test]
    fn record_n_spreads_batch_measurements() {
        let hist = LatencyHistogram::default();
        hist.record_n(5_000, 1_000);
        hist.record_n(0, 0); // no-op
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1_000);
        assert_eq!(snap.sum_ns, 5_000_000);
        assert_eq!(snap.max_ns, 5_000);
    }

    #[test]
    fn exemplars_remember_the_latest_traced_sample() {
        let hist = LatencyHistogram::default();
        hist.record_ns(1_000); // untraced: no exemplar
        hist.record_ns_traced(1_000, 0); // trace 0 is "untraced" too
        let snap = hist.snapshot();
        assert!(snap.exemplar_trace.iter().all(|&t| t == 0));

        hist.record_ns_traced(900, 0xab);
        hist.record_ns_traced(1_000, 0xcd); // same bucket (512, 1024]: newest wins
        hist.record_ns_traced(1_000_000, 0xef);
        let snap = hist.snapshot();
        let b = bucket_of(1_000);
        assert_eq!(b, bucket_of(900));
        assert_eq!(snap.exemplar_trace[b], 0xcd);
        assert_eq!(snap.exemplar_ns[b], 1_000);
        assert_eq!(snap.exemplar_trace[bucket_of(1_000_000)], 0xef);

        // Merge: a nonzero exemplar in `other` replaces ours.
        let fresh = LatencyHistogram::default();
        fresh.record_ns_traced(950, 0x11);
        let mut merged = snap;
        merged.merge(&fresh.snapshot());
        assert_eq!(merged.exemplar_trace[b], 0x11);
        assert_eq!(merged.exemplar_trace[bucket_of(1_000_000)], 0xef);
    }

    #[test]
    fn quantile_estimate_within_sqrt_two() {
        let hist = LatencyHistogram::default();
        for _ in 0..1_000 {
            hist.record_ns(10_000);
        }
        let est = hist.snapshot().quantile_ns(0.5) as f64;
        let ratio = est / 10_000.0;
        assert!(
            (1.0 / 1.5..=1.5).contains(&ratio),
            "estimate {est} too far from 10000"
        );
    }
}
