//! Operational counters exposed through [`crate::ReputationService::stats`].

use crate::obs::{RegistrySnapshot, ShardSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters, incremented by the front end, the shard
/// workers, and the supervisors. Relaxed ordering everywhere: these are
/// monotone statistics, not synchronization points.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub ingested: AtomicU64,
    pub served: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// Feedbacks dropped by the shed / try-for ingest policies.
    pub shed: AtomicU64,
    /// Assessments answered from the last-published (degraded) cache.
    pub degraded: AtomicU64,
    /// Shard worker restarts performed by supervisors.
    pub restarts: AtomicU64,
    /// Accepted records quarantined after repeated crash-on-replay.
    pub quarantined: AtomicU64,
    /// Shards declared permanently failed (restart budget exhausted).
    pub shards_failed: AtomicU64,
    /// Records in shard journals (appended plus recovered at open).
    pub journal_records: AtomicU64,
    /// Bytes in shard journals (frames + payloads, appended + recovered).
    pub journal_bytes: AtomicU64,
    /// Journal fsyncs performed.
    pub journal_syncs: AtomicU64,
    /// Bytes discarded from torn journal tails during recovery.
    pub torn_bytes: AtomicU64,
    /// State snapshots written (checkpoints completed).
    pub snapshots_written: AtomicU64,
    /// Serialized snapshot bytes written.
    pub snapshot_bytes: AtomicU64,
    /// Snapshot writes that failed (journal still intact).
    pub snapshot_failures: AtomicU64,
    /// Recovery candidates rejected (corrupt/torn/mismatched snapshot),
    /// falling down the chain toward full journal replay.
    pub snapshot_fallbacks: AtomicU64,
    /// Outcomes folded from full-resolution bits into per-issuer summary
    /// counts by windowed compaction.
    pub tier_compacted: AtomicU64,
    /// Server histories evicted from the hot tier to cold segments.
    pub tier_evictions: AtomicU64,
    /// Spilled histories faulted back into memory on access.
    pub tier_faults: AtomicU64,
    /// Cold-segment writes that failed (the shard stays over its spill
    /// budget until the next batch boundary retries).
    pub tier_spill_failures: AtomicU64,
}

impl Counters {
    pub fn add_ingested(&self, n: u64) {
        self.ingested.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_served(&self, n: u64) {
        self.served.fetch_add(n, Ordering::Relaxed);
    }

    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn add_shed(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_degraded(&self, n: u64) {
        self.degraded.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_shard_failed(&self) {
        self.shards_failed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_journal_append(&self, records: u64, bytes: u64, synced: bool) {
        self.journal_records.fetch_add(records, Ordering::Relaxed);
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
        if synced {
            self.journal_syncs.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn add_torn_bytes(&self, n: u64) {
        self.torn_bytes.fetch_add(n, Ordering::Relaxed);
    }

    pub fn record_snapshot(&self, bytes: u64) {
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        self.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn add_snapshot_failures(&self, n: u64) {
        self.snapshot_failures.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_snapshot_fallback(&self) {
        self.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_tier_compacted(&self, n: u64) {
        self.tier_compacted.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_tier_evictions(&self, n: u64) {
        self.tier_evictions.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_tier_faults(&self, n: u64) {
        self.tier_faults.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_tier_spill_failures(&self, n: u64) {
        self.tier_spill_failures.fetch_add(n, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of service health.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Feedbacks accepted by `ingest_batch` since start.
    pub ingested_feedbacks: u64,
    /// Assessments returned (single and batched) since start.
    pub assessments_served: u64,
    /// Assessments answered from the versioned cache.
    pub cache_hits: u64,
    /// Assessments that recomputed phase 1.
    pub cache_misses: u64,
    /// Commands queued per shard at snapshot time.
    pub shard_queue_depths: Vec<usize>,
    /// Servers with at least one feedback or assessment, summed over
    /// shards.
    pub tracked_servers: usize,
    /// Feedbacks held in per-server state, summed over shards.
    pub tracked_feedbacks: usize,
    /// Entries in the shared threshold-calibration cache.
    pub calibration_cache_entries: usize,
    /// Threshold lookups answered from the calibration cache.
    pub calibration_cache_hits: u64,
    /// Threshold lookups that fell through every warm tier (Monte-Carlo
    /// row job or single-flight wait).
    pub calibration_cache_misses: u64,
    /// Threshold lookups served by the interpolated surface.
    pub calibration_surface_hits: u64,
    /// Monte-Carlo row jobs executed (each fills a whole p̂ row of the
    /// cache via common random numbers).
    pub calibration_oracle_jobs: u64,
    /// Cache entries inserted by common-random-number row fills.
    pub calibration_crn_row_fills: u64,
    /// Threshold lookups that blocked on another thread's in-flight row
    /// job instead of duplicating it.
    pub calibration_singleflight_waits: u64,
    /// Feedbacks dropped by the shed / try-for ingest policies.
    pub shed_feedbacks: u64,
    /// Assessments answered from the last-published (degraded) cache.
    pub degraded_answers: u64,
    /// Shard worker restarts performed by supervisors.
    pub shard_restarts: u64,
    /// Accepted records quarantined after repeatedly crashing the
    /// supervisor's fold.
    pub quarantined_records: u64,
    /// Shards declared permanently failed.
    pub failed_shards: u64,
    /// Records in shard journals (appended since start plus recovered
    /// from disk at open); 0 on an ephemeral service, which has none.
    pub journal_records: u64,
    /// Bytes in shard journals (appended plus recovered); 0 on an
    /// ephemeral service.
    pub journal_bytes: u64,
    /// Journal fsyncs performed since start.
    pub journal_syncs: u64,
    /// Bytes discarded from torn journal tails during recovery.
    pub torn_journal_bytes: u64,
    /// State snapshots written (checkpoints completed).
    pub snapshots_written: u64,
    /// Serialized snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Snapshot writes that failed (journal still intact).
    pub snapshot_failures: u64,
    /// Recovery candidates rejected, falling down the recovery chain.
    pub snapshot_fallbacks: u64,
    /// Outcomes folded into summary counts by windowed compaction.
    pub tier_compacted_records: u64,
    /// Server histories evicted from the hot tier to cold segments.
    pub tier_evictions: u64,
    /// Spilled histories faulted back into memory on access.
    pub tier_faults: u64,
    /// Resident bytes of full-resolution history suffixes (hot tier),
    /// summed over shards. Sampled with the tracked-server counts.
    pub tier_hot_suffix_bytes: u64,
    /// Resident bytes of folded per-issuer summary counts, summed over
    /// shards.
    pub tier_summary_bytes: u64,
    /// Bytes of histories spilled to cold segments (what a full fault-in
    /// would read back), summed over shards.
    pub tier_spilled_bytes: u64,
    /// Per-shard metric blocks (counters plus sampled gauges), indexed
    /// by shard.
    pub per_shard: Vec<ShardSnapshot>,
    /// p99 queue wait (enqueue→dequeue) per shard, in nanoseconds,
    /// indexed by shard.
    pub shard_queue_wait_p99_ns: Vec<u64>,
    /// Worker utilization (busy time / wall time, in `[0, 1]`) per
    /// shard, indexed by shard.
    pub shard_utilization: Vec<f64>,
}

impl ServiceStats {
    /// Fraction of assessments served from cache (`0.0` before any
    /// assessment).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of offered feedbacks shed (`0.0` before any ingest).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.ingested_feedbacks + self.shed_feedbacks;
        if offered == 0 {
            0.0
        } else {
            self.shed_feedbacks as f64 / offered as f64
        }
    }

    /// Folds a registry snapshot into the service-level totals. The
    /// queue depths, tracked-server/feedback counts, and calibration
    /// gauges are sampled by the caller before the snapshot is taken.
    pub(crate) fn from_registry(snap: &RegistrySnapshot) -> Self {
        ServiceStats {
            ingested_feedbacks: snap.total(|s| s.ingested),
            assessments_served: snap.total(|s| s.served),
            cache_hits: snap.total(|s| s.cache_hits),
            cache_misses: snap.total(|s| s.cache_misses),
            shard_queue_depths: snap.shards.iter().map(|s| s.queue_depth as usize).collect(),
            tracked_servers: 0,
            tracked_feedbacks: 0,
            calibration_cache_entries: snap.calibration_entries as usize,
            calibration_cache_hits: snap.calibration.hits,
            calibration_cache_misses: snap.calibration.misses,
            calibration_surface_hits: snap.calibration.surface_hits,
            calibration_oracle_jobs: snap.calibration.oracle_jobs,
            calibration_crn_row_fills: snap.calibration.crn_row_fills,
            calibration_singleflight_waits: snap.calibration.singleflight_waits,
            shed_feedbacks: snap.total(|s| s.shed),
            degraded_answers: snap.total(|s| s.degraded),
            shard_restarts: snap.total(|s| s.restarts),
            quarantined_records: snap.total(|s| s.quarantined),
            failed_shards: snap.total(|s| s.failed),
            journal_records: snap.total(|s| s.journal_records),
            journal_bytes: snap.total(|s| s.journal_bytes),
            journal_syncs: snap.total(|s| s.journal_syncs),
            torn_journal_bytes: snap.total(|s| s.torn_bytes),
            snapshots_written: snap.total(|s| s.snapshots_written),
            snapshot_bytes: snap.total(|s| s.snapshot_bytes),
            snapshot_failures: snap.total(|s| s.snapshot_failures),
            snapshot_fallbacks: snap.total(|s| s.snapshot_fallbacks),
            tier_compacted_records: snap.total(|s| s.tier_compacted),
            tier_evictions: snap.total(|s| s.tier_evictions),
            tier_faults: snap.total(|s| s.tier_faults),
            // Filled from fresh per-shard state snapshots by the caller
            // (like the tracked-server counts); the registry gauges lag
            // by one sampling pass.
            tier_hot_suffix_bytes: 0,
            tier_summary_bytes: 0,
            tier_spilled_bytes: 0,
            per_shard: snap.shards.clone(),
            shard_queue_wait_p99_ns: snap
                .queue_waits
                .iter()
                .map(|w| w.quantile_ns(0.99))
                .collect(),
            shard_utilization: snap.utilizations.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MetricsRegistry;

    #[test]
    fn hit_rate_handles_zero_and_counts() {
        let mut s = ServiceStats::from_registry(&MetricsRegistry::new(1, 16, false).snapshot());
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.shed_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        s.ingested_feedbacks = 90;
        s.shed_feedbacks = 10;
        assert!((s.shed_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn counters_accumulate() {
        let registry = MetricsRegistry::new(1, 16, false);
        let c = &registry.shard(0).counters;
        c.add_ingested(5);
        c.add_ingested(2);
        c.add_served(1);
        c.record_cache(true);
        c.record_cache(false);
        c.add_shed(4);
        c.add_degraded(1);
        c.add_restart();
        c.add_quarantined();
        c.add_shard_failed();
        c.record_journal_append(3, 99, true);
        c.record_journal_append(1, 33, false);
        c.add_torn_bytes(7);
        c.add_tier_compacted(64);
        c.add_tier_compacted(128);
        c.add_tier_evictions(2);
        c.add_tier_faults(1);
        let s = ServiceStats::from_registry(&registry.snapshot());
        assert_eq!(s.ingested_feedbacks, 7);
        assert_eq!(s.assessments_served, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.shed_feedbacks, 4);
        assert_eq!(s.degraded_answers, 1);
        assert_eq!(s.shard_restarts, 1);
        assert_eq!(s.quarantined_records, 1);
        assert_eq!(s.failed_shards, 1);
        assert_eq!(s.journal_records, 4);
        assert_eq!(s.journal_bytes, 132);
        assert_eq!(s.journal_syncs, 1);
        assert_eq!(s.torn_journal_bytes, 7);
        assert_eq!(s.tier_compacted_records, 192);
        assert_eq!(s.tier_evictions, 2);
        assert_eq!(s.tier_faults, 1);
    }
}
