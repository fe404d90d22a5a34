//! Operational totals exposed through [`crate::ReputationService::stats`].

use crate::obs::{RegistrySnapshot, ShardMetric, ShardSnapshot, METRIC_TABLE};

/// A point-in-time snapshot of service health. The `u64` totals are the
/// service-wide sums of the [`METRIC_TABLE`] rows that name them; every
/// other series is on `/metrics` and in `per_shard[i].get(..)`.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// State snapshots written (checkpoints completed).
    pub snapshots_written: u64,
    /// Serialized snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Recovery candidates rejected, falling down the recovery chain.
    pub snapshot_fallbacks: u64,
    /// Outcomes folded into the folded counts by windowed compaction.
    pub tier_compacted_records: u64,
    /// Server histories evicted from the hot tier to cold segments.
    pub tier_evictions: u64,
    /// Spilled histories faulted back into memory on access.
    pub tier_faults: u64,
    /// Resident bytes of full-resolution history suffixes (hot tier),
    /// summed over shards: what each worker published when it answered
    /// this call's occupancy request. A failed shard, which no longer
    /// answers, contributes the sums it last published, not zero.
    pub tier_hot_suffix_bytes: u64,
    /// Bytes of histories spilled to cold segments (what a full fault-in
    /// would read back), summed over shards (a failed shard: its last
    /// published sum).
    pub tier_spilled_bytes: u64,
    /// Per-shard metric blocks (counters plus sampled gauges), indexed
    /// by shard.
    pub per_shard: Vec<ShardSnapshot>,
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

    /// Folds a registry snapshot into the service-level totals: each
    /// table row that names a total adds its service-wide sum to it. The
    /// tracked-server and feedback counts are filled by the caller from
    /// the shards' occupancy replies.
    pub(crate) fn from_registry(snap: &RegistrySnapshot) -> Self {
        let queue_depth = |s: &ShardSnapshot| s.get(ShardMetric::QueueDepth) as usize;
        let mut stats = ServiceStats {
            shard_queue_depths: snap.shards.iter().map(queue_depth).collect(),
            calibration_cache_entries: snap.calibration_entries as usize,
            per_shard: snap.shards.clone(),
            shard_utilization: snap.utilizations.clone(),
            ..ServiceStats::default()
        };
        for row in METRIC_TABLE {
            if let (Some(field), Some(total)) = (row.stat, row.total(snap)) {
                *field(&mut stats) += total;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{MetricsRegistry, Source};

    #[test]
    fn hit_rate_handles_zero_and_counts() {
        let mut s = ServiceStats::from_registry(&MetricsRegistry::new(1).snapshot());
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.shed_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        s.ingested_feedbacks = 90;
        s.shed_feedbacks = 10;
        assert!((s.shed_rate() - 0.1).abs() < 1e-12);
    }

    /// Every table row that names a total feeds it with its sum over the
    /// shards (the calibration rows with the sampled value). The values
    /// are distinct and nonzero, so a field fed by two rows, or by the
    /// wrong one, cannot read what its row sums to.
    #[test]
    fn every_named_total_is_the_sum_of_its_row() {
        let registry = MetricsRegistry::new(2);
        let calibration = hp_stats::CalibrationStats {
            hits: 9001,
            misses: 9002,
            surface_hits: 9003,
            oracle_jobs: 9004,
            crn_row_fills: 9005,
            singleflight_waits: 9006,
        };
        registry.set_calibration(calibration, 9007, 0);
        for (i, row) in METRIC_TABLE.iter().enumerate() {
            if let Source::Shard(metric, _) = row.source {
                registry.shard(0).add(metric, 100 + i as u64);
                registry.shard(1).set(metric, 5000 + 3 * i as u64);
            }
        }
        let snap = registry.snapshot();
        let mut stats = ServiceStats::from_registry(&snap);
        for row in METRIC_TABLE {
            if let Some(field) = row.stat {
                assert_eq!(
                    Some(*field(&mut stats)),
                    row.total(&snap),
                    "{}",
                    row.family.name
                );
            }
        }
        assert_eq!(stats.ingested_feedbacks, 100 + 5000);
        assert_eq!(stats.tier_spilled_bytes, 124 + 5072);
        assert_eq!(stats.calibration_cache_misses, 9002);
        assert_eq!(stats.calibration_cache_entries, 9007);
        assert_eq!(stats.shard_queue_depths, vec![121, 5063]);
        assert_eq!(stats.per_shard[1].get(ShardMetric::ReplayedRecords), 5033);
    }
}
