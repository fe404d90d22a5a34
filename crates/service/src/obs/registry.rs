//! The unified metrics registry: per-shard counters, path latency
//! histograms, gauges, and the tracer under one roof.
//!
//! Shard workers, supervisors, and the service front end all hold an
//! `Arc<MetricsRegistry>` and write through it; readers pull a coherent
//! [`RegistrySnapshot`] or render the whole state as Prometheus text
//! exposition. Everything here is lock-free on the write path (atomic
//! counters and histogram buckets); the only lock is inside the trace
//! rings, which are off by default.

use super::audit::AssessmentTrace;
use super::histogram::{LatencyHistogram, LatencySnapshot};
use super::span::format_trace_id;
use super::trace::Tracer;
use crate::metrics::Counters;
use hp_stats::CalibrationStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The instrumented latency paths, one histogram each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyPath {
    /// Ingest enqueue→apply: from `ingest_batch` accepting a batch to the
    /// shard worker folding it into state (includes queue wait and the
    /// journal append).
    IngestApply,
    /// Journal `append_batch` wall time (buffered write + flush + any
    /// fsync).
    JournalAppend,
    /// The fsync portion of a journal append alone.
    JournalFsync,
    /// Phase-1 + phase-2 assessment compute inside the shard worker
    /// (cache hits included — they are real served latency).
    AssessCompute,
    /// End-to-end assess as the caller sees it: send, queue wait,
    /// compute, reply (degraded answers included).
    AssessE2e,
    /// Calibration wall time inside an assessment: Monte-Carlo row jobs
    /// plus single-flight waits on another thread's job, attributed to
    /// the serving thread. Recorded only when nonzero — warm serves
    /// (cache or surface hits) contribute nothing here.
    AssessCalibration,
}

impl LatencyPath {
    /// Every path, in exposition order.
    pub const ALL: [LatencyPath; 6] = [
        LatencyPath::IngestApply,
        LatencyPath::JournalAppend,
        LatencyPath::JournalFsync,
        LatencyPath::AssessCompute,
        LatencyPath::AssessE2e,
        LatencyPath::AssessCalibration,
    ];

    /// Stable metric-name stem (`hp_<stem>_latency_seconds`).
    pub fn name(self) -> &'static str {
        match self {
            LatencyPath::IngestApply => "ingest_apply",
            LatencyPath::JournalAppend => "journal_append",
            LatencyPath::JournalFsync => "journal_fsync",
            LatencyPath::AssessCompute => "assess_compute",
            LatencyPath::AssessE2e => "assess_e2e",
            LatencyPath::AssessCalibration => "assess_calibration",
        }
    }

    fn help(self) -> &'static str {
        match self {
            LatencyPath::IngestApply => "Per-feedback latency from ingest accept to state apply",
            LatencyPath::JournalAppend => "Journal append_batch wall time per batch",
            LatencyPath::JournalFsync => "Journal fsync time per synced batch",
            LatencyPath::AssessCompute => {
                "In-worker assessment compute time per served verdict (calibration excluded)"
            }
            LatencyPath::AssessE2e => "End-to-end assessment latency as seen by the caller",
            LatencyPath::AssessCalibration => {
                "Calibration wall time (Monte-Carlo jobs and single-flight waits) per assessment"
            }
        }
    }

    fn index(self) -> usize {
        match self {
            LatencyPath::IngestApply => 0,
            LatencyPath::JournalAppend => 1,
            LatencyPath::JournalFsync => 2,
            LatencyPath::AssessCompute => 3,
            LatencyPath::AssessE2e => 4,
            LatencyPath::AssessCalibration => 5,
        }
    }
}

/// One shard's metric block: the event counters plus sampled gauges.
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    /// Monotone event counters (writes from the worker, supervisor, and
    /// front end for this shard).
    pub counters: Counters,
    /// Commands queued at the shard at last sample time (set by the
    /// front end when a snapshot or exposition is taken).
    pub queue_depth: AtomicU64,
    /// State version (applied feedback count) after the last batch apply.
    pub last_apply_version: AtomicU64,
    /// Time commands spent waiting in this shard's queue before the
    /// worker dequeued them (the "waiting" half of waiting-vs-working).
    pub queue_wait: LatencyHistogram,
    /// Nanoseconds this shard's worker spent processing commands (the
    /// "working" half; utilization = busy_ns / wall time).
    pub busy_ns: AtomicU64,
    /// Resident bytes of full-resolution history suffixes (hot tier),
    /// refreshed at tiering passes and state snapshots.
    pub tier_hot_bytes: AtomicU64,
    /// Resident bytes of folded per-issuer summary counts.
    pub tier_summary_bytes: AtomicU64,
    /// Bytes of histories spilled to cold segments (fault-in cost, not
    /// disk usage).
    pub tier_spilled_bytes: AtomicU64,
}

/// Point-in-time copy of one shard's metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Feedbacks accepted for this shard.
    pub ingested: u64,
    /// Assessments served by this shard's worker.
    pub served: u64,
    /// Worker cache hits.
    pub cache_hits: u64,
    /// Worker cache misses (recomputes).
    pub cache_misses: u64,
    /// Feedbacks shed at this shard's queue.
    pub shed: u64,
    /// Degraded answers served for servers of this shard.
    pub degraded: u64,
    /// Worker restarts performed by this shard's supervisor.
    pub restarts: u64,
    /// Accepted records quarantined on this shard.
    pub quarantined: u64,
    /// 1 once this shard is declared permanently failed.
    pub failed: u64,
    /// Records in this shard's journal.
    pub journal_records: u64,
    /// Bytes in this shard's journal.
    pub journal_bytes: u64,
    /// Fsyncs performed by this shard's journal.
    pub journal_syncs: u64,
    /// Torn-tail bytes discarded during this shard's recovery.
    pub torn_bytes: u64,
    /// State snapshots written by this shard (checkpoints).
    pub snapshots_written: u64,
    /// Serialized snapshot bytes written by this shard.
    pub snapshot_bytes: u64,
    /// Snapshot writes that failed on this shard.
    pub snapshot_failures: u64,
    /// Recovery candidates this shard rejected and fell past.
    pub snapshot_fallbacks: u64,
    /// Outcomes folded into summary counts by windowed compaction.
    pub tier_compacted: u64,
    /// Server histories evicted from the hot tier to cold segments.
    pub tier_evictions: u64,
    /// Spilled histories faulted back into memory on access.
    pub tier_faults: u64,
    /// Cold-segment writes that failed.
    pub tier_spill_failures: u64,
    /// Sampled queue depth.
    pub queue_depth: u64,
    /// State version after the last batch apply.
    pub last_apply_version: u64,
    /// Resident bytes of full-resolution history suffixes (sampled).
    pub tier_hot_bytes: u64,
    /// Resident bytes of folded summary counts (sampled).
    pub tier_summary_bytes: u64,
    /// Bytes of histories spilled to cold segments (sampled).
    pub tier_spilled_bytes: u64,
}

impl ShardSnapshot {
    fn from_metrics(shard: usize, m: &ShardMetrics) -> Self {
        let c = &m.counters;
        ShardSnapshot {
            shard,
            ingested: c.ingested.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            restarts: c.restarts.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            failed: c.shards_failed.load(Ordering::Relaxed),
            journal_records: c.journal_records.load(Ordering::Relaxed),
            journal_bytes: c.journal_bytes.load(Ordering::Relaxed),
            journal_syncs: c.journal_syncs.load(Ordering::Relaxed),
            torn_bytes: c.torn_bytes.load(Ordering::Relaxed),
            snapshots_written: c.snapshots_written.load(Ordering::Relaxed),
            snapshot_bytes: c.snapshot_bytes.load(Ordering::Relaxed),
            snapshot_failures: c.snapshot_failures.load(Ordering::Relaxed),
            snapshot_fallbacks: c.snapshot_fallbacks.load(Ordering::Relaxed),
            tier_compacted: c.tier_compacted.load(Ordering::Relaxed),
            tier_evictions: c.tier_evictions.load(Ordering::Relaxed),
            tier_faults: c.tier_faults.load(Ordering::Relaxed),
            tier_spill_failures: c.tier_spill_failures.load(Ordering::Relaxed),
            queue_depth: m.queue_depth.load(Ordering::Relaxed),
            last_apply_version: m.last_apply_version.load(Ordering::Relaxed),
            tier_hot_bytes: m.tier_hot_bytes.load(Ordering::Relaxed),
            tier_summary_bytes: m.tier_summary_bytes.load(Ordering::Relaxed),
            tier_spilled_bytes: m.tier_spilled_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A coherent point-in-time copy of the whole registry.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Per-shard metric blocks, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// One latency snapshot per [`LatencyPath`], in `ALL` order.
    pub latencies: Vec<(LatencyPath, LatencySnapshot)>,
    /// The shared calibrator's lifetime counters at sample time.
    pub calibration: CalibrationStats,
    /// Thresholds the calibrator held at sample time.
    pub calibration_entries: u64,
    /// Trace events evicted from full rings.
    pub trace_dropped: u64,
    /// Per-shard queue-wait latency snapshots, indexed by shard.
    pub queue_waits: Vec<LatencySnapshot>,
    /// Per-shard worker utilization (busy time / wall time, in `[0, 1]`),
    /// indexed by shard.
    pub utilizations: Vec<f64>,
    /// Prerendered label body for the `hp_build_info` gauge.
    pub build_info: String,
}

impl RegistrySnapshot {
    /// The latency snapshot for one path.
    pub fn latency(&self, path: LatencyPath) -> &LatencySnapshot {
        &self.latencies[path.index()].1
    }

    /// Sums a per-shard field over all shards.
    pub fn total(&self, field: impl Fn(&ShardSnapshot) -> u64) -> u64 {
        self.shards.iter().map(field).sum()
    }
}

/// The unified registry shared by the service, its workers, and its
/// supervisors.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<ShardMetrics>,
    hists: [LatencyHistogram; 6],
    calibration: Mutex<(CalibrationStats, u64)>,
    tracer: Tracer,
    started: Instant,
    build_info: Mutex<String>,
}

impl MetricsRegistry {
    /// A registry for `shards` shards with trace rings of
    /// `trace_capacity` events, tracing initially on per `tracing`.
    pub fn new(shards: usize, trace_capacity: usize, tracing: bool) -> Self {
        MetricsRegistry {
            shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
            hists: Default::default(),
            calibration: Mutex::default(),
            tracer: Tracer::new(shards, trace_capacity, tracing),
            started: Instant::now(),
            build_info: Mutex::new(format!(
                "version=\"{}\",git=\"{}\"",
                env!("CARGO_PKG_VERSION"),
                option_env!("HP_GIT_HASH").unwrap_or("unknown"),
            )),
        }
    }

    /// Number of shards the registry tracks.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's metric block (panics on out-of-range index, which is
    /// a service bug: shard indices are fixed at construction).
    pub(crate) fn shard(&self, shard: usize) -> &ShardMetrics {
        &self.shards[shard]
    }

    /// The structured tracing facade.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records one duration on `path`.
    #[inline]
    pub fn record_latency(&self, path: LatencyPath, ns: u64) {
        self.hists[path.index()].record_ns(ns);
    }

    /// Records `n` events of `ns` each on `path` (batch attribution).
    #[inline]
    pub fn record_latency_n(&self, path: LatencyPath, ns: u64, n: u64) {
        self.hists[path.index()].record_n(ns, n);
    }

    /// Records one duration on `path` and, when `trace` is nonzero, pins
    /// it as the exemplar of the bucket it lands in.
    #[inline]
    pub fn record_latency_traced(&self, path: LatencyPath, ns: u64, trace: u64) {
        self.hists[path.index()].record_ns_traced(ns, trace);
    }

    /// Records one command's queue wait (enqueue→dequeue) on `shard`.
    #[inline]
    pub fn record_queue_wait(&self, shard: usize, ns: u64) {
        if let Some(m) = self.shards.get(shard) {
            m.queue_wait.record_ns(ns);
        }
    }

    /// Adds `ns` of worker busy time to `shard`'s utilization account.
    #[inline]
    pub fn add_busy_ns(&self, shard: usize, ns: u64) {
        if let Some(m) = self.shards.get(shard) {
            m.busy_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Sets the label body rendered on the `hp_build_info` gauge (the
    /// service front end adds its trust model and shard count here).
    pub fn set_build_info(&self, labels: String) {
        *self
            .build_info
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = labels;
    }

    /// Latency snapshot for one path.
    pub fn latency(&self, path: LatencyPath) -> LatencySnapshot {
        self.hists[path.index()].snapshot()
    }

    /// Stores the calibrator's sampled counters and how many thresholds
    /// it holds (set by the service front end before snapshots/exposition
    /// are taken).
    pub fn set_calibration(&self, stats: CalibrationStats, entries: u64) {
        *self
            .calibration
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = (stats, entries);
    }

    /// Stores a sampled queue depth for `shard`.
    pub fn set_queue_depth(&self, shard: usize, depth: u64) {
        if let Some(m) = self.shards.get(shard) {
            m.queue_depth.store(depth, Ordering::Relaxed);
        }
    }

    /// Stores sampled per-tier resident byte gauges for `shard` (set by
    /// the shard worker at tiering passes and state snapshots).
    pub fn set_tier_bytes(&self, shard: usize, hot: u64, summary: u64, spilled: u64) {
        if let Some(m) = self.shards.get(shard) {
            m.tier_hot_bytes.store(hot, Ordering::Relaxed);
            m.tier_summary_bytes.store(summary, Ordering::Relaxed);
            m.tier_spilled_bytes.store(spilled, Ordering::Relaxed);
        }
    }

    /// Takes a coherent snapshot of everything in the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let wall_ns = self.started.elapsed().as_nanos().max(1) as u64;
        let (calibration, calibration_entries) =
            *self.calibration.lock().unwrap_or_else(|e| e.into_inner());
        RegistrySnapshot {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, m)| ShardSnapshot::from_metrics(i, m))
                .collect(),
            latencies: LatencyPath::ALL
                .iter()
                .map(|&p| (p, self.hists[p.index()].snapshot()))
                .collect(),
            calibration,
            calibration_entries,
            trace_dropped: self.tracer.dropped(),
            queue_waits: self.shards.iter().map(|m| m.queue_wait.snapshot()).collect(),
            utilizations: self
                .shards
                .iter()
                .map(|m| {
                    let busy = m.busy_ns.load(Ordering::Relaxed);
                    (busy as f64 / wall_ns as f64).min(1.0)
                })
                .collect(),
            build_info: self
                .build_info
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }

    /// Renders the registry as Prometheus text exposition (format 0.0.4):
    /// per-shard counters and gauges, one histogram per latency path with
    /// cumulative `le` buckets, and `_quantile_seconds` summary lines for
    /// p50/p90/p99.
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.snapshot())
    }

    /// Renders the registry's latency quantiles and shard totals as a
    /// JSON object (the bench harness's machine-readable snapshot).
    pub fn render_json(&self) -> String {
        render_json(&self.snapshot())
    }
}

/// Per-shard counter catalogue: (metric name, help, field accessor).
type ShardField = fn(&ShardSnapshot) -> u64;

const SHARD_COUNTERS: [(&str, &str, ShardField); 21] = [
    ("hp_feedbacks_ingested_total", "Feedbacks accepted by ingest", |s| s.ingested),
    ("hp_assessments_served_total", "Assessments served by shard workers", |s| s.served),
    ("hp_assess_cache_hits_total", "Assessments answered from the versioned cache", |s| s.cache_hits),
    ("hp_assess_cache_misses_total", "Assessments that recomputed phase 1", |s| s.cache_misses),
    ("hp_feedbacks_shed_total", "Feedbacks dropped by the shed/try-for policies", |s| s.shed),
    ("hp_degraded_answers_total", "Stale published verdicts served past a deadline", |s| s.degraded),
    ("hp_shard_restarts_total", "Worker restarts performed by supervisors", |s| s.restarts),
    ("hp_quarantined_records_total", "Accepted records quarantined after crash-on-replay", |s| s.quarantined),
    ("hp_shards_failed_total", "Shards declared permanently failed", |s| s.failed),
    ("hp_journal_records_total", "Records in shard journals", |s| s.journal_records),
    ("hp_journal_bytes_total", "Bytes in shard journals", |s| s.journal_bytes),
    ("hp_journal_syncs_total", "Journal fsyncs performed", |s| s.journal_syncs),
    ("hp_journal_torn_bytes_total", "Torn-tail bytes discarded during recovery", |s| s.torn_bytes),
    ("hp_snapshots_written_total", "State snapshots written (checkpoints)", |s| s.snapshots_written),
    ("hp_snapshot_bytes_total", "Serialized snapshot bytes written", |s| s.snapshot_bytes),
    ("hp_snapshot_failures_total", "Snapshot writes that failed", |s| s.snapshot_failures),
    ("hp_snapshot_fallbacks_total", "Recovery candidates rejected during recovery", |s| s.snapshot_fallbacks),
    ("hp_tier_compacted_records_total", "Outcomes folded into summary counts by compaction", |s| s.tier_compacted),
    ("hp_tier_evictions_total", "Server histories spilled to cold segments", |s| s.tier_evictions),
    ("hp_tier_faults_total", "Spilled histories faulted back into memory", |s| s.tier_faults),
    ("hp_tier_spill_failures_total", "Cold-segment writes that failed", |s| s.tier_spill_failures),
];

/// Per-tier residency accessors for the `hp_history_resident_bytes`
/// family (one series per shard × tier).
const TIER_BYTES: [(&str, ShardField); 3] = [
    ("hot_suffix", |s| s.tier_hot_bytes),
    ("summary", |s| s.tier_summary_bytes),
    ("spilled", |s| s.tier_spilled_bytes),
];

const SHARD_GAUGES: [(&str, &str, ShardField); 2] = [
    ("hp_shard_queue_depth", "Commands queued at the shard (sampled)", |s| s.queue_depth),
    ("hp_shard_last_apply_version", "State version after the last batch apply", |s| {
        s.last_apply_version
    }),
];

const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Renders a snapshot as Prometheus text exposition.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::with_capacity(16 * 1024);
    for (name, help, field) in SHARD_COUNTERS {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for shard in &snap.shards {
            let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", shard.shard, field(shard));
        }
    }
    for (name, help, field) in SHARD_GAUGES {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for shard in &snap.shards {
            let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", shard.shard, field(shard));
        }
    }
    // Per-tier history residency: two labels (shard × tier), so it gets
    // its own block rather than a SHARD_GAUGES entry.
    let _ = writeln!(
        out,
        "# HELP hp_history_resident_bytes History bytes per storage tier (sampled)"
    );
    let _ = writeln!(out, "# TYPE hp_history_resident_bytes gauge");
    for shard in &snap.shards {
        for (tier, field) in TIER_BYTES {
            let _ = writeln!(
                out,
                "hp_history_resident_bytes{{shard=\"{}\",tier=\"{tier}\"}} {}",
                shard.shard,
                field(shard)
            );
        }
    }

    for (path, hist) in &snap.latencies {
        let name = format!("hp_{}_latency_seconds", path.name());
        render_latency_family(&mut out, &name, path.help(), &[("", hist)]);
        // Quantile summary lines (pre-computed; Prometheus can't derive
        // exact quantiles from log buckets without recording rules).
        let qname = format!("hp_{}_latency_quantile_seconds", path.name());
        let _ = writeln!(out, "# HELP {qname} Pre-computed latency quantiles");
        let _ = writeln!(out, "# TYPE {qname} gauge");
        for (q, label) in QUANTILES {
            let v = hist.quantile_ns(q) as f64 / 1e9;
            let _ = writeln!(out, "{qname}{{quantile=\"{label}\"}} {v}");
        }
        let _ = writeln!(
            out,
            "{qname}{{quantile=\"1\"}} {}",
            hist.max_ns as f64 / 1e9
        );
    }

    // Per-shard queue-wait histograms: the "waiting" attribution the span
    // subsystem stamps at enqueue/dequeue.
    let shard_labels: Vec<String> = (0..snap.queue_waits.len())
        .map(|i| format!("shard=\"{i}\""))
        .collect();
    let series: Vec<(&str, &LatencySnapshot)> = shard_labels
        .iter()
        .map(String::as_str)
        .zip(snap.queue_waits.iter())
        .collect();
    render_latency_family(
        &mut out,
        "hp_shard_queue_wait_seconds",
        "Time commands waited in the shard queue before dequeue",
        &series,
    );
    let _ = writeln!(
        out,
        "# HELP hp_shard_utilization Worker busy time / wall time since start"
    );
    let _ = writeln!(out, "# TYPE hp_shard_utilization gauge");
    for (i, u) in snap.utilizations.iter().enumerate() {
        let _ = writeln!(out, "hp_shard_utilization{{shard=\"{i}\"}} {u:.6}");
    }

    let _ = writeln!(
        out,
        "# HELP hp_build_info Build metadata carried as labels (value is always 1)"
    );
    let _ = writeln!(out, "# TYPE hp_build_info gauge");
    let _ = writeln!(out, "hp_build_info{{{}}} 1", snap.build_info);

    let cal = snap.calibration;
    for (name, help, value) in [
        (
            "hp_calibration_cache_entries",
            "Entries in the threshold-calibration cache (sampled)",
            snap.calibration_entries,
        ),
        (
            "hp_calibration_cache_hits_total",
            "Threshold lookups answered from the calibration cache",
            cal.hits,
        ),
        (
            "hp_calibration_cache_misses_total",
            "Threshold lookups that fell through every warm tier",
            cal.misses,
        ),
        (
            "hp_calibration_surface_hits_total",
            "Threshold lookups served by the interpolated surface",
            cal.surface_hits,
        ),
        (
            "hp_calibration_oracle_jobs_total",
            "Monte-Carlo row jobs executed by the calibrator",
            cal.oracle_jobs,
        ),
        (
            "hp_calibration_crn_row_fills_total",
            "Cache entries filled by common-random-number row jobs",
            cal.crn_row_fills,
        ),
        (
            "hp_calibration_singleflight_waits_total",
            "Lookups that waited on another thread's in-flight row job",
            cal.singleflight_waits,
        ),
        (
            "hp_trace_events_dropped_total",
            "Trace events evicted from full rings",
            snap.trace_dropped,
        ),
    ] {
        let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

/// Renders one Prometheus histogram family with any number of label-body
/// series (`""` for an unlabeled series, `shard="3"` style otherwise):
/// cumulative `le` buckets up to the highest occupied one, a `+Inf`
/// bucket, `_sum`, and `_count` per series. Buckets holding a traced
/// sample carry an OpenMetrics-style exemplar suffix
/// (`# {trace_id="…"} <seconds>`) linking the bucket to a concrete
/// request. Shared by the service registry and the edge's per-route
/// request histograms so both expositions render identically.
pub fn render_latency_family(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(&str, &LatencySnapshot)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (labels, hist) in series {
        let with_le = |le: &str| {
            if labels.is_empty() {
                format!("{{le=\"{le}\"}}")
            } else {
                format!("{{{labels},le=\"{le}\"}}")
            }
        };
        let plain = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let hi = hist.buckets.iter().rposition(|&n| n > 0);
        let mut cumulative = 0u64;
        if let Some(hi) = hi {
            for (i, &n) in hist.buckets.iter().take(hi + 1).enumerate() {
                cumulative += n;
                let le = LatencySnapshot::bucket_upper_seconds(i);
                let _ = write!(out, "{name}_bucket{} {cumulative}", with_le(&le.to_string()));
                if hist.exemplar_trace[i] != 0 {
                    let _ = write!(
                        out,
                        " # {{trace_id=\"{}\"}} {}",
                        format_trace_id(hist.exemplar_trace[i]),
                        hist.exemplar_ns[i] as f64 / 1e9,
                    );
                }
                out.push('\n');
            }
        }
        let _ = writeln!(out, "{name}_bucket{} {}", with_le("+Inf"), hist.count);
        let _ = writeln!(out, "{name}_sum{plain} {}", hist.sum_ns as f64 / 1e9);
        let _ = writeln!(out, "{name}_count{plain} {}", hist.count);
    }
}

/// Renders a snapshot as a flat JSON object: per-path quantiles plus
/// service totals (consumed by the bench harness and `ci.sh`).
pub fn render_json(snap: &RegistrySnapshot) -> String {
    let mut out = String::from("{\n");
    for (path, hist) in &snap.latencies {
        let _ = writeln!(
            out,
            "  \"{}\": {{\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\
             \"max_ns\":{},\"mean_ns\":{}}},",
            path.name(),
            hist.count,
            hist.quantile_ns(0.5),
            hist.quantile_ns(0.9),
            hist.quantile_ns(0.99),
            hist.max_ns,
            hist.mean_ns(),
        );
    }
    let _ = writeln!(
        out,
        "  \"totals\": {{\"ingested\":{},\"served\":{},\"shed\":{},\"degraded\":{},\
         \"restarts\":{},\"quarantined\":{},\"journal_records\":{},\"journal_bytes\":{},\
         \"snapshots_written\":{},\"snapshot_fallbacks\":{}}},",
        snap.total(|s| s.ingested),
        snap.total(|s| s.served),
        snap.total(|s| s.shed),
        snap.total(|s| s.degraded),
        snap.total(|s| s.restarts),
        snap.total(|s| s.quarantined),
        snap.total(|s| s.journal_records),
        snap.total(|s| s.journal_bytes),
        snap.total(|s| s.snapshots_written),
        snap.total(|s| s.snapshot_fallbacks),
    );
    let _ = writeln!(
        out,
        "  \"calibration\": {{\"entries\":{},\"hits\":{},\"misses\":{},\"surface_hits\":{},\
         \"oracle_jobs\":{},\"crn_row_fills\":{},\"singleflight_waits\":{}}},\n  \"shards\": {}",
        snap.calibration_entries,
        snap.calibration.hits,
        snap.calibration.misses,
        snap.calibration.surface_hits,
        snap.calibration.oracle_jobs,
        snap.calibration.crn_row_fills,
        snap.calibration.singleflight_waits,
        snap.shards.len(),
    );
    out.push_str("}\n");
    out
}

/// Formats an [`AssessmentTrace`] alongside the registry's assess-path
/// latencies — the "one verdict, fully explained" operator view the
/// example prints.
pub fn explain_assessment(registry: &MetricsRegistry, trace: &AssessmentTrace) -> String {
    let e2e = registry.latency(LatencyPath::AssessE2e);
    format!(
        "{trace}\n  service: assess e2e p50={}ns p99={}ns over {} served",
        e2e.quantile_ns(0.5),
        e2e.quantile_ns(0.99),
        e2e.count,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_writes() {
        let reg = MetricsRegistry::new(2, 16, false);
        reg.shard(0).counters.add_ingested(10);
        reg.shard(1).counters.add_ingested(5);
        reg.shard(1).counters.add_served(2);
        reg.set_queue_depth(1, 7);
        reg.shard(0).last_apply_version.store(10, Ordering::Relaxed);
        reg.record_latency(LatencyPath::AssessE2e, 1_000);
        let calibration = CalibrationStats {
            hits: 40,
            misses: 2,
            surface_hits: 17,
            oracle_jobs: 2,
            crn_row_fills: 402,
            singleflight_waits: 1,
        };
        reg.set_calibration(calibration, 3);

        let snap = reg.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].ingested, 10);
        assert_eq!(snap.shards[1].ingested, 5);
        assert_eq!(snap.total(|s| s.ingested), 15);
        assert_eq!(snap.shards[1].queue_depth, 7);
        assert_eq!(snap.shards[0].last_apply_version, 10);
        assert_eq!(snap.latency(LatencyPath::AssessE2e).count, 1);
        assert_eq!(snap.latency(LatencyPath::IngestApply).count, 0);
        assert_eq!((snap.calibration, snap.calibration_entries), (calibration, 3));
    }

    #[test]
    fn prometheus_exposition_contains_all_required_metrics() {
        let reg = MetricsRegistry::new(2, 16, false);
        reg.shard(0).counters.add_ingested(100);
        reg.record_latency_n(LatencyPath::IngestApply, 2_000, 100);
        reg.record_latency(LatencyPath::JournalAppend, 40_000);
        reg.record_latency(LatencyPath::JournalFsync, 900_000);
        reg.record_latency(LatencyPath::AssessCompute, 8_000);
        reg.record_latency(LatencyPath::AssessE2e, 15_000);
        reg.record_latency(LatencyPath::AssessCalibration, 3_000_000);

        reg.shard(1).counters.add_tier_compacted(640);
        reg.set_tier_bytes(1, 4096, 512, 8192);
        let text = reg.render_prometheus();
        for required in [
            "hp_feedbacks_ingested_total{shard=\"0\"} 100",
            "hp_feedbacks_ingested_total{shard=\"1\"} 0",
            "hp_tier_compacted_records_total{shard=\"1\"} 640",
            "hp_tier_evictions_total{shard=\"0\"} 0",
            "hp_tier_faults_total{shard=\"0\"} 0",
            "hp_history_resident_bytes{shard=\"1\",tier=\"hot_suffix\"} 4096",
            "hp_history_resident_bytes{shard=\"1\",tier=\"summary\"} 512",
            "hp_history_resident_bytes{shard=\"1\",tier=\"spilled\"} 8192",
            "# TYPE hp_history_resident_bytes gauge",
            "hp_shard_queue_depth{shard=\"0\"}",
            "hp_shard_last_apply_version{shard=\"1\"}",
            "hp_ingest_apply_latency_seconds_count 100",
            "hp_journal_append_latency_seconds_bucket",
            "hp_journal_fsync_latency_seconds_sum 0.0009",
            "hp_assess_compute_latency_seconds_count 1",
            "hp_assess_e2e_latency_quantile_seconds{quantile=\"0.99\"}",
            "hp_assess_calibration_latency_seconds_count 1",
            "# TYPE hp_assess_calibration_latency_seconds histogram",
            "hp_calibration_cache_entries 0",
            "hp_calibration_surface_hits_total 0",
            "hp_calibration_oracle_jobs_total 0",
            "hp_calibration_crn_row_fills_total 0",
            "hp_calibration_singleflight_waits_total 0",
            "hp_trace_events_dropped_total 0",
            "# TYPE hp_ingest_apply_latency_seconds histogram",
            "# TYPE hp_shard_queue_depth gauge",
        ] {
            assert!(text.contains(required), "missing `{required}` in:\n{text}");
        }
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let reg = MetricsRegistry::new(1, 16, false);
        reg.record_latency(LatencyPath::AssessE2e, 100);
        reg.record_latency(LatencyPath::AssessE2e, 100_000);
        let text = reg.render_prometheus();
        let inf_line = text
            .lines()
            .find(|l| l.starts_with("hp_assess_e2e_latency_seconds_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket present");
        assert!(inf_line.ends_with(" 2"), "{inf_line}");
        // Bucket counts never decrease down the exposition.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("hp_assess_e2e_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn json_snapshot_has_per_path_quantiles_and_totals() {
        let reg = MetricsRegistry::new(1, 16, false);
        reg.shard(0).counters.add_ingested(42);
        reg.record_latency_n(LatencyPath::IngestApply, 3_000, 42);
        let json = reg.render_json();
        assert!(json.contains("\"ingest_apply\""), "{json}");
        assert!(json.contains("\"p99_ns\""), "{json}");
        assert!(json.contains("\"ingested\":42"), "{json}");
        assert!(json.contains("\"shards\": 1"), "{json}");
    }

    #[test]
    fn queue_wait_utilization_and_build_info_are_exposed() {
        let reg = MetricsRegistry::new(2, 16, false);
        reg.record_queue_wait(1, 50_000);
        reg.add_busy_ns(1, 1_000_000);
        reg.set_build_info("version=\"0.1.0\",git=\"abc\",trust=\"average\",shards=\"2\"".into());

        let snap = reg.snapshot();
        assert_eq!(snap.queue_waits.len(), 2);
        assert_eq!(snap.queue_waits[0].count, 0);
        assert_eq!(snap.queue_waits[1].count, 1);
        assert!(snap.utilizations[1] > 0.0 && snap.utilizations[1] <= 1.0);

        let text = reg.render_prometheus();
        for required in [
            "# TYPE hp_shard_queue_wait_seconds histogram",
            "hp_shard_queue_wait_seconds_bucket{shard=\"1\",le=",
            "hp_shard_queue_wait_seconds_count{shard=\"0\"} 0",
            "hp_shard_queue_wait_seconds_count{shard=\"1\"} 1",
            "hp_shard_utilization{shard=\"0\"} 0.000000",
            "hp_build_info{version=\"0.1.0\",git=\"abc\",trust=\"average\",shards=\"2\"} 1",
        ] {
            assert!(text.contains(required), "missing `{required}` in:\n{text}");
        }
    }

    #[test]
    fn traced_latencies_render_exemplars_and_lint_clean() {
        let reg = MetricsRegistry::new(2, 16, false);
        reg.record_latency_traced(LatencyPath::AssessE2e, 100_000, 0xab);
        reg.record_queue_wait(0, 10_000);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# {trace_id=\"00000000000000ab\"} 0.0001"),
            "{text}"
        );
        let errors = super::super::lint::lint_prometheus(&text);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn registry_tracer_is_wired() {
        let reg = MetricsRegistry::new(1, 4, true);
        reg.tracer()
            .emit(0, 5, super::super::trace::TraceKind::ReplayStart);
        assert_eq!(reg.snapshot().trace_dropped, 0);
        assert_eq!(reg.tracer().drain_all().len(), 1);
    }
}
