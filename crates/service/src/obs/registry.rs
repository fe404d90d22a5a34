//! The unified metrics registry: one declarative metric table, per-shard
//! scalar storage indexed by it, and path latency histograms under one
//! roof.
//!
//! Shard workers, supervisors, and the service front end all hold an
//! `Arc<MetricsRegistry>` and write through it; readers pull a coherent
//! [`RegistrySnapshot`] or render the whole state as Prometheus text
//! exposition. [`METRIC_TABLE`] is the catalogue: storage, snapshot,
//! exposition, the JSON snapshot and [`ServiceStats`]'s totals all iterate
//! it, so a new per-shard series is one row plus one write site.
//! Everything here is lock-free on the write path (atomic counters and
//! histogram buckets).

use super::audit::AssessmentTrace;
use super::histogram::{LatencyHistogram, LatencySnapshot};
use super::span::format_trace_id;
use crate::metrics::ServiceStats;
use hp_stats::CalibrationStats;
use parking_lot::Mutex;
use std::fmt::{self, Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What a family's `TYPE` line says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone since process start.
    Counter,
    /// A sampled or settable value.
    Gauge,
    /// Cumulative `le` buckets plus `_sum` and `_count`.
    Histogram,
}

impl Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        })
    }
}

/// One exposition family as its `HELP` / `TYPE` header declares it.
/// Every family any layer serves on `/metrics` is a `const` one of these,
/// rendered by [`render_scalar_family`] or [`render_latency_family`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family {
    /// Metric name, `hp_` prefixed.
    pub name: &'static str,
    /// Help text, verbatim after the name on the `HELP` line.
    pub help: &'static str,
    /// Counter, gauge or histogram.
    pub kind: Kind,
}

impl Family {
    /// A counter family.
    pub const fn counter(name: &'static str, help: &'static str) -> Family {
        Family {
            name,
            help,
            kind: Kind::Counter,
        }
    }

    /// A gauge family.
    pub const fn gauge(name: &'static str, help: &'static str) -> Family {
        Family {
            name,
            help,
            kind: Kind::Gauge,
        }
    }

    /// A histogram family.
    pub const fn histogram(name: &'static str, help: &'static str) -> Family {
        Family {
            name,
            help,
            kind: Kind::Histogram,
        }
    }
}

/// Where a table row's samples come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// One series per shard from its metric block, with an extra label
    /// suffix (`,tier="…"` or none); rows sharing a family name render
    /// under one header.
    Shard(ShardMetric, &'static str),
    /// One path's histogram.
    Latency(LatencyPath),
    /// The per-shard queue-wait histograms.
    QueueWait,
    /// Per-shard busy time / wall time.
    Utilization,
    /// The constant-1 gauge carrying the build labels.
    BuildInfo,
    /// One unlabeled service-wide value.
    Global(fn(&RegistrySnapshot) -> u64),
}

/// One row of [`METRIC_TABLE`].
#[derive(Debug, Clone, Copy)]
pub struct MetricRow {
    /// The exposition family the row renders under.
    pub family: Family,
    pub(crate) source: Source,
    /// Key in the JSON snapshot (`""` = not in it).
    pub(crate) json: &'static str,
    /// The [`ServiceStats`] total the row's service-wide sum feeds.
    pub(crate) stat: Option<fn(&mut ServiceStats) -> &mut u64>,
}

impl MetricRow {
    const fn new(family: Family, source: Source) -> MetricRow {
        MetricRow {
            family,
            source,
            json: "",
            stat: None,
        }
    }

    const fn json(mut self, key: &'static str) -> MetricRow {
        self.json = key;
        self
    }

    const fn stat(mut self, field: fn(&mut ServiceStats) -> &mut u64) -> MetricRow {
        self.stat = Some(field);
        self
    }

    /// The row's service-wide scalar — a per-shard series summed over the
    /// shards — or `None` for histograms and labelled gauges.
    pub(crate) fn total(&self, snap: &RegistrySnapshot) -> Option<u64> {
        match self.source {
            Source::Shard(metric, _) => Some(snap.total(metric)),
            Source::Global(value) => Some(value(snap)),
            _ => None,
        }
    }
}

/// Declares the metric set in exposition order, and with it the two
/// enums that index its storage. A `shard` row — `Variant = kind(name[,
/// tier]), help[, json key][, stat ServiceStats field]` — is one per-shard
/// series; a `latency` row — `Variant = stem, help` — one path's
/// `hp_<stem>_latency_seconds` histogram.
macro_rules! metric_table {
    (shard { $($variant:ident = $kind:ident($name:literal $(, $tier:literal)?), $help:literal
               $(, json $json:literal)? $(, stat $stat:ident)?;)* }
     latency { $($(#[$doc:meta])* $path:ident = $stem:literal, $path_help:literal;)* }
     service [ $($row:expr,)* ]) => {
        /// The per-shard scalar series (each documented by its help
        /// text): the index into a shard's metric block and into
        /// [`ShardSnapshot`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ShardMetric { $(#[doc = $help] $variant,)* }

        /// The instrumented latency paths, one histogram each.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum LatencyPath { $($(#[$doc])* $path,)* }

        const SCALARS: usize = [$(ShardMetric::$variant),*].len();
        const PATHS: usize = [$(LatencyPath::$path),*].len();

        /// Every family the service exposes, in exposition order — the
        /// one declaration of the metric set. The exposition, the JSON
        /// snapshot, [`ServiceStats`] and the catalogue tests iterate it.
        pub const METRIC_TABLE: &[MetricRow] = &[
            $(MetricRow::new(
                Family::$kind($name, $help),
                Source::Shard(ShardMetric::$variant, concat!($(",tier=\"", $tier, "\"")?)),
            ) $(.json($json))? $(.stat(|s| &mut s.$stat))?,)*
            $(MetricRow::new(
                Family::histogram(concat!("hp_", $stem, "_latency_seconds"), $path_help),
                Source::Latency(LatencyPath::$path),
            ).json($stem),)*
            $($row,)*
        ];
    };
}

#[rustfmt::skip]
metric_table! {
    shard {
        Ingested = counter("hp_feedbacks_ingested_total"), "Feedbacks accepted by ingest", json "ingested", stat ingested_feedbacks;
        Served = counter("hp_assessments_served_total"), "Assessments served by shard workers", json "served", stat assessments_served;
        CacheHits = counter("hp_assess_cache_hits_total"), "Assessments answered from the versioned cache", stat cache_hits;
        CacheMisses = counter("hp_assess_cache_misses_total"), "Assessments that recomputed phase 1", stat cache_misses;
        Shed = counter("hp_feedbacks_shed_total"), "Feedbacks dropped by the shed/try-for policies", json "shed", stat shed_feedbacks;
        Degraded = counter("hp_degraded_answers_total"), "Stale published verdicts served past a deadline", json "degraded", stat degraded_answers;
        Restarts = counter("hp_shard_restarts_total"), "Worker restarts performed by supervisors", json "restarts", stat shard_restarts;
        Quarantined = counter("hp_quarantined_records_total"), "Accepted records quarantined after crash-on-replay", json "quarantined", stat quarantined_records;
        Failed = counter("hp_shards_failed_total"), "Shards declared permanently failed", stat failed_shards;
        JournalRecords = counter("hp_journal_records_total"), "Records in shard journals", json "journal_records", stat journal_records;
        JournalBytes = counter("hp_journal_bytes_total"), "Bytes in shard journals", json "journal_bytes", stat journal_bytes;
        ReplayedRecords = counter("hp_replayed_records_total"), "Records recovery folded back into state";
        TornBytes = counter("hp_journal_torn_bytes_total"), "Torn-tail bytes discarded during recovery";
        SnapshotsWritten = counter("hp_snapshots_written_total"), "State snapshots written (checkpoints)", json "snapshots_written", stat snapshots_written;
        SnapshotBytes = counter("hp_snapshot_bytes_total"), "Serialized snapshot bytes written", stat snapshot_bytes;
        SnapshotFailures = counter("hp_snapshot_failures_total"), "Snapshot writes that failed";
        SnapshotFallbacks = counter("hp_snapshot_fallbacks_total"), "Recovery candidates rejected during recovery", json "snapshot_fallbacks", stat snapshot_fallbacks;
        TierCompacted = counter("hp_tier_compacted_records_total"), "Outcomes folded into summary counts by compaction", stat tier_compacted_records;
        TierEvictions = counter("hp_tier_evictions_total"), "Server histories spilled to cold segments", stat tier_evictions;
        TierFaults = counter("hp_tier_faults_total"), "Spilled histories faulted back into memory", stat tier_faults;
        TierSpillFailures = counter("hp_tier_spill_failures_total"), "Cold-segment writes that failed";
        QueueDepth = gauge("hp_shard_queue_depth"), "Commands queued at the shard (sampled)";
        LastApplyVersion = gauge("hp_shard_last_apply_version"), "State version after the last batch apply";
        TierHotBytes = gauge("hp_history_resident_bytes", "hot_suffix"), "History bytes per storage tier (sampled)", stat tier_hot_suffix_bytes;
        TierSpilledBytes = gauge("hp_history_resident_bytes", "spilled"), "History bytes per storage tier (sampled)", stat tier_spilled_bytes;
        JournalFsyncs = counter("hp_journal_fsyncs_total"), "Journal fsyncs by group commits (one per synced group)";
    }
    latency {
        /// Ingest enqueue→apply: from `ingest_batch` enqueueing a batch to
        /// the shard worker folding it into state (includes queue wait and
        /// the group commit's journal append).
        IngestApply = "ingest_apply", "Per-feedback latency from ingest accept to state apply";
        /// Journal `append_batch` wall time (buffered write + flush + any
        /// fsync).
        JournalAppend = "journal_append", "Journal append_batch wall time per batch";
        /// The fsync portion of a journal append alone.
        JournalFsync = "journal_fsync", "Journal fsync time per synced batch";
        /// Phase-1 + phase-2 assessment compute inside the shard worker
        /// (cache hits included — they are real served latency).
        AssessCompute = "assess_compute", "In-worker assessment compute time per served verdict (calibration excluded)";
        /// End-to-end assess as the caller sees it: send, queue wait,
        /// compute, reply (degraded answers included).
        AssessE2e = "assess_e2e", "End-to-end assessment latency as seen by the caller";
        /// Calibration wall time inside an assessment: Monte-Carlo row jobs
        /// plus single-flight waits on another thread's job, attributed to
        /// the serving thread. Recorded only when nonzero — warm serves
        /// (cache or surface hits) contribute nothing here.
        AssessCalibration = "assess_calibration", "Calibration wall time (Monte-Carlo jobs and single-flight waits) per assessment";
    }
    service [
        MetricRow::new(Family::histogram("hp_shard_queue_wait_seconds", "Time commands waited in the shard queue before dequeue"), Source::QueueWait),
        MetricRow::new(Family::gauge("hp_shard_utilization", "Worker busy time / wall time since start"), Source::Utilization),
        MetricRow::new(Family::gauge("hp_build_info", "Build metadata carried as labels (value is always 1)"), Source::BuildInfo),
        MetricRow::new(Family::gauge("hp_calibration_cache_entries", "Entries in the threshold-calibration cache (sampled)"), Source::Global(|s| s.calibration_entries)).json("entries"),
        MetricRow::new(Family::gauge("hp_calibration_cache_bytes", "Heap bytes of the calibration rows held (sampled)"), Source::Global(|s| s.calibration_bytes)).json("bytes"),
        MetricRow::new(Family::counter("hp_calibration_cache_hits_total", "Threshold lookups answered from the calibration cache"), Source::Global(|s| s.calibration.hits)).json("hits").stat(|s| &mut s.calibration_cache_hits),
        MetricRow::new(Family::counter("hp_calibration_cache_misses_total", "Threshold lookups that fell through every warm tier"), Source::Global(|s| s.calibration.misses)).json("misses").stat(|s| &mut s.calibration_cache_misses),
        MetricRow::new(Family::counter("hp_calibration_surface_hits_total", "Threshold lookups served by the interpolated surface"), Source::Global(|s| s.calibration.surface_hits)).json("surface_hits").stat(|s| &mut s.calibration_surface_hits),
        MetricRow::new(Family::counter("hp_calibration_oracle_jobs_total", "Monte-Carlo row jobs executed by the calibrator"), Source::Global(|s| s.calibration.oracle_jobs)).json("oracle_jobs").stat(|s| &mut s.calibration_oracle_jobs),
        MetricRow::new(Family::counter("hp_calibration_crn_row_fills_total", "Cache entries filled by common-random-number row jobs"), Source::Global(|s| s.calibration.crn_row_fills)).json("crn_row_fills"),
        MetricRow::new(Family::counter("hp_calibration_singleflight_waits_total", "Lookups that waited on another thread's in-flight row job"), Source::Global(|s| s.calibration.singleflight_waits)).json("singleflight_waits").stat(|s| &mut s.calibration_singleflight_waits),
    ]
}

/// One shard's metric block: a slot per [`ShardMetric`] plus the
/// waiting-vs-working instruments.
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    scalars: [AtomicU64; SCALARS],
    /// Time commands spent waiting in this shard's queue before the
    /// worker dequeued them (the "waiting" half of waiting-vs-working).
    pub(crate) queue_wait: LatencyHistogram,
    /// Nanoseconds this shard's worker spent processing commands (the
    /// "working" half; utilization = busy_ns / wall time).
    pub(crate) busy_ns: AtomicU64,
}

impl ShardMetrics {
    /// Adds `n` to `metric`. Relaxed, like every write here: these are
    /// statistics, not synchronization points.
    #[inline]
    pub(crate) fn add(&self, metric: ShardMetric, n: u64) {
        self.scalars[metric as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Stores a sampled value for `metric`.
    #[inline]
    pub(crate) fn set(&self, metric: ShardMetric, value: u64) {
        self.scalars[metric as usize].store(value, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one shard's scalar metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    scalars: [u64; SCALARS],
}

impl ShardSnapshot {
    /// The value of `metric` on this shard.
    pub fn get(&self, metric: ShardMetric) -> u64 {
        self.scalars[metric as usize]
    }
}

/// A coherent point-in-time copy of the whole registry.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Per-shard metric blocks, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    latencies: [LatencySnapshot; PATHS],
    /// The shared calibrator's lifetime counters at sample time.
    pub calibration: CalibrationStats,
    /// Thresholds the calibrator held at sample time.
    pub calibration_entries: u64,
    /// Heap bytes of the rows the calibrator held at sample time.
    pub calibration_bytes: u64,
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
        &self.latencies[path as usize]
    }

    /// Sums one per-shard series over all shards.
    pub fn total(&self, metric: ShardMetric) -> u64 {
        self.shards.iter().map(|s| s.get(metric)).sum()
    }
}

/// The unified registry shared by the service, its workers, and its
/// supervisors.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<ShardMetrics>,
    hists: [LatencyHistogram; PATHS],
    calibration: Mutex<(CalibrationStats, u64, u64)>,
    started: Instant,
    build_info: Mutex<String>,
}

impl MetricsRegistry {
    /// A registry for `shards` shards.
    pub fn new(shards: usize) -> Self {
        MetricsRegistry {
            shards: (0..shards)
                .map(|_| ShardMetrics {
                    scalars: std::array::from_fn(|_| AtomicU64::new(0)),
                    queue_wait: LatencyHistogram::default(),
                    busy_ns: AtomicU64::new(0),
                })
                .collect(),
            hists: Default::default(),
            calibration: Mutex::new(Default::default()),
            started: Instant::now(),
            build_info: Mutex::new(format!(
                "version=\"{}\",git=\"{}\"",
                env!("CARGO_PKG_VERSION"),
                option_env!("HP_GIT_HASH").unwrap_or("unknown"),
            )),
        }
    }

    /// One shard's metric block (panics on out-of-range index, which is
    /// a service bug: shard indices are fixed at construction).
    pub(crate) fn shard(&self, shard: usize) -> &ShardMetrics {
        &self.shards[shard]
    }

    /// The histogram `path` records into.
    #[inline]
    pub fn latency(&self, path: LatencyPath) -> &LatencyHistogram {
        &self.hists[path as usize]
    }

    /// Sets the label body rendered on the `hp_build_info` gauge (the
    /// service front end adds its trust model and shard count here).
    pub fn set_build_info(&self, labels: String) {
        *self.build_info.lock() = labels;
    }

    /// Stores the calibrator's sampled counters, how many thresholds it
    /// holds and in how many heap bytes (set by the service front end
    /// before snapshots/exposition are taken).
    pub fn set_calibration(&self, stats: CalibrationStats, entries: u64, bytes: u64) {
        *self.calibration.lock() = (stats, entries, bytes);
    }

    /// Takes a coherent snapshot of everything in the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let wall_ns = self.started.elapsed().as_nanos().max(1) as u64;
        let (calibration, calibration_entries, calibration_bytes) = *self.calibration.lock();
        RegistrySnapshot {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(shard, m)| ShardSnapshot {
                    shard,
                    scalars: std::array::from_fn(|i| m.scalars[i].load(Ordering::Relaxed)),
                })
                .collect(),
            latencies: std::array::from_fn(|i| self.hists[i].snapshot()),
            calibration,
            calibration_entries,
            calibration_bytes,
            queue_waits: self
                .shards
                .iter()
                .map(|m| m.queue_wait.snapshot())
                .collect(),
            utilizations: self
                .shards
                .iter()
                .map(|m| {
                    let busy = m.busy_ns.load(Ordering::Relaxed);
                    (busy as f64 / wall_ns as f64).min(1.0)
                })
                .collect(),
            build_info: self.build_info.lock().clone(),
        }
    }

    /// Renders the registry as Prometheus text exposition (format 0.0.4):
    /// every [`METRIC_TABLE`] family in table order — per-shard counters
    /// and gauges, and one histogram per latency path with cumulative
    /// `le` buckets.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(16 * 1024);
        let by_shard = |i: usize| format!("shard=\"{i}\"");
        for rows in METRIC_TABLE.chunk_by(|a, b| a.family.name == b.family.name) {
            let family = &rows[0].family;
            match rows[0].source {
                Source::Shard(..) => {
                    let series = snap.shards.iter().flat_map(|s| {
                        rows.iter().filter_map(move |row| match row.source {
                            Source::Shard(metric, extra) => {
                                Some((format!("shard=\"{}\"{extra}", s.shard), s.get(metric)))
                            }
                            _ => None,
                        })
                    });
                    render_scalar_family(&mut out, family, series);
                }
                Source::Latency(path) => {
                    render_latency_family(&mut out, family, [("", snap.latency(path))]);
                }
                Source::QueueWait => {
                    let series = snap.queue_waits.iter().enumerate();
                    render_latency_family(&mut out, family, series.map(|(i, h)| (by_shard(i), h)));
                }
                Source::Utilization => {
                    let series = snap.utilizations.iter().enumerate();
                    let series = series.map(|(i, u)| (by_shard(i), format!("{u:.6}")));
                    render_scalar_family(&mut out, family, series);
                }
                Source::BuildInfo => {
                    render_scalar_family(&mut out, family, [(&snap.build_info, 1)]);
                }
                Source::Global(value) => {
                    render_scalar_family(&mut out, family, [("", value(&snap))]);
                }
            }
        }
        out
    }

    /// Renders the registry's latency quantiles and shard totals as a
    /// JSON object (the machine-readable snapshot
    /// `examples/online_service.rs` writes): every table row with a JSON
    /// key, grouped by where its value comes from.
    pub fn render_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{\n");
        let (mut totals, mut calibration) = (Vec::new(), Vec::new());
        for row in METRIC_TABLE.iter().filter(|row| !row.json.is_empty()) {
            let key = row.json;
            match (row.source, row.total(&snap)) {
                (Source::Latency(path), _) => {
                    let hist = snap.latency(path);
                    let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| hist.quantile_ns(q));
                    let _ = writeln!(
                        out,
                        "  \"{key}\": {{\"count\":{},\"p50_ns\":{p50},\"p90_ns\":{p90},\
                         \"p99_ns\":{p99},\"max_ns\":{},\"mean_ns\":{}}},",
                        hist.count,
                        hist.max_ns,
                        hist.mean_ns(),
                    );
                }
                (Source::Shard(..), Some(total)) => totals.push(format!("\"{key}\":{total}")),
                (_, Some(value)) => calibration.push(format!("\"{key}\":{value}")),
                _ => {}
            }
        }
        let _ = writeln!(
            out,
            "  \"totals\": {{{}}},\n  \"calibration\": {{{}}},\n  \"shards\": {}\n}}",
            totals.join(","),
            calibration.join(","),
            snap.shards.len(),
        );
        out
    }
}

/// Renders one counter or gauge family: its `HELP` / `TYPE` header,
/// then one sample per `(label body, value)` — `""` for an unlabeled
/// series, `shard="3"` style otherwise. With [`render_latency_family`]
/// the only code that writes a family header, for every layer's
/// exposition.
pub fn render_scalar_family<L: AsRef<str>, V: Display>(
    out: &mut String,
    family: &Family,
    series: impl IntoIterator<Item = (L, V)>,
) {
    let Family { name, help, kind } = family;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in series {
        let _ = match labels.as_ref() {
            "" => writeln!(out, "{name} {value}"),
            labels => writeln!(out, "{name}{{{labels}}} {value}"),
        };
    }
}

/// Renders one Prometheus histogram family with any number of label-body
/// series (`""` for an unlabeled series, `shard="3"` style otherwise):
/// cumulative `le` buckets up to the highest occupied one, a `+Inf`
/// bucket, `_sum`, and `_count` per series. Buckets holding a traced
/// sample carry an OpenMetrics-style exemplar suffix
/// (`# {trace_id="…"} <seconds>`) linking the bucket to a concrete
/// request. Shared by the service registry and the edge's per-route
/// request histograms so both expositions render identically.
pub fn render_latency_family<'a, L: AsRef<str>>(
    out: &mut String,
    family: &Family,
    series: impl IntoIterator<Item = (L, &'a LatencySnapshot)>,
) {
    let Family { name, help, kind } = family;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, hist) in series {
        let (labels, plain) = match labels.as_ref() {
            "" => (String::new(), String::new()),
            labels => (format!("{labels},"), format!("{{{labels}}}")),
        };
        let hi = hist.buckets.iter().rposition(|&n| n > 0);
        let mut cumulative = 0u64;
        for (i, &n) in hist
            .buckets
            .iter()
            .enumerate()
            .take(hi.map_or(0, |hi| hi + 1))
        {
            cumulative += n;
            let le = LatencySnapshot::bucket_upper_seconds(i);
            let _ = write!(out, "{name}_bucket{{{labels}le=\"{le}\"}} {cumulative}");
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
        let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{name}_sum{plain} {}", hist.sum_ns as f64 / 1e9);
        let _ = writeln!(out, "{name}_count{plain} {}", hist.count);
    }
}

/// Formats an [`AssessmentTrace`] alongside the registry's assess-path
/// latencies — the "one verdict, fully explained" operator view the
/// example prints.
pub fn explain_assessment(registry: &MetricsRegistry, trace: &AssessmentTrace) -> String {
    let e2e = registry.latency(LatencyPath::AssessE2e).snapshot();
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
    use crate::obs::lint_prometheus;

    #[test]
    fn snapshot_reflects_writes() {
        let reg = MetricsRegistry::new(2);
        reg.shard(0).add(ShardMetric::Ingested, 10);
        reg.shard(1).add(ShardMetric::Ingested, 5);
        reg.shard(1).add(ShardMetric::Served, 2);
        reg.shard(1).set(ShardMetric::QueueDepth, 7);
        reg.shard(0).add(ShardMetric::LastApplyVersion, 10);
        reg.latency(LatencyPath::AssessE2e).record_ns(1_000);
        let calibration = CalibrationStats {
            hits: 40,
            misses: 2,
            surface_hits: 17,
            oracle_jobs: 2,
            crn_row_fills: 402,
            singleflight_waits: 1,
        };
        reg.set_calibration(calibration, 3, 4096);

        let snap = reg.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].get(ShardMetric::Ingested), 10);
        assert_eq!(snap.shards[1].get(ShardMetric::Ingested), 5);
        assert_eq!(snap.total(ShardMetric::Ingested), 15);
        assert_eq!(snap.shards[1].get(ShardMetric::QueueDepth), 7);
        assert_eq!(snap.shards[0].get(ShardMetric::LastApplyVersion), 10);
        assert_eq!(snap.latency(LatencyPath::AssessE2e).count, 1);
        assert_eq!(snap.latency(LatencyPath::IngestApply).count, 0);
        assert_eq!(
            (
                snap.calibration,
                snap.calibration_entries,
                snap.calibration_bytes
            ),
            (calibration, 3, 4096)
        );
    }

    #[test]
    fn prometheus_exposition_contains_all_required_metrics() {
        let reg = MetricsRegistry::new(2);
        reg.shard(0).add(ShardMetric::Ingested, 100);
        reg.latency(LatencyPath::IngestApply).record_n(2_000, 100);
        reg.latency(LatencyPath::JournalAppend).record_ns(40_000);
        reg.latency(LatencyPath::JournalFsync).record_ns(900_000);
        reg.latency(LatencyPath::AssessCompute).record_ns(8_000);
        reg.latency(LatencyPath::AssessE2e).record_ns(15_000);
        reg.latency(LatencyPath::AssessCalibration)
            .record_ns(3_000_000);

        reg.shard(1).add(ShardMetric::TierCompacted, 640);
        reg.shard(1).add(ShardMetric::ReplayedRecords, 90);
        reg.shard(1).set(ShardMetric::TierHotBytes, 4096);
        reg.shard(1).set(ShardMetric::TierSpilledBytes, 8192);
        let text = reg.render_prometheus();
        for required in [
            "hp_feedbacks_ingested_total{shard=\"0\"} 100",
            "hp_feedbacks_ingested_total{shard=\"1\"} 0",
            "hp_tier_compacted_records_total{shard=\"1\"} 640",
            "hp_replayed_records_total{shard=\"1\"} 90",
            "hp_tier_evictions_total{shard=\"0\"} 0",
            "hp_tier_faults_total{shard=\"0\"} 0",
            "hp_history_resident_bytes{shard=\"1\",tier=\"hot_suffix\"} 4096",
            "hp_history_resident_bytes{shard=\"1\",tier=\"spilled\"} 8192",
            "# TYPE hp_history_resident_bytes gauge",
            "hp_shard_queue_depth{shard=\"0\"}",
            "hp_shard_last_apply_version{shard=\"1\"}",
            "hp_ingest_apply_latency_seconds_count 100",
            "hp_journal_append_latency_seconds_bucket",
            "hp_journal_fsync_latency_seconds_sum 0.0009",
            "hp_assess_compute_latency_seconds_count 1",
            "hp_assess_e2e_latency_seconds_count 1",
            "hp_assess_calibration_latency_seconds_count 1",
            "# TYPE hp_assess_calibration_latency_seconds histogram",
            "hp_calibration_cache_entries 0",
            "hp_calibration_cache_bytes 0",
            "hp_calibration_surface_hits_total 0",
            "hp_calibration_oracle_jobs_total 0",
            "hp_calibration_crn_row_fills_total 0",
            "hp_calibration_singleflight_waits_total 0",
            "# TYPE hp_ingest_apply_latency_seconds histogram",
            "# TYPE hp_shard_queue_depth gauge",
        ] {
            assert!(text.contains(required), "missing `{required}` in:\n{text}");
        }
    }

    /// FNV-1a (the pinned-bytes fingerprint, as in `hp-core`'s `tiered.rs`).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Length and fingerprint of both renderings over a fixed script of
    /// writes — two shards, every per-shard series a distinct value, one
    /// exemplar-carrying sample per latency path, queue waits, fixed
    /// build labels, no busy time (utilization prints `0.000000`) and no
    /// duration an exact power of two — as computed at the commit before
    /// the metric table existed (PR 21's parent), when the exposition was
    /// seven hand-written blocks, plus the one family added since
    /// (`hp_calibration_cache_bytes`: 154 bytes of text, 11 of JSON):
    /// deriving it from the table must not move a byte of what a scraper
    /// reads. The text pin was last re-derived from the previous commit's
    /// render (19 591 bytes): the six `_quantile_seconds` blocks and the
    /// trace-ring drop counter deleted, and the
    /// `hp_journal_syncs_total` block replaced by
    /// `hp_replayed_records_total`'s, which holds that slot and so the
    /// same values. The JSON pin did not move. Since then one family was
    /// appended after every other per-shard row, so no row's scripted
    /// value moved: `hp_journal_fsyncs_total`, 205 bytes of text added to
    /// the previous commit's 16 995, and none of JSON.
    #[test]
    fn exposition_and_json_bytes_are_pinned() {
        let reg = MetricsRegistry::new(2);
        for shard in 0..2u64 {
            let slots = METRIC_TABLE.iter().filter_map(|row| match row.source {
                Source::Shard(metric, _) => Some(metric),
                _ => None,
            });
            for (i, metric) in slots.enumerate() {
                reg.shard(shard as usize)
                    .set(metric, 1000 * (shard + 1) + i as u64);
            }
            reg.shard(shard as usize)
                .queue_wait
                .record_ns(700 + 5000 * shard);
        }
        let paths = METRIC_TABLE.iter().filter_map(|row| match row.source {
            Source::Latency(path) => Some(path),
            _ => None,
        });
        for (i, path) in paths.enumerate() {
            let i = i as u64;
            reg.latency(path)
                .record_ns_traced(3_000 * (i + 1) * (i + 1), 0xa0 + i);
        }
        reg.latency(LatencyPath::IngestApply).record_n(77_777, 5);
        reg.set_build_info(
            "version=\"9.9.9\",git=\"pinned\",trust=\"average\",shards=\"2\"".into(),
        );
        let calibration = CalibrationStats {
            hits: 41,
            misses: 42,
            surface_hits: 43,
            oracle_jobs: 44,
            crn_row_fills: 45,
            singleflight_waits: 46,
        };
        reg.set_calibration(calibration, 47, 48);
        let text = reg.render_prometheus();
        assert_eq!(
            (text.len(), fnv1a(text.as_bytes())),
            (17_086, 0x5634_1f89_024e_6efd),
            "{text}"
        );
        assert_eq!(lint_prometheus(&text), Vec::<String>::new());
        let json = reg.render_json();
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            (1_018, 0x5c18_4b5b_75aa_4ee2),
            "{json}"
        );
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let reg = MetricsRegistry::new(1);
        reg.latency(LatencyPath::AssessE2e).record_ns(100);
        reg.latency(LatencyPath::AssessE2e).record_ns(100_000);
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

    /// Prometheus `le` is inclusive: a sample of exactly the bound counts
    /// under the bucket that names it, one nanosecond more in the next.
    #[test]
    fn a_sample_on_a_bucket_edge_counts_under_its_own_le() {
        let reg = MetricsRegistry::new(1);
        reg.latency(LatencyPath::AssessE2e).record_ns(1_024);
        reg.latency(LatencyPath::AssessE2e).record_ns(1_025);
        let text = reg.render_prometheus();
        for line in [
            "hp_assess_e2e_latency_seconds_bucket{le=\"0.000000512\"} 0",
            "hp_assess_e2e_latency_seconds_bucket{le=\"0.000001024\"} 1",
            "hp_assess_e2e_latency_seconds_bucket{le=\"0.000002048\"} 2",
        ] {
            assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
        }
    }

    #[test]
    fn json_snapshot_has_per_path_quantiles_and_totals() {
        let reg = MetricsRegistry::new(1);
        reg.shard(0).add(ShardMetric::Ingested, 42);
        reg.latency(LatencyPath::IngestApply).record_n(3_000, 42);
        let json = reg.render_json();
        assert!(json.contains("\"ingest_apply\""), "{json}");
        assert!(json.contains("\"p99_ns\""), "{json}");
        assert!(json.contains("\"ingested\":42"), "{json}");
        assert!(json.contains("\"shards\": 1"), "{json}");
    }

    #[test]
    fn queue_wait_utilization_and_build_info_are_exposed() {
        let reg = MetricsRegistry::new(2);
        reg.shard(1).queue_wait.record_ns(50_000);
        reg.shard(1).busy_ns.fetch_add(1_000_000, Ordering::Relaxed);
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
        let reg = MetricsRegistry::new(2);
        reg.latency(LatencyPath::AssessE2e)
            .record_ns_traced(100_000, 0xab);
        reg.shard(0).queue_wait.record_ns(10_000);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# {trace_id=\"00000000000000ab\"} 0.0001"),
            "{text}"
        );
        let errors = lint_prometheus(&text);
        assert!(errors.is_empty(), "{errors:?}");
    }
}
