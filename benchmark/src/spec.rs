//! What is measured: the workloads and the metric tables.
//!
//! `BENCHMARK.json` at the repo root repeats the names, units, directions
//! and bounds below; `tests/contract.rs` checks that the two agree.

/// Connections (= generator threads) of a closed loop. Never above `nproc`
/// (checked at start): more generators than cores measures the scheduler.
pub const CONNECTIONS: usize = 2;
/// Edge workers in the child: the load connections plus one control
/// connection, with one to spare.
pub const EDGE_WORKERS: usize = 4;
/// Shards in the child.
pub const SHARDS: usize = 2;
/// Equal-work slices per connection in a closed loop.
pub const SLICES: usize = 20;
/// Lines per `POST /ingest` body during preload.
pub const PRELOAD_LINES: usize = 4096;
/// Set-ups and restarts per run; five times as many restarts on the
/// durable workload, where one takes a tenth of the time.
pub const REPS: usize = 3;
/// Verdicts compared with the offline assessor per run.
pub const VERIFY_SAMPLE: usize = 64;
/// Verdicts compared across each SIGKILL on durable workloads.
pub const RESTART_SAMPLE: usize = 32;
/// `--seconds` used when the flag is absent (matches `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 8.0;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop over [`CONNECTIONS`] connections, fixed work: each
    /// connection runs `cycles_per_second × seconds` cycles (rounded to a
    /// multiple of [`SLICES`]), so parent and change end in the same
    /// state. The constant is this machine's rate when the benchmark was
    /// defined; it sizes the work and is not a target.
    Closed {
        /// Cycles per connection per nominal second.
        cycles_per_second: f64,
    },
    /// Open loop: one paced writer and one paced reader, `seconds` long,
    /// latency timed from the scheduled send.
    Open {
        /// `POST /ingest` requests per second.
        write_rps: f64,
        /// `POST /assess` requests per second, each due half a write
        /// interval after a write.
        read_rps: f64,
    },
}

/// Which of the four request streams `gen.rs` generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The production generator round-robin over every server; reads
    /// target the servers written last.
    IngestFlood,
    /// A cycle writes one feedback to each of 32 deep servers, then
    /// assesses those 32.
    DeepAssess,
    /// A body writes every server once; a read takes one deep server and
    /// seven short ones, both rotating.
    SteadyMix,
    /// Seeded Zipf(θ = 1) writes over the hot head; a read cycle also
    /// writes one feedback to each of the 8 coldest tail servers and then
    /// assesses them.
    DurableTiered,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json` carries it).
    pub why: &'static str,
    /// The request stream.
    pub kind: Kind,
    /// Servers in the population.
    pub servers: u64,
    /// Distinct rating clients.
    pub clients: u64,
    /// Share of honest servers; the rest split evenly between hibernating
    /// and periodic attackers (the paper's §5 mix is 0.8). The two
    /// workloads whose cost is a handful of deep servers use 1.0: a
    /// hibernating attacker's verdict costs half an honest one's, and the
    /// seed decides how many of 128 servers are attackers (6–20 seen), which
    /// moved `deep_assess` by ±3 % between seeds.
    pub honest_fraction: f64,
    /// Servers `0..deep_servers` are preloaded to `deep_len` feedbacks.
    pub deep_servers: u64,
    /// Preloaded history length of a deep server.
    pub deep_len: u64,
    /// Preloaded history length of the other servers.
    pub short_len: u64,
    /// Feedback lines per `POST /ingest` in the window.
    pub body_lines: usize,
    /// One `POST /assess` after every this many ingest cycles.
    pub assess_every: u64,
    /// Servers per `POST /assess`.
    pub assess_batch: usize,
    /// Load shape.
    pub load: Load,
    /// Journal + snapshots + tiering + spill + calibration cache.
    pub durable: bool,
    /// Band the mean `hp_shard_utilization` over the window must fall in.
    pub utilization_band: (f64, f64),
}

/// The four workloads. Sizes are the issue's, scaled by one common factor
/// (≈ 1/8 of the work, preloads cut to fit three set-ups per run) so that
/// the driver's 92 runs fit its wall-time cap; see README.md.
pub const WORKLOADS: [Shape; 4] = [
    Shape {
        name: "ingest_flood",
        why: "closed-loop 512-line ingest bodies over 4096 short histories: edge parse, shard queue/apply and hp-core push do the work; phase 1, hp-stats and hp-store are idle",
        kind: Kind::IngestFlood,
        servers: 4096,
        clients: 1_000_000,
        honest_fraction: 0.8,
        deep_servers: 0,
        deep_len: 0,
        short_len: 256,
        body_lines: 512,
        assess_every: 32,
        assess_batch: 8,
        load: Load::Closed { cycles_per_second: 1100.0 },
        durable: false,
        utilization_band: (0.85, 1.0),
    },
    Shape {
        name: "deep_assess",
        why: "closed-loop write-then-assess of 32 servers holding 20000 feedbacks: the fused multi-test, ~2000 threshold lookups per verdict and report rendering dominate; bodies tiny, journal idle",
        kind: Kind::DeepAssess,
        servers: 128,
        clients: 1_000_000,
        honest_fraction: 1.0,
        deep_servers: 128,
        deep_len: 20_000,
        short_len: 0,
        body_lines: 32,
        assess_every: 1,
        assess_batch: 32,
        load: Load::Closed { cycles_per_second: 15.0 },
        durable: false,
        utilization_band: (0.85, 1.0),
    },
    Shape {
        name: "steady_mix",
        why: "open loop at under 30 % of two cores, paced 512-line writes beside paced 8-server reads: the unloaded service time of the mixed path and the untiered resident cost of a mixed population",
        kind: Kind::SteadyMix,
        servers: 512,
        clients: 1_000_000,
        honest_fraction: 1.0,
        deep_servers: 64,
        deep_len: 8192,
        short_len: 256,
        body_lines: 512,
        assess_every: 0,
        assess_batch: 8,
        load: Load::Open { write_rps: 100.0, read_rps: 50.0 },
        durable: false,
        utilization_band: (0.0, 0.30),
    },
    Shape {
        name: "durable_tiered",
        why: "closed loop with journal, snapshots, horizon compaction, spill budget and calibration cache: Zipf writes to a hot head, every read faults 8 spilled 1024-feedback histories; restart_s is true recovery",
        kind: Kind::DurableTiered,
        servers: 1152,
        clients: 256,
        honest_fraction: 0.8,
        deep_servers: 128,
        deep_len: 4096,
        short_len: 1024,
        body_lines: 256,
        assess_every: 4,
        assess_batch: 8,
        load: Load::Closed { cycles_per_second: 400.0 },
        durable: true,
        utilization_band: (0.85, 1.0),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Shape> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Shape {
    /// Preloaded history length of `server`.
    pub fn preload_len(&self, server: u64) -> u64 {
        if server < self.deep_servers {
            self.deep_len
        } else {
            self.short_len
        }
    }

    /// Cycles each connection runs in a closed-loop window of `seconds`,
    /// a multiple of [`SLICES`] and of `assess_every`.
    pub fn cycles(&self, seconds: f64) -> u64 {
        let Load::Closed { cycles_per_second } = self.load else {
            return 0;
        };
        let quantum = SLICES as u64 * self.assess_every.max(1);
        let cycles = (cycles_per_second * seconds) as u64;
        (cycles / quantum).max(1) * quantum
    }

    /// Flags of the `serve` child (everything but the directories).
    pub fn child_flags(&self, dir: &std::path::Path) -> Vec<String> {
        let mut flags: Vec<String> = [
            "--shards",
            &SHARDS.to_string(),
            "--workers",
            &EDGE_WORKERS.to_string(),
            "--calibration-surface",
        ]
        .map(String::from)
        .to_vec();
        if self.durable {
            let journal = dir.join("journal");
            flags.extend(
                [
                    "--journal-dir",
                    &journal.to_string_lossy(),
                    // Stated and the same on both sides: sandbox fsync is
                    // host noise; its cost is `hp-service.journal_fsync_us`.
                    "--fsync",
                    "never",
                    "--snapshot-interval-records",
                    "100000",
                    "--history-horizon",
                    "2048",
                    "--spill-budget-bytes",
                    "4194304",
                    "--calibration-cache",
                    &dir.join("calibration.hpcal").to_string_lossy(),
                ]
                .map(String::from),
            );
        }
        flags
    }
}

/// Unnormalised Zipf(1) weight of the server of rank `server`.
pub fn zipf_weight(server: u64) -> f64 {
    1.0 / (server + 1) as f64
}

/// An end-to-end metric: gated, reported on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics: the two of the issue's six that repeat on this
/// machine. The throughputs, the assess p50 and the restart time are
/// `bench.*` below; README.md records why.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        // The one bound above the issue's cap of 0.10: the contract requires
        // this metric, so it cannot be demoted, and its median moved by up to
        // 0.25 between two ten-run sets of identical code (README.md).
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_after_preload_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.08,
    },
];

/// A per-layer metric: `(name, unit, better)`; ungated.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Every per-layer metric a traced run emits, by layer (= crate on the
/// request path). `k` = timed in-process call into the layer's public
/// functions, `m` = delta of the child's `/metrics`//`/healthz` over the
/// window, `r` = traced replay; README.md lists which is which.
pub const PER_LAYER: [PerLayer; 63] = [
    ("hp-load.gen_ns_per_feedback", "ns", "lower"),
    ("hp-load.late_send_ratio", "ratio", "lower"),
    ("hp-edge.parse_ns_per_feedback", "ns", "lower"),
    ("hp-edge.render_batch_us", "us", "lower"),
    ("hp-edge.http_roundtrip_us", "us", "lower"),
    ("hp-edge.assess_get_p50_us", "us", "lower"),
    ("hp-edge.responses_5xx", "count", "lower"),
    ("hp-edge.admission_503", "count", "lower"),
    ("hp-service.ingest_batch_ns_per_feedback", "ns", "lower"),
    ("hp-service.queue_wait_p50_us", "us", "lower"),
    ("hp-service.queue_wait_p99_us", "us", "lower"),
    ("hp-service.compute_p50_us", "us", "lower"),
    ("hp-service.cache_hit_ratio", "ratio", "higher"),
    ("hp-service.shard_utilization", "ratio", "lower"),
    ("hp-service.journal_append_ns_per_record", "ns", "lower"),
    ("hp-service.journal_fsync_us", "us", "lower"),
    ("hp-service.journal_bytes_per_feedback", "B", "lower"),
    ("hp-service.checkpoint_ms", "ms", "lower"),
    ("hp-service.snapshot_bytes", "B", "lower"),
    ("hp-service.apply_backlog_s", "s", "lower"),
    ("hp-service.shed_feedbacks", "count", "lower"),
    ("hp-service.degraded_answers", "count", "lower"),
    ("hp-core.push_ns_per_feedback", "ns", "lower"),
    ("hp-core.compact_ns_per_feedback", "ns", "lower"),
    ("hp-core.window_counts_ns_per_window_m10", "ns", "lower"),
    ("hp-core.multi_test_us_n20000", "us", "lower"),
    ("hp-core.multi_test_us_n20000_2threads", "us", "lower"),
    ("hp-core.two_phase_assess_us_n20000", "us", "lower"),
    ("hp-core.trust_update_ns", "ns", "lower"),
    ("hp-core.resident_bytes_per_feedback", "B", "lower"),
    ("hp-core.tier_compacted_records", "count", "higher"),
    ("hp-stats.surface_build_ms", "ms", "lower"),
    ("hp-stats.surface_hit_ns", "ns", "lower"),
    ("hp-stats.cache_hit_ns", "ns", "lower"),
    ("hp-stats.l1_distance_ns", "ns", "lower"),
    ("hp-stats.row_fill_ms", "ms", "lower"),
    ("hp-stats.lookups_per_assess", "count", "lower"),
    ("hp-stats.misses_in_window", "count", "lower"),
    ("hp-stats.cache_entries", "count", "lower"),
    ("hp-store.segment_write_us_per_server", "us", "lower"),
    ("hp-store.segment_fault_us", "us", "lower"),
    ("hp-store.evictions", "count", "lower"),
    ("hp-store.faults", "count", "lower"),
    ("hp-store.spilled_bytes", "B", "lower"),
    ("bench.ingest_throughput_fps", "1/s", "higher"),
    ("bench.assess_throughput_rps", "1/s", "higher"),
    ("bench.assess_p50_ms", "ms", "lower"),
    ("bench.restart_s", "s", "lower"),
    ("bench.ingest_p50_ms", "ms", "lower"),
    ("bench.ingest_p99_ms", "ms", "lower"),
    ("bench.assess_p99_ms", "ms", "lower"),
    ("bench.slice_spread", "ratio", "lower"),
    ("bench.child_cpu_s_per_mfeedback", "s", "lower"),
    ("bench.child_cpu_ms_per_assess", "ms", "lower"),
    ("bench.error_ratio", "ratio", "lower"),
    ("bench.disk_bytes_per_feedback", "B", "lower"),
    ("bench.drain_s", "s", "lower"),
    ("bench.reference_build_s", "s", "lower"),
    ("bench.replay_ingest_self_us", "us", "lower"),
    ("bench.replay_assess_self_us", "us", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.tracing_overhead_pct", "%", "lower"),
    ("bench.window_guards_tripped", "count", "lower"),
];
