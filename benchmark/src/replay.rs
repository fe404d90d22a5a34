//! The traced replay (source `r` in README.md).
//!
//! The program has no spans of its own yet, so the benchmark records them
//! from outside: a deterministic sample of the workload's requests is
//! replayed against an in-process [`ReputationService`] configured like
//! the child, and a span — name, start, end, parent, request id — is
//! recorded around each public call the request crosses:
//!
//! ```text
//! /ingest  hp-edge.parse → hp-service.ingest_batch → hp-edge.render_ingest   (before the ack)
//!          hp-service.apply                                                 (after the ack)
//!            ├ hp-service.journal_append   (durable only)
//!            ├ hp-core.push
//!            └ hp-core.compact             (tiered only)
//! /assess  hp-service.assess → hp-edge.render_batch
//!            └ hp-core.two_phase_assess
//!                ├ hp-core.window_counts
//!                └ hp-stats.threshold_lookups
//! ```
//!
//! A top-level span times the real call. `ingest_batch` returns once the
//! batch is on the shard queues — that is when the edge acks — so the
//! shards' work gets its own top-level span, `hp-service.apply`, from the
//! dispatch until a barrier read shows the batch applied; it is what
//! bounds throughput, while the three spans before it bound the ack
//! latency. A child span cannot be taken inside
//! that call without editing the program, so it is a **re-execution**: the
//! same layer function run by the benchmark on the same input, on mirror
//! state it keeps per server, directly after the parent. Children are
//! therefore adjacent to their parent in time, not nested in it, and
//! `self time = parent − Σ children` (floored at 0) is an estimate that a
//! later in-program tracing change replaces.

use crate::child::configs_from_flags;
use crate::gen::{self, ConnStream, Op, Tally};
use crate::report::Metric;
use crate::spec::{Load, Shape, CONNECTIONS};
use crate::verify::Reference;
use hp_core::trust::incremental::{IncrementalTrust, WeightedTrustState};
use hp_core::{Feedback, HistoryView, ServerId, TieredHistory};
use hp_edge::wire;
use hp_service::journal::FileJournal;
use hp_service::{FsyncPolicy, ReputationService};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Requests of each kind the replay samples (half traced, half not).
const SAMPLE: usize = 48;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// The request the span belongs to (shared by its whole tree).
    pub request: u32,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the replay began.
    pub start_ns: u64,
    /// Nanoseconds since the replay began.
    pub end_ns: u64,
}

/// Spans kept in memory until the replay ends.
pub struct Recorder {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, request: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }
}

/// Self time of every span: its duration minus its children's, floored
/// at zero. Returned in span order.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, covered)| (span.end_ns - span.start_ns).saturating_sub(covered))
        .collect()
}

/// Renders the spans as a JSON array for `--out`.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}",
            span.name,
            span.request,
            span.start_ns,
            span.end_ns,
            if id + 1 == spans.len() { "" } else { "," },
        );
    }
    out.push(']');
    out
}

/// The benchmark's own copy of one server: what the shard keeps.
struct Mirror {
    history: TieredHistory,
    trust: WeightedTrustState,
}

/// What the replay measured.
pub struct ReplayOutcome {
    /// `bench.replay_*_self_us` and `bench.tracing_overhead_pct`.
    pub metrics: Vec<Metric>,
    /// Every span, for `--out`.
    pub spans: Vec<Span>,
}

struct Replay<'a> {
    service: ReputationService,
    reference: &'a Reference,
    journal: Option<FileJournal>,
    horizon: Option<usize>,
    mirrors: HashMap<u64, Mirror>,
    /// One never-written server per shard: assessing them round-trips
    /// every shard queue, so the ingest before it has been applied.
    barrier: Vec<ServerId>,
    recorder: Recorder,
    next_request: u32,
}

impl Replay<'_> {
    fn mirror_push(&mut self, feedbacks: &[Feedback]) {
        for feedback in feedbacks {
            let mirror = self
                .mirrors
                .entry(feedback.server.value())
                .or_insert_with(|| Mirror {
                    history: TieredHistory::new(),
                    trust: WeightedTrustState::new(0.5).expect("0.5 is a valid lambda"),
                });
            mirror.trust.update(feedback.is_good());
            mirror.history.push(*feedback);
        }
    }

    fn mirror_compact(&mut self, feedbacks: &[Feedback]) {
        if let Some(horizon) = self.horizon {
            for feedback in feedbacks {
                if let Some(mirror) = self.mirrors.get_mut(&feedback.server.value()) {
                    mirror.history.compact(horizon);
                }
            }
        }
    }

    /// Applies an ingest body to the service and the mirrors, untraced;
    /// returns the wall time of parse + dispatch + render + apply.
    fn ingest_plain(&mut self, body: &str) -> Result<f64, String> {
        let start = Instant::now();
        let feedbacks =
            wire::parse_feedback_body(body.as_bytes()).map_err(|e| e.reason.to_string())?;
        let outcome = self
            .service
            .ingest_batch(feedbacks.iter().copied())
            .map_err(|e| e.to_string())?;
        std::hint::black_box(wire::render_ingest(&outcome));
        let _ = self.service.assess_many(&self.barrier);
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(journal) = self.journal.as_mut() {
            journal
                .append_batch(&feedbacks)
                .map_err(|e| e.to_string())?;
        }
        self.mirror_push(&feedbacks);
        self.mirror_compact(&feedbacks);
        Ok(elapsed)
    }

    /// The same request with a span around every layer call.
    fn ingest_traced(&mut self, body: &str) -> Result<(), String> {
        let request = self.next_request;
        self.next_request += 1;
        let span = self.recorder.open("hp-edge.parse", request, None);
        let feedbacks =
            wire::parse_feedback_body(body.as_bytes()).map_err(|e| e.reason.to_string())?;
        self.recorder.close(span);
        let span = self.recorder.open("hp-service.ingest_batch", request, None);
        let outcome = self
            .service
            .ingest_batch(feedbacks.iter().copied())
            .map_err(|e| e.to_string())?;
        self.recorder.close(span);
        let span = self.recorder.open("hp-edge.render_ingest", request, None);
        std::hint::black_box(wire::render_ingest(&outcome));
        self.recorder.close(span);

        let apply = self.recorder.open("hp-service.apply", request, None);
        let _ = self.service.assess_many(&self.barrier);
        self.recorder.close(apply);
        if let Some(journal) = self.journal.as_mut() {
            let span = self
                .recorder
                .open("hp-service.journal_append", request, Some(apply));
            journal
                .append_batch(&feedbacks)
                .map_err(|e| e.to_string())?;
            self.recorder.close(span);
        }
        let span = self.recorder.open("hp-core.push", request, Some(apply));
        self.mirror_push(&feedbacks);
        self.recorder.close(span);
        if self.horizon.is_some() {
            let span = self.recorder.open("hp-core.compact", request, Some(apply));
            self.mirror_compact(&feedbacks);
            self.recorder.close(span);
        }
        Ok(())
    }

    fn servers_of(body: &str) -> Vec<ServerId> {
        body.lines()
            .filter_map(|l| l.parse().ok())
            .map(ServerId::new)
            .collect()
    }

    fn assess_plain(&mut self, body: &str) -> Result<f64, String> {
        let start = Instant::now();
        let servers = Replay::servers_of(body);
        let answers = self
            .service
            .assess_many(&servers)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(wire::render_batch(&answers));
        Ok(start.elapsed().as_secs_f64())
    }

    fn assess_traced(&mut self, body: &str) -> Result<(), String> {
        let request = self.next_request;
        self.next_request += 1;
        let servers = Replay::servers_of(body);
        let parent = self.recorder.open("hp-service.assess", request, None);
        let answers = self
            .service
            .assess_many(&servers)
            .map_err(|e| e.to_string())?;
        self.recorder.close(parent);

        // Phase 1 + the phase-2 read, re-executed on the mirrors.
        let multi = self.reference.assessor().behavior_test();
        let two_phase = self
            .recorder
            .open("hp-core.two_phase_assess", request, Some(parent));
        let mut reports = Vec::with_capacity(servers.len());
        for server in &servers {
            if let Some(mirror) = self.mirrors.get(&server.value()) {
                reports.push(
                    multi
                        .evaluate_detailed(&mirror.history)
                        .map_err(|e| e.to_string())?,
                );
                std::hint::black_box(mirror.trust.current());
            }
        }
        self.recorder.close(two_phase);

        let m = multi.config().window_size() as usize;
        let span = self
            .recorder
            .open("hp-core.window_counts", request, Some(two_phase));
        for server in &servers {
            if let Some(mirror) = self.mirrors.get(&server.value()) {
                let history = &mirror.history;
                let start = HistoryView::retained_start(history);
                std::hint::black_box(
                    history
                        .window_counts(start, history.len(), m)
                        .map_or(0, |c| c.len()),
                );
            }
        }
        self.recorder.close(span);

        let span = self
            .recorder
            .open("hp-stats.threshold_lookups", request, Some(two_phase));
        for report in &reports {
            for suffix in &report.suffixes {
                if let Some(p_hat) = suffix.report.p_hat {
                    std::hint::black_box(self.reference.calibrator.threshold_at(
                        m as u32,
                        suffix.report.windows,
                        p_hat,
                        suffix.report.confidence,
                    ))
                    .map_err(|e| e.to_string())?;
                }
            }
        }
        self.recorder.close(span);

        let span = self.recorder.open("hp-edge.render_batch", request, None);
        std::hint::black_box(wire::render_batch(&answers));
        self.recorder.close(span);
        Ok(())
    }
}

/// Σ self time, per request, of the spans whose top-level ancestor is one
/// of `roots`; µs, ascending.
fn request_self_us(spans: &[Span], roots: &[&str]) -> Vec<f64> {
    let selfs = self_times_ns(spans);
    let mut per_request: HashMap<u32, f64> = HashMap::new();
    for (index, self_ns) in selfs.into_iter().enumerate() {
        let mut top = index;
        while let Some(parent) = spans[top].parent {
            top = parent;
        }
        if roots.contains(&spans[top].name) {
            *per_request.entry(spans[index].request).or_default() += self_ns as f64 / 1e3;
        }
    }
    let mut values: Vec<f64> = per_request.into_values().collect();
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// Σ duration, per request, of the top-level spans named in `roots`; µs.
fn request_wall_us(spans: &[Span], roots: &[&str]) -> Vec<f64> {
    let mut per_request: HashMap<u32, f64> = HashMap::new();
    for span in spans
        .iter()
        .filter(|s| s.parent.is_none() && roots.contains(&s.name))
    {
        *per_request.entry(span.request).or_default() += (span.end_ns - span.start_ns) as f64 / 1e3;
    }
    per_request.into_values().collect()
}

/// Replays a sample of `shape`'s requests in-process. `scratch` is an
/// empty directory for the durable workload's files; `cache` the
/// reference's calibration file (so the service boots without a
/// Monte-Carlo build).
pub fn run(
    shape: &Shape,
    seed: u64,
    reference: &Reference,
    scratch: &Path,
    cache: &Path,
) -> Result<ReplayOutcome, String> {
    let (config, _) = configs_from_flags(&shape.child_flags(scratch))?;
    let config = config.with_calibration_cache(cache);
    let horizon = config.tiering().map(|t| t.horizon);
    let service = ReputationService::new(config).map_err(|e| e.to_string())?;
    let shards = service.config().shards();
    let barrier: Vec<ServerId> = (0..shards)
        .map(|shard| {
            (shape.servers..)
                .map(ServerId::new)
                .find(|&s| service.shard_of(s) == shard)
                .expect("some id hashes to every shard")
        })
        .collect();
    let journal = if shape.durable {
        let path = scratch.join("replay-mirror.hpj");
        Some(
            FileJournal::open(&path, 0, 1, FsyncPolicy::Never)
                .map_err(|e| e.to_string())?
                .0,
        )
    } else {
        None
    };
    let mut replay = Replay {
        service,
        reference,
        journal,
        horizon,
        mirrors: HashMap::new(),
        barrier,
        recorder: Recorder::new(),
        next_request: 0,
    };
    // The barrier servers need a history to be assessable.
    let seeds: Vec<Feedback> = replay
        .barrier
        .iter()
        .map(|&s| gen::population(shape, seed).feedback(s, 0))
        .collect();
    replay
        .service
        .ingest_batch(seeds)
        .map_err(|e| e.to_string())?;

    // The same preload the child received.
    let mix = gen::population(shape, seed);
    let mut tally = Tally::new(shape.servers);
    for conn in 0..CONNECTIONS {
        let mut conn_tally = Tally::new(shape.servers);
        for request in gen::preload_bodies(shape, &mix, conn, CONNECTIONS, &mut conn_tally) {
            replay.ingest_plain(&request.body)?;
        }
        tally.merge(&conn_tally);
    }

    // Connection 0's stream (the open loop has one writer and one reader).
    let closed = matches!(shape.load, Load::Closed { .. });
    let connections = if closed { CONNECTIONS } else { 1 };
    let mut writer = ConnStream::new(shape, seed, 0, connections, &tally);
    let mut reader = ConnStream::new(shape, seed, 0, connections, &tally);
    let mut plain_ingest = Vec::new();
    let mut plain_assess = Vec::new();
    let (mut ingests, mut assesses) = (0, 0);
    let mut requests = 0;
    while (ingests < SAMPLE || assesses < SAMPLE) && requests < 4096 {
        requests += 1;
        let request = if closed {
            writer.next_request()
        } else if requests % 3 == 0 {
            reader.assess_request()
        } else {
            writer.ingest_request(false)
        };
        match request.op {
            // Alternate traced and untraced samples of each kind; past
            // the quota keep applying writes so state stays consistent.
            Op::Ingest if ingests < SAMPLE && ingests % 2 == 0 => {
                replay.ingest_traced(&request.body)?;
                ingests += 1;
            }
            Op::Ingest => {
                let elapsed = replay.ingest_plain(&request.body)?;
                if ingests < SAMPLE {
                    plain_ingest.push(elapsed * 1e6);
                    ingests += 1;
                }
            }
            Op::Assess if assesses < SAMPLE && assesses % 2 == 0 => {
                replay.assess_traced(&request.body)?;
                assesses += 1;
            }
            Op::Assess if assesses < SAMPLE => {
                plain_assess.push(replay.assess_plain(&request.body)? * 1e6);
                assesses += 1;
            }
            Op::Assess => {}
        }
    }

    let spans = std::mem::take(&mut replay.recorder.spans);
    replay.service.shutdown();
    const ACK: [&str; 3] = [
        "hp-edge.parse",
        "hp-service.ingest_batch",
        "hp-edge.render_ingest",
    ];
    const APPLY: [&str; 1] = ["hp-service.apply"];
    const ASSESS: [&str; 2] = ["hp-service.assess", "hp-edge.render_batch"];
    let ingest_self = request_self_us(&spans, &ACK);
    let assess_self = request_self_us(&spans, &ASSESS);
    // Traced request time = its top-level spans; untraced = one block.
    let overhead = |traced: Vec<f64>, plain: &[f64]| {
        let (t, p) = (crate::est::median(&traced), crate::est::median(plain));
        if p > 0.0 {
            (t - p) / p * 100.0
        } else {
            0.0
        }
    };
    let all_ingest: Vec<&str> = ACK.iter().chain(&APPLY).copied().collect();
    // One figure for the run: the mean of the two routes' overheads.
    let overhead_pct = (overhead(request_wall_us(&spans, &all_ingest), &plain_ingest)
        + overhead(request_wall_us(&spans, &ASSESS), &plain_assess))
        / 2.0;
    let metric = |name, values: &[f64]| Metric {
        name,
        value: crate::est::median(values),
        n: values.len() as u64,
    };
    let metrics = vec![
        metric("bench.replay_ingest_self_us", &ingest_self),
        metric("bench.replay_assess_self_us", &assess_self),
        Metric {
            name: "bench.tracing_overhead_pct",
            value: overhead_pct,
            n: (ingests + assesses) as u64,
        },
    ];
    Ok(ReplayOutcome { metrics, spans })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_floored_at_zero() {
        let spans = vec![
            span("a", None, 0, 100_000),
            span("b", Some(0), 100_000, 130_000),
            span("c", Some(0), 130_000, 150_000),
            span("d", Some(1), 150_000, 190_000),
        ];
        // a: 100 − (30 + 20); b: 30 − 40 floors at 0; c, d have no children.
        assert_eq!(self_times_ns(&spans), vec![50_000, 0, 20_000, 40_000]);
        // Whole tree under `a`, in µs: 50 + 0 + 20 + 40.
        assert_eq!(request_self_us(&spans, &["a"]), vec![110.0]);
        assert_eq!(request_self_us(&spans, &["b"]), Vec::<f64>::new());
        assert_eq!(request_wall_us(&spans, &["a"]), vec![100.0]);
    }

    #[test]
    fn spans_render_as_a_json_array() {
        let text = spans_json(&[span("x", None, 1, 2), span("y", Some(0), 2, 3)]);
        assert!(text.starts_with("[\n") && text.ends_with(']'), "{text}");
        assert!(text.contains(
            "\"id\":1,\"name\":\"y\",\"request\":0,\"parent\":0,\"start_ns\":2,\"end_ns\":3"
        ));
        assert!(text.contains("\"parent\":null"));
    }
}
