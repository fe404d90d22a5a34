//! Request-scoped span trees: the per-request counterpart of the
//! per-operation latency histograms, and the service's one trace system.
//!
//! A request is assigned a nonzero 64-bit **trace ID** at the edge (or
//! arrives with one in its `x-hp-trace` header) and accumulates a flat
//! tree of named spans — edge read, admission wait, shard-queue wait,
//! compute, response write — each positioned as an offset from the
//! request's start. Completed trees land in a [`SpanStore`]:
//!
//! * a bounded **recent ring** answering `GET /debug/trace/{id}` for any
//!   trace an operator just pulled out of a histogram exemplar, and
//! * one lock-light **slow ring** per endpoint keeping the N slowest
//!   complete trees for `GET /debug/slow` — the `p99.9 at 3 a.m.`
//!   forensics buffer.
//!
//! When spans are disabled the per-request cost is a single branch on a
//! flag fixed at construction ([`SpanStore::enabled`]); when enabled,
//! recording takes one short mutex on the recent ring and — only for
//! requests slower than the current floor — one on the endpoint's slow
//! ring. The store numbers the trees it records, so `seq` orders them;
//! shard-side stages reach a tree as the timings the shard sends back,
//! and the histograms' exemplars carry the same trace ID.

use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One named stage of a request, positioned relative to the request
/// start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (`edge_read`, `queue_wait`, `compute`, …).
    pub name: &'static str,
    /// Offset of the stage start from the request start, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub duration_ns: u64,
    /// Free-form annotation (cache/threshold provenance, shard index,
    /// degradation reason); empty when there is nothing to say. `Cow` so
    /// the common static annotations cost no allocation on the hot path.
    pub detail: Cow<'static, str>,
}

/// A completed per-request span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// The request's trace ID (nonzero).
    pub trace: u64,
    /// Ordinal of this tree among those its [`SpanStore`] recorded,
    /// stamped by [`SpanStore::record`] (0 until then).
    pub seq: u64,
    /// The endpoint that served the request (`/ingest`, `/assess`, …).
    pub endpoint: &'static str,
    /// Total request duration, first header byte to last response byte.
    pub total_ns: u64,
    /// Verdict provenance (`verdict=accepted cache_hit=true`, …); empty
    /// for endpoints without a verdict.
    pub detail: Cow<'static, str>,
    /// The stages, in the order they were recorded.
    pub spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// Sum of the recorded stage durations. Always ≤ `total_ns` up to
    /// small stitching gaps between stages — the acceptance check that a
    /// tree explains the client-observed latency compares this sum
    /// against the total.
    pub fn stage_sum_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.duration_ns).sum()
    }
}

/// Accumulates one request's spans; created when the first header byte
/// arrives, finished after the response bytes are written.
#[derive(Debug)]
pub struct SpanBuilder {
    trace: u64,
    endpoint: &'static str,
    started: Instant,
    spans: Vec<SpanRecord>,
}

impl SpanBuilder {
    /// Starts a tree for `trace` now.
    pub fn new(trace: u64, endpoint: &'static str) -> SpanBuilder {
        SpanBuilder::new_at(trace, endpoint, Instant::now())
    }

    /// Starts a tree anchored at an earlier instant — the edge anchors at
    /// connection accept (first request) or first header byte, both of
    /// which precede builder construction.
    pub fn new_at(trace: u64, endpoint: &'static str, started: Instant) -> SpanBuilder {
        SpanBuilder {
            trace,
            endpoint,
            started,
            spans: Vec::with_capacity(8),
        }
    }

    /// The request start instant (offsets are measured from here).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// The trace ID this tree is being built for.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Nanoseconds from the request start to `at` (0 if `at` precedes
    /// the start).
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.started).as_nanos() as u64
    }

    /// Records a stage measured by the caller as two instants.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        detail: impl Into<Cow<'static, str>>,
    ) {
        let start_ns = self.offset_ns(start);
        let duration_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.add_ns(name, start_ns, duration_ns, detail);
    }

    /// Records a stage whose position and duration are already known in
    /// nanoseconds — used for shard-reported stages (queue wait, compute)
    /// that happened inside a window the edge only observes end to end.
    pub fn add_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        duration_ns: u64,
        detail: impl Into<Cow<'static, str>>,
    ) {
        self.spans.push(SpanRecord {
            name,
            start_ns,
            duration_ns,
            detail: detail.into(),
        });
    }

    /// Finishes the tree: total = start → now, `detail` the verdict
    /// provenance.
    pub fn finish(self, detail: impl Into<Cow<'static, str>>) -> SpanTree {
        SpanTree {
            trace: self.trace,
            seq: 0,
            endpoint: self.endpoint,
            total_ns: self.started.elapsed().as_nanos() as u64,
            detail: detail.into(),
            spans: self.spans,
        }
    }
}

/// Keeps the N slowest trees seen so far. The fast path for a
/// not-slow-enough request is one relaxed load of the current floor —
/// no lock is taken unless the request would actually enter the ring.
#[derive(Debug)]
struct SlowRing {
    capacity: usize,
    /// Total of the slowest kept tree once the ring is full; 0 until
    /// then, so every early tree enters.
    floor_ns: AtomicU64,
    entries: Mutex<Vec<Arc<SpanTree>>>,
}

impl SlowRing {
    fn new(capacity: usize) -> SlowRing {
        SlowRing {
            capacity: capacity.max(1),
            floor_ns: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    fn offer(&self, tree: &Arc<SpanTree>) {
        if tree.total_ns <= self.floor_ns.load(Ordering::Relaxed) {
            return; // full ring, and this request is faster than all kept
        }
        let mut entries = self.entries.lock();
        let at = entries.partition_point(|kept| kept.total_ns >= tree.total_ns);
        entries.insert(at, Arc::clone(tree));
        entries.truncate(self.capacity);
        if entries.len() == self.capacity {
            self.floor_ns
                .store(entries[self.capacity - 1].total_ns, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<Arc<SpanTree>> {
        self.entries.lock().clone()
    }
}

/// The edge's span sink: a recent ring for by-ID lookup plus one slow
/// ring per endpoint.
#[derive(Debug)]
pub struct SpanStore {
    enabled: bool,
    recent_capacity: usize,
    recent: Mutex<VecDeque<Arc<SpanTree>>>,
    endpoints: Vec<(&'static str, SlowRing)>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl SpanStore {
    /// A store tracking the given endpoints, keeping the `slow_capacity`
    /// slowest trees per endpoint and the `recent_capacity` most recent
    /// trees overall.
    pub fn new(
        endpoints: &[&'static str],
        slow_capacity: usize,
        recent_capacity: usize,
        enabled: bool,
    ) -> SpanStore {
        SpanStore {
            enabled,
            recent_capacity: recent_capacity.max(1),
            recent: Mutex::new(VecDeque::new()),
            endpoints: endpoints
                .iter()
                .map(|&e| (e, SlowRing::new(slow_capacity)))
                .collect(),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Whether spans are being collected (fixed at construction) — the
    /// entire disabled-path cost.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a completed tree, stamping its `seq` (no-op while
    /// disabled).
    pub fn record(&self, mut tree: SpanTree) {
        if !self.enabled() {
            return;
        }
        tree.seq = self.recorded.fetch_add(1, Ordering::Relaxed);
        let tree = Arc::new(tree);
        if let Some((_, ring)) = self.endpoints.iter().find(|(e, _)| *e == tree.endpoint) {
            ring.offer(&tree);
        }
        let mut recent = self.recent.lock();
        if recent.len() == self.recent_capacity {
            recent.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        recent.push_back(tree);
    }

    /// Finds a tree by trace ID: the recent ring first (newest wins for
    /// a reused ID), then the slow rings.
    pub fn find(&self, trace: u64) -> Option<Arc<SpanTree>> {
        if trace == 0 {
            return None;
        }
        if let Some(tree) = self.recent.lock().iter().rev().find(|t| t.trace == trace) {
            return Some(Arc::clone(tree));
        }
        self.endpoints
            .iter()
            .find_map(|(_, ring)| ring.snapshot().into_iter().find(|t| t.trace == trace))
    }

    /// The slowest kept trees per endpoint, slowest first.
    pub fn slowest(&self) -> Vec<(&'static str, Vec<Arc<SpanTree>>)> {
        self.endpoints
            .iter()
            .map(|(endpoint, ring)| (*endpoint, ring.snapshot()))
            .collect()
    }

    /// Trees recorded since start.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Trees evicted from the recent ring (no longer resolvable by ID
    /// unless they also sit in a slow ring).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws a fresh nonzero trace ID: a SplitMix64 stream seeded from the
/// wall clock at first use, so IDs are unique per process and don't
/// collide across restarts in practice.
pub fn next_trace_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x5bd1_e995, |d| d.as_nanos() as u64)
    });
    loop {
        let id = splitmix64(seed.wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed)));
        if id != 0 {
            return id;
        }
    }
}

/// Renders a trace ID the way every header, exemplar, and debug endpoint
/// spells it: 16 lowercase hex digits.
pub fn format_trace_id(trace: u64) -> String {
    format!("{trace:016x}")
}

/// Parses a trace ID as rendered by [`format_trace_id`] (1–16 hex
/// digits, case-insensitive). Zero and malformed values are rejected —
/// zero is the "untraced" sentinel everywhere.
pub fn parse_trace_id(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if raw.is_empty() || raw.len() > 16 {
        return None;
    }
    match u64::from_str_radix(raw, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tree(trace: u64, endpoint: &'static str, total_ns: u64) -> SpanTree {
        SpanTree {
            trace,
            seq: 0,
            endpoint,
            total_ns,
            detail: Cow::Borrowed(""),
            spans: vec![SpanRecord {
                name: "stage",
                start_ns: 0,
                duration_ns: total_ns,
                detail: Cow::Borrowed(""),
            }],
        }
    }

    #[test]
    fn trace_ids_render_parse_and_never_collide_soon() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        let text = format_trace_id(a);
        assert_eq!(text.len(), 16);
        assert_eq!(parse_trace_id(&text), Some(a));
        assert_eq!(parse_trace_id("0"), None, "zero is the untraced sentinel");
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id("00000000000000000ab"), None, "too long");
        assert_eq!(parse_trace_id("AB"), Some(0xab), "case-insensitive");
    }

    #[test]
    fn builder_positions_spans_relative_to_start() {
        let mut b = SpanBuilder::new(7, "/assess");
        let t0 = b.started();
        std::thread::sleep(Duration::from_millis(2));
        let t1 = Instant::now();
        b.add("edge_read", t0, t1, "");
        b.add_ns("queue_wait", b.offset_ns(t1), 1_000, "shard=3");
        let tree = b.finish("verdict=accepted");
        assert_eq!(tree.trace, 7);
        assert_eq!(tree.seq, 0, "stamped when a store records it");
        assert_eq!(tree.spans.len(), 2);
        assert_eq!(tree.spans[0].start_ns, 0);
        assert!(tree.spans[0].duration_ns >= 1_000_000, "slept 2ms");
        assert!(tree.total_ns >= tree.spans[0].duration_ns);
        assert_eq!(tree.spans[1].detail, "shard=3");
        assert!(tree.stage_sum_ns() >= tree.spans[0].duration_ns + 1_000);
    }

    #[test]
    fn slow_ring_keeps_the_n_slowest() {
        let ring = SlowRing::new(3);
        for total in [10, 50, 30, 5, 70, 60] {
            ring.offer(&Arc::new(tree(total, "/x", total)));
        }
        let kept: Vec<u64> = ring.snapshot().iter().map(|t| t.total_ns).collect();
        assert_eq!(kept, vec![70, 60, 50]);
        // A fast request against a full ring takes the lock-free exit.
        assert_eq!(ring.floor_ns.load(Ordering::Relaxed), 50);
        ring.offer(&Arc::new(tree(99, "/x", 7)));
        assert_eq!(ring.snapshot().len(), 3);
    }

    #[test]
    fn store_routes_by_endpoint_and_finds_by_id() {
        let store = SpanStore::new(&["/ingest", "/assess"], 2, 4, true);
        assert!(store.enabled());
        store.record(tree(1, "/ingest", 100));
        store.record(tree(2, "/assess", 300));
        store.record(tree(3, "/assess", 200));
        store.record(tree(4, "/assess", 400));
        assert_eq!(store.recorded(), 4);
        assert_eq!(store.find(2).unwrap().total_ns, 300);
        let seqs: Vec<u64> = (1..=4).map(|id| store.find(id).unwrap().seq).collect();
        assert_eq!(
            seqs,
            [0, 1, 2, 3],
            "the store numbers trees in record order"
        );
        assert_eq!(store.find(0), None);
        assert_eq!(store.find(999), None);
        let slow = store.slowest();
        assert_eq!(slow[0].0, "/ingest");
        assert_eq!(slow[0].1.len(), 1);
        let assess: Vec<u64> = slow[1].1.iter().map(|t| t.total_ns).collect();
        assert_eq!(assess, vec![400, 300], "two slowest of three");
        // Recent-ring eviction is bounded and counted; evicted slow trees
        // remain findable through their slow ring.
        store.record(tree(5, "/ingest", 10));
        assert_eq!(store.evicted(), 1);
        assert!(store.find(2).is_some(), "slow ring still holds it");
    }

    #[test]
    fn disabled_store_records_nothing() {
        let store = SpanStore::new(&["/assess"], 2, 4, false);
        store.record(tree(1, "/assess", 100));
        assert_eq!(store.recorded(), 0);
        assert!(store.find(1).is_none());
    }
}
