//! Structured tracing: bounded per-shard event rings.
//!
//! Each shard owns a ring — a fixed-capacity buffer of [`TraceEvent`]s
//! stamped with a *global* monotonic sequence number, so
//! draining the rings after a run reconstructs the causal order of
//! operations across the whole service (chaos tests use this to prove
//! journal-before-apply without println debugging). When a ring is full
//! the oldest event is evicted and a drop counter incremented; tracing
//! never blocks or allocates unboundedly on the hot path.
//!
//! Tracing is **off by default**. Every emission first checks one relaxed
//! atomic load, so the disabled cost is a branch, not an event
//! construction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened, with the path-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A feedback batch was appended to the shard's journal (before any
    /// state mutation — this event preceding [`TraceKind::BatchApplied`]
    /// for the same batch is the write-ahead invariant).
    JournalAppend {
        /// Records appended.
        records: u64,
    },
    /// A journaled feedback batch was folded into shard state.
    BatchApplied {
        /// Feedbacks applied.
        feedbacks: u64,
    },
    /// An assessment was served from the shard worker.
    AssessServed {
        /// Whether the versioned cache answered without recomputing.
        cache_hit: bool,
    },
    /// A degraded (stale published) answer was served by the front end
    /// after an assessment deadline expired.
    DegradedServed,
    /// The supervisor respawned a crashed shard worker.
    WorkerRestart {
        /// Restart count for this shard so far, including this one.
        restart: u64,
    },
    /// State recovery began after a worker crash or at a durable boot: a
    /// journal replay, or an ephemeral shard's in-place refold.
    ReplayStart,
    /// Recovery finished; the state is whole again.
    ReplayComplete {
        /// Records folded (back) into state: the journal tail replayed,
        /// or what the in-flight batch still owed (0 when the crash had
        /// no record in flight).
        records: u64,
    },
    /// A poison record was quarantined after repeatedly crashing the fold.
    RecordQuarantined {
        /// Ordinal of the offending record among those the shard
        /// accepted (its journal index on a durable shard).
        index: u64,
    },
    /// A durable state snapshot was written (checkpoint).
    SnapshotWritten {
        /// Absolute journal record count the snapshot covers.
        records: u64,
    },
    /// A recovery candidate snapshot was rejected (corrupt, torn or
    /// model-mismatched) and recovery fell down the chain.
    SnapshotFallback,
}

impl TraceKind {
    /// Short stable label (used by `Display` and log grepping).
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::JournalAppend { .. } => "journal_append",
            TraceKind::BatchApplied { .. } => "batch_applied",
            TraceKind::AssessServed { .. } => "assess_served",
            TraceKind::DegradedServed => "degraded_served",
            TraceKind::WorkerRestart { .. } => "worker_restart",
            TraceKind::ReplayStart => "replay_start",
            TraceKind::ReplayComplete { .. } => "replay_complete",
            TraceKind::RecordQuarantined { .. } => "record_quarantined",
            TraceKind::SnapshotWritten { .. } => "snapshot_written",
            TraceKind::SnapshotFallback => "snapshot_fallback",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global monotonic sequence number: `a.seq < b.seq` means `a` was
    /// recorded before `b`, across shards.
    pub seq: u64,
    /// Shard that emitted the event.
    pub shard: usize,
    /// Duration of the spanned operation in nanoseconds (`0` for
    /// instantaneous events).
    pub duration_ns: u64,
    /// Trace ID of the request this event belongs to (`0` = not
    /// request-scoped). Events stamped with a request's ID let crash
    /// forensics — journal append, worker restart, replay — be
    /// reconstructed from the one ID the client saw.
    pub trace: u64,
    /// What happened.
    pub kind: TraceKind,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{:06} shard={} {:<18} {:?} ({} ns)",
            self.seq,
            self.shard,
            self.kind.label(),
            self.kind,
            self.duration_ns
        )?;
        if self.trace != 0 {
            write!(f, " trace={:016x}", self.trace)?;
        }
        Ok(())
    }
}

/// A bounded event buffer for one shard.
#[derive(Debug)]
struct TraceRing {
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        TraceRing {
            events: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace ring poisoned");
        if events.len() >= self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Removes and returns all buffered events, oldest first.
    fn drain(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("trace ring poisoned")
            .drain(..)
            .collect()
    }

    /// Events evicted because the ring was full.
    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The tracing facade: one ring per shard behind a single enable switch.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    seq: AtomicU64,
    rings: Vec<TraceRing>,
}

impl Tracer {
    /// A tracer for `shards` rings of `capacity` events each, initially
    /// enabled or not per `enabled`.
    pub fn new(shards: usize, capacity: usize, enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            seq: AtomicU64::new(0),
            rings: (0..shards).map(|_| TraceRing::new(capacity)).collect(),
        }
    }

    /// Whether events are currently being recorded. One relaxed load —
    /// call this before doing *any* per-event work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records an event for `shard`. No-op when disabled or the shard
    /// index is out of range.
    #[inline]
    pub fn emit(&self, shard: usize, duration_ns: u64, kind: TraceKind) {
        self.emit_traced(shard, duration_ns, kind, 0);
    }

    /// Records an event stamped with the request trace ID it belongs to
    /// (`0` behaves exactly like [`Tracer::emit`]). No-op when disabled
    /// or the shard index is out of range.
    #[inline]
    pub fn emit_traced(&self, shard: usize, duration_ns: u64, kind: TraceKind, trace: u64) {
        if !self.enabled() {
            return;
        }
        let Some(ring) = self.rings.get(shard) else {
            return;
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        ring.push(TraceEvent {
            seq,
            shard,
            duration_ns,
            trace,
            kind,
        });
    }

    /// Draws the next value of the global sequence without recording an
    /// event. Span trees stamp themselves with this so request trees and
    /// shard events interleave on one monotone clock (always live, even
    /// with event recording disabled — a sequence gap is cheaper than a
    /// second clock).
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Drains every ring and interleaves the events in global sequence
    /// order.
    pub fn drain_all(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.rings.iter().flat_map(TraceRing::drain).collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Total events evicted across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(TraceRing::dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(2, 8, false);
        tracer.emit(0, 10, TraceKind::ReplayStart);
        assert!(tracer.drain_all().is_empty());
        assert!(!tracer.enabled());
    }

    #[test]
    fn events_carry_global_order() {
        let tracer = Tracer::new(2, 8, true);
        tracer.emit(1, 0, TraceKind::JournalAppend { records: 5 });
        tracer.emit(0, 0, TraceKind::ReplayStart);
        tracer.emit(1, 0, TraceKind::BatchApplied { feedbacks: 5 });
        let all = tracer.drain_all();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(all[0].shard, 1);
        assert_eq!(all[1].shard, 0);
        // Journal append sequenced before the matching apply.
        assert_eq!(all[0].kind, TraceKind::JournalAppend { records: 5 });
        assert_eq!(all[2].kind, TraceKind::BatchApplied { feedbacks: 5 });
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts_drops() {
        let tracer = Tracer::new(1, 3, true);
        for i in 0..5 {
            tracer.emit(0, 0, TraceKind::JournalAppend { records: i });
        }
        assert_eq!(tracer.dropped(), 2);
        let events = tracer.drain_all();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::JournalAppend { records: 2 });
    }

    #[test]
    fn out_of_range_shard_is_ignored() {
        let tracer = Tracer::new(1, 4, true);
        tracer.emit(9, 0, TraceKind::ReplayStart);
        assert!(tracer.drain_all().is_empty());
    }

    #[test]
    fn toggle_at_runtime() {
        let tracer = Tracer::new(1, 4, false);
        tracer.set_enabled(true);
        tracer.emit(0, 0, TraceKind::DegradedServed);
        tracer.set_enabled(false);
        tracer.emit(0, 0, TraceKind::DegradedServed);
        assert_eq!(tracer.drain_all().len(), 1);
    }

    #[test]
    fn display_is_greppable() {
        let event = TraceEvent {
            seq: 12,
            shard: 3,
            duration_ns: 1500,
            trace: 0,
            kind: TraceKind::AssessServed { cache_hit: true },
        };
        let line = event.to_string();
        assert!(line.contains("assess_served"), "{line}");
        assert!(line.contains("shard=3"), "{line}");
        assert!(!line.contains("trace="), "untraced events omit the ID");
        let traced = TraceEvent {
            trace: 0xab,
            ..event
        };
        assert!(traced.to_string().contains("trace=00000000000000ab"));
    }

    #[test]
    fn traced_emission_stamps_the_request_id() {
        let tracer = Tracer::new(1, 8, true);
        tracer.emit_traced(0, 5, TraceKind::JournalAppend { records: 2 }, 0xbeef);
        tracer.emit(0, 0, TraceKind::ReplayStart);
        let events = tracer.drain_all();
        assert_eq!(events[0].trace, 0xbeef);
        assert_eq!(events[1].trace, 0, "emit delegates with the untraced sentinel");
    }

    #[test]
    fn stamp_shares_the_event_sequence() {
        let tracer = Tracer::new(1, 8, true);
        tracer.emit(0, 0, TraceKind::ReplayStart);
        let stamped = tracer.stamp();
        tracer.emit(0, 0, TraceKind::DegradedServed);
        let events = tracer.drain_all();
        assert!(events[0].seq < stamped && stamped < events[1].seq);
        // The stamp is live even when event recording is off.
        let off = Tracer::new(1, 8, false);
        assert!(off.stamp() < off.stamp());
    }
}
