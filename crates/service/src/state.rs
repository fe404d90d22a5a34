//! Per-server incremental assessment state.
//!
//! What a shard worker keeps for one server, and what each piece costs:
//!
//! * **the history**, tiered ([`TieredHistory`]): the outcomes alone —
//!   the verdict reads no issuer — those older than the configured
//!   assessment horizon folded into two exact counts, the newest at full
//!   bit resolution: two bits per retained feedback, whoever issued it
//!   (≈ 528 B for a 2 048-feedback horizon), all of it counted by
//!   `resident_bytes()`, the `hp_history_resident_bytes` gauges,
//!   `/healthz` and the spill budget. A whole cold history can be
//!   spilled to an on-disk segment ([`Residency::Spilled`]), leaving a
//!   [`SegmentRef`] and its vital statistics;
//! * **the streaming trust state**, a few words, so phase 2 is O(1) at
//!   ingest and at assess;
//! * **the last verdict**, keyed by the history version it was computed
//!   at: an [`Assessment`] whose report is a [`MultiSummary`] — verdict,
//!   counts and the binding suffix, under 200 B whatever the history
//!   length. Phase 1 runs through the summary sink
//!   ([`MultiBehaviorTest::evaluate_summary`]), so the per-suffix report
//!   (88 B × history / step) is never built on this path. The verdict
//!   stays resident when the history is spilled, so a version-current
//!   assess never faults the segment in — which is only affordable
//!   because it is O(1).
//!
//! Ingest is O(1) amortized (a history push and a trust update); assess
//! recomputes phase 1 only when the version moved, and that recompute is
//! the fused sweep, never a raw rescan.
//!
//! Verdict equivalence with the offline [`TwoPhaseAssessor`] is exact:
//! phase 1 is the same `MultiBehaviorTest` over the same history (the fold
//! equals the summary of the full report, see hp-core's
//! `the_fold_is_the_summary_of_the_full_report`), and both trust models'
//! streaming updates perform bit-identical arithmetic to their batch
//! counterparts (asserted by the property tests in
//! `tests/equivalence.rs`).
//!
//! [`TwoPhaseAssessor`]: hp_core::twophase::TwoPhaseAssessor
//! [`MultiSummary`]: hp_core::testing::MultiSummary

use crate::config::TrustModel;
use crate::faults::ShardFaults;
use hp_core::history::HistoryMark;
use hp_core::testing::{MultiBehaviorTest, TestReport};
use hp_core::trust::incremental::{AverageTrustState, IncrementalTrust, WeightedTrustState};
use hp_core::twophase::{Assessment, ShortHistoryPolicy};
use hp_core::{CoreError, Feedback, TieredHistory, TrustValue};
use hp_store::SegmentRef;
use std::sync::Arc;

/// The streaming phase-2 trust state for one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TrustState {
    Average(AverageTrustState),
    Weighted(WeightedTrustState),
}

impl TrustState {
    pub fn new(model: TrustModel) -> Result<Self, CoreError> {
        Ok(match model {
            TrustModel::Average => TrustState::Average(AverageTrustState::new()),
            TrustModel::Weighted { lambda } => {
                TrustState::Weighted(WeightedTrustState::new(lambda)?)
            }
        })
    }

    pub fn update(&mut self, good: bool) {
        match self {
            TrustState::Average(s) => s.update(good),
            TrustState::Weighted(s) => s.update(good),
        }
    }

    pub fn current(&self) -> TrustValue {
        match self {
            TrustState::Average(s) => s.current(),
            TrustState::Weighted(s) => s.current(),
        }
    }
}

/// Vital statistics of a spilled history, kept resident so bookkeeping
/// queries (snapshot gauges, cache-version checks) never fault the
/// segment back in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpilledMeta {
    /// Transaction count at spill time.
    pub len: u64,
    /// Ingest version at spill time (equals `len` for service histories:
    /// only pushes bump it).
    pub version: u64,
    /// Serialized payload size — what a fault will read back.
    pub bytes: u64,
}

/// Where one server's history currently lives.
///
/// The hot variant is large (the whole [`TieredHistory`] header inline),
/// but boxing it would put a pointer chase on every ingest and assess —
/// the two hottest paths — to shave bytes off spilled entries whose real
/// savings are the evicted heap columns, not the inline struct.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Residency {
    /// Resident: folded counts plus full-resolution suffix in memory.
    Hot(TieredHistory),
    /// Evicted: the serialized tiered history lives in a cold segment;
    /// only the reference and its vital statistics stay resident.
    Spilled {
        meta: SpilledMeta,
        segment: SegmentRef,
    },
}

/// Everything a shard worker holds for one server.
#[derive(Debug, Clone)]
pub(crate) struct ServerState {
    /// The tiered outcome column, or a segment reference when spilled.
    residency: Residency,
    trust: TrustState,
    /// One shared instance per computed verdict: the versioned cache, the
    /// published-verdict map and every reply hold the same allocation —
    /// O(1) bytes (its report is a summary). Survives eviction, so a
    /// version-current assess never faults.
    cached: Option<(u64, Arc<Assessment>)>,
    /// Shard-local logical-clock tick of the last command that touched
    /// this server; the spill policy evicts the smallest ticks first.
    pub last_touch: u64,
}

impl ServerState {
    pub fn new(model: TrustModel) -> Result<Self, CoreError> {
        Ok(ServerState {
            residency: Residency::Hot(TieredHistory::new()),
            trust: TrustState::new(model)?,
            cached: None,
            last_touch: 0,
        })
    }

    /// Absorbs one feedback: O(1) history push + O(1) trust update.
    /// `faults` may tear it part-way (fault-injection builds only).
    ///
    /// # Panics
    ///
    /// The history must be resident — the worker faults spilled states in
    /// ([`Residency`]) before applying feedback.
    pub fn ingest(&mut self, feedback: Feedback, faults: &ShardFaults) {
        match &mut self.residency {
            Residency::Hot(history) => {
                history.push(feedback);
                if faults.mid_apply(&feedback).is_some() {
                    panic!("fault injection: torn after the history push");
                }
                self.trust.update(feedback.is_good());
            }
            Residency::Spilled { .. } => {
                panic!("ingest into a spilled history without fault-in")
            }
        }
    }

    /// What [`ServerState::roll_back`] needs to undo the next ingest:
    /// the history's append mark and the trust state. `None` while
    /// spilled.
    pub fn mark(&self) -> Option<(HistoryMark, TrustState)> {
        self.history().map(|history| (history.mark(), self.trust))
    }

    /// Undoes every ingest since `mark` was taken — a half-finished one
    /// included: the history is cut back to the mark
    /// ([`TieredHistory::truncate_to`], which rebuilds the prefix
    /// popcounts from the outcome words) and the trust state restored.
    /// False when the history cannot honor the mark; the state is then
    /// not to be served from.
    pub fn roll_back(&mut self, (history_mark, trust): (HistoryMark, TrustState)) -> bool {
        let Residency::Hot(history) = &mut self.residency else {
            return false;
        };
        if history.truncate_to(&history_mark).is_err() {
            return false;
        }
        self.trust = trust;
        // A verdict cached for a version the rollback re-opens would be
        // served for whatever is ingested there next.
        let version = history.version();
        self.cached.take_if(|(cached_at, _)| *cached_at > version);
        true
    }

    /// The resident history, or `None` while spilled.
    pub fn history(&self) -> Option<&TieredHistory> {
        match &self.residency {
            Residency::Hot(history) => Some(history),
            Residency::Spilled { .. } => None,
        }
    }

    pub fn residency(&self) -> &Residency {
        &self.residency
    }

    pub fn is_spilled(&self) -> bool {
        matches!(self.residency, Residency::Spilled { .. })
    }

    /// The spill reference and metadata, or `None` while resident.
    pub fn spilled(&self) -> Option<(SpilledMeta, SegmentRef)> {
        match &self.residency {
            Residency::Hot(_) => None,
            Residency::Spilled { meta, segment } => Some((*meta, *segment)),
        }
    }

    /// The streaming trust state (snapshot payload).
    pub fn trust(&self) -> &TrustState {
        &self.trust
    }

    /// Reassembles a state from snapshot parts; a spilled history faults
    /// in from its segment on first access. The verdict cache starts
    /// empty — exactly where a journal-replayed state starts — so the
    /// first assess after either recovery path computes the same thing.
    pub fn from_snapshot(residency: Residency, trust: TrustState) -> Self {
        ServerState {
            residency,
            trust,
            cached: None,
            last_touch: 0,
        }
    }

    /// Folds history words older than `horizon` into the folded counts;
    /// returns the number of outcomes folded (0 while spilled — a cold
    /// history was compacted when it was evicted).
    pub fn compact(&mut self, horizon: usize) -> usize {
        match &mut self.residency {
            Residency::Hot(history) => history.compact(horizon),
            Residency::Spilled { .. } => 0,
        }
    }

    /// Replaces the hot history with a segment reference (eviction).
    /// `bytes` is the serialized payload size the segment holds.
    ///
    /// # Panics
    ///
    /// The state must currently be hot.
    pub fn evict(&mut self, segment: SegmentRef, bytes: u64) {
        let meta = match &self.residency {
            Residency::Hot(history) => SpilledMeta {
                len: history.len() as u64,
                version: history.version(),
                bytes,
            },
            Residency::Spilled { .. } => panic!("evicting an already-spilled state"),
        };
        self.residency = Residency::Spilled { meta, segment };
    }

    /// Restores a faulted-in history, replacing the segment reference.
    pub fn restore(&mut self, history: TieredHistory) {
        debug_assert!(
            matches!(&self.residency, Residency::Spilled { meta, .. }
                if meta.len == history.len() as u64 && meta.version == history.version()),
            "faulted history disagrees with spill metadata"
        );
        self.residency = Residency::Hot(history);
    }

    /// The number of feedbacks ingested so far (resident or spilled).
    pub fn len(&self) -> u64 {
        match &self.residency {
            Residency::Hot(history) => history.len() as u64,
            Residency::Spilled { meta, .. } => meta.len,
        }
    }

    /// The history version: the number of feedbacks ingested so far.
    pub fn version(&self) -> u64 {
        match &self.residency {
            Residency::Hot(history) => history.version(),
            Residency::Spilled { meta, .. } => meta.version,
        }
    }

    /// Resident bytes of the full-resolution (hot-tier) suffix; 0 while
    /// spilled.
    pub fn suffix_bytes(&self) -> u64 {
        match &self.residency {
            Residency::Hot(history) => history.resident_bytes() as u64,
            Residency::Spilled { .. } => 0,
        }
    }

    /// Whether the cached verdict matches the current version (so an
    /// assess would be answered without reading the history bits).
    pub fn cache_current(&self) -> bool {
        matches!(&self.cached, Some((version, _)) if *version == self.version())
    }

    /// The two-phase assessment of the current history.
    ///
    /// Returns `(assessment, from_cache)`; the caller records the cache
    /// outcome in its counters.
    ///
    /// # Panics
    ///
    /// A cache miss needs the history bits: the worker faults spilled
    /// states in before assessing, so a spilled miss is an invariant
    /// violation.
    pub fn assess(
        &mut self,
        test: &MultiBehaviorTest,
        policy: ShortHistoryPolicy,
    ) -> Result<(Arc<Assessment>, bool), CoreError> {
        if let Some((version, assessment)) = &self.cached {
            if *version == self.version() {
                return Ok((Arc::clone(assessment), true));
            }
        }
        let history = match &self.residency {
            Residency::Hot(history) => history,
            Residency::Spilled { .. } => {
                panic!("assess cache miss on a spilled history without fault-in")
            }
        };
        let report = TestReport::MultiSummary(test.evaluate_summary(history)?);
        // TwoPhaseAssessor::assess, with phase 2 answered by the streaming
        // trust state instead of a history replay.
        let assessment = Assessment::from_report(report, policy, || self.trust.current());
        let assessment = Arc::new(assessment);
        self.cached = Some((self.version(), Arc::clone(&assessment)));
        Ok((assessment, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::testing::BehaviorTestConfig;
    use hp_core::{ClientId, Rating, ServerId};

    fn fast_test() -> MultiBehaviorTest {
        MultiBehaviorTest::new(
            BehaviorTestConfig::builder()
                .calibration_trials(200)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn feedback(t: u64, good: bool) -> Feedback {
        Feedback::new(
            t,
            ServerId::new(1),
            ClientId::new(t % 7),
            Rating::from_good(good),
        )
    }

    #[test]
    fn cache_hit_until_next_ingest() {
        let test = fast_test();
        let mut s = ServerState::new(TrustModel::Average).unwrap();
        for t in 0..150 {
            s.ingest(feedback(t, t % 11 != 0), &ShardFaults::default());
        }
        let (a, from_cache) = s.assess(&test, ShortHistoryPolicy::Review).unwrap();
        assert!(!from_cache);
        let (b, from_cache) = s.assess(&test, ShortHistoryPolicy::Review).unwrap();
        assert!(from_cache);
        assert_eq!(a, b);
        s.ingest(feedback(150, true), &ShardFaults::default());
        let (_, from_cache) = s.assess(&test, ShortHistoryPolicy::Review).unwrap();
        assert!(!from_cache, "ingest must invalidate the cache");
    }

    #[test]
    fn empty_history_follows_policy() {
        let test = fast_test();
        let mut s = ServerState::new(TrustModel::Average).unwrap();
        let (a, _) = s.assess(&test, ShortHistoryPolicy::Review).unwrap();
        assert!(matches!(*a, Assessment::NeedsReview { .. }));
        let mut s = ServerState::new(TrustModel::Average).unwrap();
        let (a, _) = s.assess(&test, ShortHistoryPolicy::Reject).unwrap();
        assert!(a.is_rejected());
    }

    #[test]
    fn trust_state_tracks_ingest_order() {
        let mut s = ServerState::new(TrustModel::Weighted { lambda: 0.5 }).unwrap();
        s.ingest(feedback(0, true), &ShardFaults::default());
        s.ingest(feedback(1, false), &ShardFaults::default());
        // R0 = 0.5 → 0.75 → 0.375.
        assert!((s.trust.current().value() - 0.375).abs() < 1e-15);
        assert_eq!(s.history().unwrap().len(), 2);
    }

    #[test]
    fn roll_back_restores_history_and_trust_and_drops_a_newer_verdict() {
        let test = fast_test();
        let mut s = ServerState::new(TrustModel::Weighted { lambda: 0.5 }).unwrap();
        for t in 0..150 {
            s.ingest(feedback(t, t % 11 != 0), &ShardFaults::default());
        }
        let (before, _) = s.assess(&test, ShortHistoryPolicy::Review).unwrap();
        let (bytes, trust) = (s.history().unwrap().encode(), *s.trust());
        let mark = s.mark().expect("resident");
        s.ingest(feedback(150, false), &ShardFaults::default());
        s.assess(&test, ShortHistoryPolicy::Review).unwrap(); // cached at version 151
        assert!(s.roll_back(mark));
        assert_eq!(s.version(), 150);
        assert_eq!(s.history().unwrap().encode(), bytes);
        assert_eq!(*s.trust(), trust);
        // The verdict cached at version 151 went with the record (that
        // version is open again for whatever is ingested next); version
        // 150 recomputes to what it served before.
        let (again, from_cache) = s.assess(&test, ShortHistoryPolicy::Review).unwrap();
        assert!(!from_cache);
        assert_eq!(again, before);
    }

    #[test]
    fn compaction_preserves_verdict_and_cache() {
        let mut tiered = ServerState::new(TrustModel::Average).unwrap();
        let mut plain = ServerState::new(TrustModel::Average).unwrap();
        for t in 0..400 {
            let f = feedback(t, t % 13 != 0);
            tiered.ingest(f, &ShardFaults::default());
            plain.ingest(f, &ShardFaults::default());
        }
        let folded = tiered.compact(150);
        assert!(folded > 0, "400 outcomes with horizon 150 must fold");
        assert_eq!(tiered.len(), plain.len());
        assert_eq!(tiered.version(), plain.version());
        assert!(tiered.suffix_bytes() < plain.suffix_bytes());
        // The capped test only sweeps suffixes inside the retained tail,
        // so tiered and untiered verdicts match bit-for-bit.
        let capped = MultiBehaviorTest::new(
            BehaviorTestConfig::builder()
                .calibration_trials(200)
                .max_suffix(Some(150))
                .build()
                .unwrap(),
        )
        .unwrap();
        let (a, _) = tiered.assess(&capped, ShortHistoryPolicy::Review).unwrap();
        let (b, _) = plain.assess(&capped, ShortHistoryPolicy::Review).unwrap();
        assert_eq!(a, b);
        // Compaction does not bump the version, so the cache stays valid.
        tiered.compact(100);
        let (_, from_cache) = tiered.assess(&capped, ShortHistoryPolicy::Review).unwrap();
        assert!(from_cache, "compaction must not invalidate the cache");
    }

    #[test]
    fn evict_restore_round_trip() {
        let mut s = ServerState::new(TrustModel::Average).unwrap();
        for t in 0..100 {
            s.ingest(feedback(t, true), &ShardFaults::default());
        }
        let history = s.history().unwrap().clone();
        let payload = history.encode();
        let segment = SegmentRef {
            seq: 7,
            offset: 20,
            len: payload.len() as u32,
            crc: 0,
        };
        s.evict(segment, payload.len() as u64);
        assert!(s.is_spilled());
        assert_eq!(s.len(), 100);
        assert_eq!(s.version(), 100);
        assert_eq!(s.suffix_bytes(), 0);
        assert!(s.history().is_none());
        let (meta, got) = s.spilled().unwrap();
        assert_eq!(meta.bytes, payload.len() as u64);
        assert_eq!(got, segment);
        s.restore(TieredHistory::decode(&payload).unwrap());
        assert!(!s.is_spilled());
        assert_eq!(s.history().unwrap().len(), 100);
    }

    #[test]
    fn cached_verdict_survives_eviction() {
        let test = fast_test();
        let mut s = ServerState::new(TrustModel::Average).unwrap();
        for t in 0..150 {
            s.ingest(feedback(t, t % 11 != 0), &ShardFaults::default());
        }
        let (a, _) = s.assess(&test, ShortHistoryPolicy::Review).unwrap();
        s.evict(
            SegmentRef {
                seq: 1,
                offset: 20,
                len: 1,
                crc: 0,
            },
            1,
        );
        // Version unchanged → the resident cache answers without the bits.
        let (b, from_cache) = s.assess(&test, ShortHistoryPolicy::Review).unwrap();
        assert!(from_cache);
        assert_eq!(a, b);
    }
}
