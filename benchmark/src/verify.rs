//! Output checks: the offline oracle and the verdict comparisons.
//!
//! The one invariant of this repository is that an online verdict is
//! bit-identical to the offline [`TwoPhaseAssessor`] on the same history.
//! The benchmark holds every run to it: sampled servers are read through
//! `GET /assess_traced/{id}` and the body must equal, byte for byte, what
//! [`wire::render_traced`] produces from the offline assessment of the
//! regenerated history (verdict, trust bits, outcome, binding suffix, p̂ /
//! distance / threshold / margin bits). Only `from_cache` — provenance,
//! not verdict — is taken from the served body.

use crate::gen;
use crate::spec::Shape;
use hp_core::testing::MultiBehaviorTest;
use hp_core::trust::{AverageTrust, WeightedTrust};
use hp_core::{ServerId, TransactionHistory, TrustFunction, TwoPhaseAssessor};
use hp_edge::wire;
use hp_load::{HttpClient, PopulationMix};
use hp_service::{calcache, AssessmentTrace, ServiceConfig, TracedAssessment, TrustModel};
use hp_stats::{derive_seed, ThresholdCalibrator};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The offline assessor wired exactly like the child's service.
pub struct Reference {
    assessor: TwoPhaseAssessor<MultiBehaviorTest, Box<dyn TrustFunction>>,
    /// The shared calibrator (the kernels time lookups against it).
    pub calibrator: Arc<ThresholdCalibrator>,
    /// Seconds the calibrator took to become ready.
    pub build_s: f64,
}

impl Reference {
    /// Builds the reference for `config`. The calibrator's rows and
    /// surface are kept in `cache` (fingerprint-keyed by
    /// [`calcache`], exactly the file a service persists), so only the
    /// first run in a checkout pays the Monte-Carlo build.
    pub fn build(config: &ServiceConfig, cache: &Path) -> Result<Reference, String> {
        let start = Instant::now();
        let test = config.effective_test();
        let calibrator = Arc::new(
            ThresholdCalibrator::new(test.calibration_config()).map_err(|e| e.to_string())?,
        );
        let loaded = calcache::load(cache, &calibrator).map_or(0, |l| l.surface_layers);
        calibrator
            .ensure_surface_for(test.window_size())
            .map_err(|e| e.to_string())?;
        if loaded == 0 {
            // Best effort: a read-only checkout only costs the next run
            // another build.
            let _ = calcache::save(cache, &calibrator);
        }
        let behavior = MultiBehaviorTest::with_calibrator(test, Arc::clone(&calibrator))
            .map_err(|e| e.to_string())?;
        let trust: Box<dyn TrustFunction> = match config.trust() {
            TrustModel::Average => Box::new(AverageTrust::default()),
            TrustModel::Weighted { lambda } => {
                Box::new(WeightedTrust::new(lambda).map_err(|e| e.to_string())?)
            }
        };
        Ok(Reference {
            assessor: TwoPhaseAssessor::new(behavior, trust)
                .with_short_history_policy(config.short_history()),
            calibrator,
            build_s: start.elapsed().as_secs_f64(),
        })
    }

    /// The offline assessor.
    pub fn assessor(&self) -> &TwoPhaseAssessor<MultiBehaviorTest, Box<dyn TrustFunction>> {
        &self.assessor
    }

    /// The body `GET /assess_traced/{server}` must serve for a server that
    /// holds the first `len` feedbacks of its generated history.
    pub fn expected_body(
        &self,
        mix: &PopulationMix,
        server: u64,
        len: u64,
        from_cache: bool,
    ) -> Result<String, String> {
        let mut history = TransactionHistory::with_capacity(len as usize);
        for feedback in gen::history(mix, server, len) {
            history.push(feedback);
        }
        let assessment = self.assessor.assess(&history).map_err(|e| e.to_string())?;
        let trace =
            AssessmentTrace::from_assessment(ServerId::new(server), &assessment, from_cache);
        Ok(wire::render_traced(&TracedAssessment {
            assessment: Arc::new(assessment),
            trace,
        }))
    }
}

/// `count` distinct servers of `range`, seeded; the first is the lowest
/// id (the deepest or hottest server of a workload).
fn pick(seed: u64, range: std::ops::Range<u64>, count: usize) -> Vec<u64> {
    let size = range.end - range.start;
    let mut picked = Vec::new();
    if size > 0 && count > 0 {
        picked.push(range.start);
    }
    let mut i = 0u64;
    while picked.len() < count.min(size as usize) {
        let candidate =
            range.start + derive_seed(derive_seed(seed, 0x5341_4D50 ^ range.start), i) % size;
        i += 1;
        if !picked.contains(&candidate) {
            picked.push(candidate);
        }
    }
    picked
}

/// The servers whose verdicts a run checks: where a workload has deep (or
/// hot) servers beside others, half from each, alternating, so that any
/// prefix — the restart check reads one — covers both kinds.
pub fn sample_servers(seed: u64, shape: &Shape, count: usize) -> Vec<u64> {
    let deep = shape.deep_servers.min(shape.servers);
    let others = shape.servers - deep;
    let from_deep = match (deep, others) {
        (0, _) => 0,
        (_, 0) => count,
        _ => (count / 2).min(deep as usize),
    };
    let deep_picks = pick(seed, 0..deep, from_deep);
    let other_picks = pick(seed, deep..shape.servers, count - deep_picks.len());
    let mut sample = Vec::with_capacity(count);
    let (mut a, mut b) = (deep_picks.into_iter(), other_picks.into_iter());
    loop {
        match (a.next(), b.next()) {
            (None, None) => return sample,
            (x, y) => sample.extend(x.into_iter().chain(y)),
        }
    }
}

/// Reads the traced verdict of each server over the socket.
pub fn served_bodies(client: &mut HttpClient, servers: &[u64]) -> Result<Vec<String>, String> {
    servers
        .iter()
        .map(|server| {
            client
                .get(&format!("/assess_traced/{server}"))
                .map_err(|e| format!("assess_traced/{server}: {e}"))?
                .expect_status(200)
                .map_err(|e| format!("assess_traced/{server}: {e}"))
        })
        .collect()
}

/// A served body with its provenance flag blanked, for comparing the same
/// verdict read twice (the second read is a cache hit).
pub fn without_provenance(body: &str) -> String {
    body.replace("\"from_cache\":true", "\"from_cache\":_")
        .replace("\"from_cache\":false", "\"from_cache\":_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_distinct_seeded_and_covers_deep_and_other_servers() {
        for shape in &crate::spec::WORKLOADS {
            let a = sample_servers(9, shape, 64);
            assert_eq!(a.len(), 64, "{}", shape.name);
            assert_eq!(a, sample_servers(9, shape, 64));
            assert_ne!(a, sample_servers(10, shape, 64));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 64, "{}", shape.name);
            assert!(a.iter().all(|&s| s < shape.servers));
            let deep = a[..32].iter().filter(|&&s| s < shape.deep_servers).count();
            if shape.deep_servers > 0 && shape.deep_servers < shape.servers {
                assert_eq!(deep, 16, "{}: half of any prefix is deep", shape.name);
            }
        }
        // A population smaller than the sample yields every server.
        let tiny = crate::spec::Shape {
            servers: 10,
            deep_servers: 4,
            ..crate::spec::WORKLOADS[2]
        };
        assert_eq!(sample_servers(1, &tiny, 64).len(), 10);
    }

    #[test]
    fn provenance_is_the_only_thing_blanked() {
        let hit = "{\"server\":1,\"from_cache\":true,\"trust_bits\":\"3fe0\"}";
        let miss = "{\"server\":1,\"from_cache\":false,\"trust_bits\":\"3fe0\"}";
        assert_eq!(without_provenance(hit), without_provenance(miss));
        assert_ne!(
            without_provenance(hit),
            without_provenance(&miss.replace("3fe0", "3fe1"))
        );
    }
}
