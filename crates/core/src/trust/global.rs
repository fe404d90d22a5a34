//! Global (transitive) trust — an EigenRep/EigenTrust-style baseline.
//!
//! The paper cites Kamvar et al.'s EigenRep (§6, ref. 3) as the canonical
//! *global* trust function: local satisfaction scores are normalized into
//! a stochastic matrix and iterated to a fixed point, so a peer's trust is
//! the stationary probability of a "random surfer" that walks along
//! satisfied-transaction edges. It is implemented here as a baseline so
//! the two-phase approach can be compared against a trust function that
//! aggregates *across* servers rather than per-server.
//!
//! Entities are identified by [`ServerId`]; a client that also issues
//! feedback participates through the same id space (the paper's
//! uni-directional server/client split is a special case where clients
//! have no incoming edges).

use crate::error::CoreError;
use crate::id::ServerId;
use crate::trust::TrustValue;
use std::collections::BTreeMap;

/// Accumulated local scores: `local[i][j]` = rater `i`'s satisfaction
/// balance with target `j`.
#[derive(Debug, Clone, Default)]
pub struct RatingGraph {
    local: BTreeMap<ServerId, BTreeMap<ServerId, f64>>,
    nodes: std::collections::BTreeSet<ServerId>,
}

impl RatingGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        RatingGraph::default()
    }

    /// Records one transaction outcome: rater `from` experienced a good
    /// (+1) or bad (−1 → clamped at aggregation) transaction with `to`.
    pub fn record(&mut self, from: ServerId, to: ServerId, good: bool) {
        let delta = if good { 1.0 } else { -1.0 };
        *self.local.entry(from).or_default().entry(to).or_default() += delta;
        self.nodes.insert(from);
        self.nodes.insert(to);
    }

    /// Number of participating entities.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All participating entities, ordered.
    pub fn nodes(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.nodes.iter().copied()
    }

    /// EigenRep's normalized local trust `c_ij = max(s_ij, 0) / Σ_j max(s_ij, 0)`.
    fn normalized_row(&self, from: ServerId) -> Option<BTreeMap<ServerId, f64>> {
        let row = self.local.get(&from)?;
        let clipped: BTreeMap<ServerId, f64> = row
            .iter()
            .filter(|(_, &s)| s > 0.0)
            .map(|(&j, &s)| (j, s))
            .collect();
        let total: f64 = clipped.values().sum();
        if total <= 0.0 {
            return None;
        }
        Some(clipped.into_iter().map(|(j, s)| (j, s / total)).collect())
    }
}

/// Configuration for [`GlobalTrust`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalTrustConfig {
    /// Teleport weight toward the uniform distribution (EigenTrust's `a`
    /// toward pre-trusted peers; uniform here). Guards against rank sinks
    /// and collusive loops.
    pub damping: f64,
    /// Maximum power-iteration steps.
    pub max_iterations: usize,
    /// L¹ convergence tolerance between successive iterates.
    pub tolerance: f64,
}

impl Default for GlobalTrustConfig {
    fn default() -> Self {
        GlobalTrustConfig {
            damping: 0.15,
            max_iterations: 100,
            tolerance: 1e-9,
        }
    }
}

/// The converged global trust vector.
#[derive(Debug, Clone)]
pub struct GlobalTrust {
    scores: BTreeMap<ServerId, f64>,
    iterations: usize,
}

impl GlobalTrust {
    /// Computes global trust over a rating graph by power iteration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a damping outside `[0, 1)`
    /// or a zero iteration budget.
    pub fn compute(graph: &RatingGraph, config: GlobalTrustConfig) -> Result<Self, CoreError> {
        if !(0.0..1.0).contains(&config.damping) {
            return Err(CoreError::InvalidConfig {
                reason: format!("damping must lie in [0, 1), got {}", config.damping),
            });
        }
        if config.max_iterations == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "max_iterations must be positive".into(),
            });
        }
        let nodes: Vec<ServerId> = graph.nodes().collect();
        let n = nodes.len();
        if n == 0 {
            return Ok(GlobalTrust {
                scores: BTreeMap::new(),
                iterations: 0,
            });
        }
        let uniform = 1.0 / n as f64;
        let rows: BTreeMap<ServerId, BTreeMap<ServerId, f64>> = nodes
            .iter()
            .filter_map(|&i| graph.normalized_row(i).map(|r| (i, r)))
            .collect();

        let mut current: BTreeMap<ServerId, f64> = nodes.iter().map(|&i| (i, uniform)).collect();
        let mut iterations = 0;
        for _ in 0..config.max_iterations {
            iterations += 1;
            let mut next: BTreeMap<ServerId, f64> = nodes
                .iter()
                .map(|&i| (i, config.damping * uniform))
                .collect();
            let mut dangling = 0.0;
            for &i in &nodes {
                let mass = current[&i] * (1.0 - config.damping);
                match rows.get(&i) {
                    Some(row) => {
                        for (&j, &w) in row {
                            *next.get_mut(&j).expect("all nodes present") += mass * w;
                        }
                    }
                    None => dangling += mass,
                }
            }
            // Dangling raters (no positive outgoing score) spread uniformly.
            if dangling > 0.0 {
                let share = dangling / n as f64;
                for v in next.values_mut() {
                    *v += share;
                }
            }
            let delta: f64 = nodes.iter().map(|&i| (next[&i] - current[&i]).abs()).sum();
            current = next;
            if delta < config.tolerance {
                break;
            }
        }
        Ok(GlobalTrust {
            scores: current,
            iterations,
        })
    }

    /// The raw stationary score of an entity (sums to 1 over all nodes).
    pub fn score(&self, id: ServerId) -> f64 {
        self.scores.get(&id).copied().unwrap_or(0.0)
    }

    /// The score rescaled to `[0, 1]` relative to the best-ranked entity —
    /// comparable across graphs of different sizes.
    pub fn relative_trust(&self, id: ServerId) -> TrustValue {
        let max = self.scores.values().cloned().fold(0.0_f64, f64::max);
        if max <= 0.0 {
            return TrustValue::ZERO;
        }
        TrustValue::saturating(self.score(id) / max)
    }

    /// Entities ranked best-first.
    pub fn ranking(&self) -> Vec<(ServerId, f64)> {
        let mut out: Vec<(ServerId, f64)> = self.scores.iter().map(|(&i, &s)| (i, s)).collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
        out
    }

    /// Power-iteration steps used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u64) -> ServerId {
        ServerId::new(i)
    }

    #[test]
    fn config_validation() {
        let graph = RatingGraph::new();
        assert!(GlobalTrust::compute(
            &graph,
            GlobalTrustConfig {
                damping: 1.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(GlobalTrust::compute(
            &graph,
            GlobalTrustConfig {
                max_iterations: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn empty_graph_is_empty_trust() {
        let gt = GlobalTrust::compute(&RatingGraph::new(), GlobalTrustConfig::default()).unwrap();
        assert_eq!(gt.score(id(1)), 0.0);
        assert!(gt.ranking().is_empty());
    }

    #[test]
    fn scores_form_a_distribution() {
        let mut g = RatingGraph::new();
        for (a, b, good) in [(1, 2, true), (2, 3, true), (3, 1, true), (1, 3, false)] {
            g.record(id(a), id(b), good);
        }
        let gt = GlobalTrust::compute(&g, GlobalTrustConfig::default()).unwrap();
        let total: f64 = g.nodes().map(|i| gt.score(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn well_served_node_ranks_first() {
        // Everyone is satisfied by node 9; node 9 rates nobody.
        let mut g = RatingGraph::new();
        for i in 1..=8 {
            for _ in 0..5 {
                g.record(id(i), id(9), true);
            }
        }
        // A little side-traffic so others have rank mass too.
        g.record(id(1), id(2), true);
        let gt = GlobalTrust::compute(&g, GlobalTrustConfig::default()).unwrap();
        assert_eq!(gt.ranking()[0].0, id(9));
        assert_eq!(gt.relative_trust(id(9)), TrustValue::ONE);
        assert!(gt.relative_trust(id(3)).value() < 1.0);
    }

    #[test]
    fn negative_balances_carry_no_trust() {
        // 1 had 3 bad and 1 good transaction with 2: balance −2 → no edge.
        let mut g = RatingGraph::new();
        g.record(id(1), id(2), false);
        g.record(id(1), id(2), false);
        g.record(id(1), id(2), false);
        g.record(id(1), id(2), true);
        g.record(id(1), id(3), true);
        let gt = GlobalTrust::compute(&g, GlobalTrustConfig::default()).unwrap();
        assert!(
            gt.score(id(3)) > gt.score(id(2)),
            "all of 1's trust flows to 3: {:?}",
            gt.ranking()
        );
    }

    #[test]
    fn collusive_clique_is_bounded_by_damping() {
        // A 2-clique praising itself vs a server praised by 10 outsiders.
        let mut g = RatingGraph::new();
        for _ in 0..100 {
            g.record(id(100), id(101), true);
            g.record(id(101), id(100), true);
        }
        for i in 1..=10 {
            g.record(id(i), id(50), true);
        }
        let gt = GlobalTrust::compute(&g, GlobalTrustConfig::default()).unwrap();
        // The clique cannot exceed the rank that teleportation feeds it,
        // no matter how many self-dealing transactions it logs.
        assert!(
            gt.score(id(50)) > gt.score(id(100)),
            "organically trusted node must outrank the clique: {:?}",
            gt.ranking()
        );
    }

    #[test]
    fn converges_and_reports_iterations() {
        let mut g = RatingGraph::new();
        for i in 0..20u64 {
            g.record(id(i), id((i + 1) % 20), true);
        }
        let gt = GlobalTrust::compute(&g, GlobalTrustConfig::default()).unwrap();
        assert!(gt.iterations() > 0 && gt.iterations() <= 100);
        // Symmetric ring: all scores equal.
        let scores: Vec<f64> = g.nodes().map(|i| gt.score(i)).collect();
        for w in scores.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6);
        }
    }
}
