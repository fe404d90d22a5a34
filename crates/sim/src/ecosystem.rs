//! A whole-marketplace simulation: does two-phase assessment actually
//! reduce the harm clients experience?
//!
//! The paper's evaluation measures attacker *cost*; this module closes the
//! loop and measures client *welfare*: a population of honest servers of
//! varying quality and hibernating attackers compete for clients who pick
//! providers by assessed trust. Screening should (a) starve attackers of
//! victims once they wake and (b) leave honest traffic essentially
//! untouched.

use crate::attacker::PeriodicAttacker;
use crate::behavior::{BehaviorContext, HonestBehavior, ServerBehavior};
use hp_core::testing::{BehaviorTest, TestOutcome};
use hp_core::{ClientId, CoreError, Feedback, Rating, ServerId, TransactionHistory, TrustFunction};
use rand::RngExt;

/// Configuration for [`run_marketplace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcosystemConfig {
    /// Honest servers, with trustworthiness spread uniformly over
    /// `honest_p_range`.
    pub honest_servers: usize,
    /// Range of honest trustworthiness values.
    pub honest_p_range: (f64, f64),
    /// Periodic attackers cycling between trust 0.95 and 0.93 — pinned
    /// *above* every honest server in the default market, so trust-ranked
    /// selection keeps walking into them.
    pub attackers: usize,
    /// Number of clients.
    pub clients: u64,
    /// Total transactions to simulate.
    pub rounds: usize,
    /// Exploration rate: fraction of picks that ignore trust (keeps new
    /// servers discoverable; also what attackers prey on).
    pub exploration: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            honest_servers: 16,
            honest_p_range: (0.80, 0.92),
            attackers: 4,
            clients: 100,
            rounds: 6000,
            exploration: 0.1,
            seed: 0,
        }
    }
}

/// The outcome of a marketplace run.
#[derive(Debug, Clone)]
pub struct EcosystemOutcome {
    /// Transactions executed.
    pub transactions: usize,
    /// Transactions that went bad for the client.
    pub bad_experiences: usize,
    /// Bad experiences caused by attacker servers specifically.
    pub attacker_harm: usize,
    /// Times a screening verdict removed a server from a client's
    /// candidate set.
    pub screened_out_picks: usize,
    /// Transactions served per server (honest first, then attackers).
    pub per_server: Vec<usize>,
}

impl EcosystemOutcome {
    /// Fraction of transactions that went bad.
    pub fn bad_rate(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.bad_experiences as f64 / self.transactions as f64
        }
    }
}

/// Runs the marketplace.
///
/// Each round one client requests service and picks, among servers not
/// flagged suspicious by `screening`, the one with the best trust value
/// (or a uniformly random server with probability `exploration`). Screen
/// verdicts are recomputed lazily every 50 transactions per server —
/// assessing on every pick would be realistic for a client-side library
/// but irrelevant to the measured outcomes.
///
/// # Errors
///
/// Propagates behavior-test failures.
pub fn run_marketplace(
    config: &EcosystemConfig,
    trust: &dyn TrustFunction,
    screening: Option<&dyn BehaviorTest>,
) -> Result<EcosystemOutcome, CoreError> {
    let total_servers = config.honest_servers + config.attackers;
    assert!(total_servers > 0, "need at least one server");
    let mut rng = hp_stats::seeded_rng(config.seed);

    // Build behaviors: honest servers span the quality range, attackers
    // hibernate behind near-perfect service.
    let mut behaviors: Vec<Box<dyn ServerBehavior>> = Vec::with_capacity(total_servers);
    for i in 0..config.honest_servers {
        let (lo, hi) = config.honest_p_range;
        let p = if config.honest_servers == 1 {
            (lo + hi) / 2.0
        } else {
            lo + (hi - lo) * i as f64 / (config.honest_servers - 1) as f64
        };
        behaviors.push(Box::new(HonestBehavior::new(p)?));
    }
    for _ in 0..config.attackers {
        behaviors.push(Box::new(PeriodicAttacker::new(0.95, 0.93, 1.0)));
    }

    let mut histories: Vec<TransactionHistory> = (0..total_servers)
        .map(|_| TransactionHistory::new())
        .collect();
    let mut flagged: Vec<bool> = vec![false; total_servers];
    let mut last_screen: Vec<usize> = vec![0; total_servers];
    let mut per_server = vec![0usize; total_servers];

    let mut bad_experiences = 0usize;
    let mut attacker_harm = 0usize;
    let mut screened_out_picks = 0usize;

    for round in 0..config.rounds {
        // Refresh stale screening verdicts.
        if let Some(test) = screening {
            for s in 0..total_servers {
                if histories[s].len() >= last_screen[s] + 50 {
                    last_screen[s] = histories[s].len();
                    flagged[s] = test.evaluate(&histories[s])?.outcome() == TestOutcome::Suspicious;
                }
            }
        }

        // A client arrives and picks a server.
        let client = ClientId::new(rng.random_range(0..config.clients.max(1)));
        let explore = rng.random::<f64>() < config.exploration;
        let pick = if explore {
            rng.random_range(0..total_servers)
        } else {
            let mut best: Option<(usize, f64)> = None;
            for s in 0..total_servers {
                if flagged[s] {
                    screened_out_picks += 1;
                    continue;
                }
                let t = trust.trust(&histories[s]).value();
                if best.is_none_or(|(_, bt)| t > bt) {
                    best = Some((s, t));
                }
            }
            match best {
                Some((s, _)) => s,
                None => rng.random_range(0..total_servers),
            }
        };

        // The chosen server decides its behavior and serves.
        let trust_seen = trust.trust(&histories[pick]);
        let good = {
            let ctx = BehaviorContext {
                history: &histories[pick],
                trust: trust_seen,
                time: round as u64,
            };
            behaviors[pick].next_outcome(&ctx, &mut rng)
        };
        histories[pick].push(Feedback::new(
            round as u64,
            ServerId::new(pick as u64),
            client,
            Rating::from_good(good),
        ));
        per_server[pick] += 1;
        if !good {
            bad_experiences += 1;
            if pick >= config.honest_servers {
                attacker_harm += 1;
            }
        }
    }

    Ok(EcosystemOutcome {
        transactions: config.rounds,
        bad_experiences,
        attacker_harm,
        screened_out_picks,
        per_server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::testing::{BehaviorTestConfig, MultiBehaviorTest};
    use hp_core::trust::AverageTrust;

    fn screen() -> MultiBehaviorTest {
        MultiBehaviorTest::new(
            BehaviorTestConfig::builder()
                .calibration_trials(300)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn marketplace_runs_deterministically() {
        let config = EcosystemConfig {
            rounds: 800,
            ..Default::default()
        };
        let avg = AverageTrust::default();
        let a = run_marketplace(&config, &avg, None).unwrap();
        let b = run_marketplace(&config, &avg, None).unwrap();
        assert_eq!(a.bad_experiences, b.bad_experiences);
        assert_eq!(a.per_server, b.per_server);
        assert_eq!(a.transactions, 800);
    }

    #[test]
    fn screening_reduces_attacker_harm() {
        let config = EcosystemConfig {
            rounds: 6000,
            seed: 11,
            ..Default::default()
        };
        let avg = AverageTrust::default();
        let unscreened = run_marketplace(&config, &avg, None).unwrap();
        let test = screen();
        let screened = run_marketplace(&config, &avg, Some(&test)).unwrap();
        assert!(
            screened.attacker_harm < unscreened.attacker_harm,
            "screening must cut attacker harm: {} vs {}",
            screened.attacker_harm,
            unscreened.attacker_harm
        );
        assert!(screened.screened_out_picks > 0);
    }

    #[test]
    fn without_attackers_screening_is_nearly_free() {
        let config = EcosystemConfig {
            attackers: 0,
            rounds: 4000,
            seed: 5,
            ..Default::default()
        };
        let avg = AverageTrust::default();
        let unscreened = run_marketplace(&config, &avg, None).unwrap();
        let test = screen();
        let screened = run_marketplace(&config, &avg, Some(&test)).unwrap();
        // Honest-only market: bad rates within a small absolute gap.
        let gap = (screened.bad_rate() - unscreened.bad_rate()).abs();
        assert!(gap < 0.03, "screening overhead on honest market: {gap}");
    }

    #[test]
    fn traffic_concentrates_on_good_servers() {
        // Trust-greedy selection is winner-take-all, so any single seed may
        // crown one lucky server; aggregate several runs and compare the
        // better half of the market (p in [0.86, 0.92]) against the worse
        // half (p in [0.80, 0.86)) instead of one best-vs-worst pair.
        let avg = AverageTrust::default();
        let mut top_half = 0usize;
        let mut bottom_half = 0usize;
        for seed in 0..5 {
            let config = EcosystemConfig {
                attackers: 0,
                rounds: 5000,
                seed,
                ..Default::default()
            };
            let outcome = run_marketplace(&config, &avg, None).unwrap();
            bottom_half += outcome.per_server[..8].iter().sum::<usize>();
            top_half += outcome.per_server[8..].iter().sum::<usize>();
        }
        assert!(
            top_half > bottom_half,
            "better-half traffic {top_half} vs worse-half {bottom_half}"
        );
    }
}
