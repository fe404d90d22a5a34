//! A deterministic, *stateless-per-event* population generator.
//!
//! `hp-sim`'s workload generators materialize one server's whole history
//! at a time; replaying millions of simulated users that way would hold
//! gigabytes of feedbacks in the load generator. This module instead
//! derives every feedback from `(seed, server, transaction index)` with
//! the same `derive_seed` chain the calibrator uses, so the stream
//!
//! * covers millions of distinct clients and an arbitrary server count
//!   in O(#servers) memory (one transaction counter per server),
//! * is bit-reproducible for a given seed at any worker count (each
//!   event's randomness depends only on its coordinates), and
//! * reproduces the paper's §5 population mix: honest players at
//!   trustworthiness `p`, hibernating attackers (honest preparation
//!   then an all-bad attack run), and windowed periodic attackers.
//!
//! The class mix mirrors `hp_sim::workload`: honest histories are
//! i.i.d. Bernoulli(`p`), hibernators turn bad after `hibernate_prep`
//! transactions, periodic attackers go bad for the first
//! `⌊window·rate⌋` slots of every window.

use hp_core::{ClientId, Feedback, Rating, ServerId};
use hp_stats::derive_seed;

/// Behavior class assigned to one simulated server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BehaviorClass {
    /// Honest player: i.i.d. Bernoulli(`p_honest`) outcomes (§5.1).
    Honest,
    /// Hibernating attacker: honest for `hibernate_prep` transactions,
    /// then every transaction bad (§5.2).
    Hibernating,
    /// Windowed periodic attacker: `⌊window·rate⌋` bad transactions per
    /// `periodic_window` (§5.3, the Fig. 7 workload).
    Periodic,
}

/// The population specification: how many servers/clients, the class
/// mix, and each class's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationMix {
    /// Distinct rated servers.
    pub servers: u64,
    /// Distinct rating clients (the "million users").
    pub clients: u64,
    /// Fraction of servers that are honest players.
    pub honest_fraction: f64,
    /// Fraction that are hibernating attackers (the rest are periodic).
    pub hibernating_fraction: f64,
    /// Honest trustworthiness `p` (also the hibernators' preparation
    /// quality).
    pub p_honest: f64,
    /// Honest transactions a hibernator performs before attacking.
    pub hibernate_prep: u64,
    /// The periodic attacker's window length.
    pub periodic_window: u64,
    /// Fraction of each window the periodic attacker spends attacking.
    pub periodic_rate: f64,
    /// Master seed; every event derives from it.
    pub seed: u64,
}

/// Domain-separation tags for the per-event seed chains.
const TAG_CLASS: u64 = 0x48_504C_4443_4C53; // "HPLDCLS"
const TAG_RATING: u64 = 0x4850_4C44_5254; // "HPLDRT"
const TAG_CLIENT: u64 = 0x4850_4C44_434C; // "HPLDCL"

/// Maps a derived seed to a uniform f64 in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl PopulationMix {
    /// The paper's §5 evaluation mix: mostly honest servers at `p = 0.9`
    /// with hibernating and periodic attackers mixed in.
    pub fn paper_mix(servers: u64, clients: u64, seed: u64) -> PopulationMix {
        PopulationMix {
            servers,
            clients,
            honest_fraction: 0.8,
            hibernating_fraction: 0.1,
            p_honest: 0.9,
            hibernate_prep: 2_000,
            periodic_window: 200,
            periodic_rate: 0.1,
            seed,
        }
    }

    /// The behavior class of `server` (pure function of seed and id).
    pub fn class_of(&self, server: ServerId) -> BehaviorClass {
        let u = unit(derive_seed(
            derive_seed(self.seed, TAG_CLASS),
            server.value(),
        ));
        if u < self.honest_fraction {
            BehaviorClass::Honest
        } else if u < self.honest_fraction + self.hibernating_fraction {
            BehaviorClass::Hibernating
        } else {
            BehaviorClass::Periodic
        }
    }

    /// The `t`-th feedback for `server` — stateless: depends only on
    /// `(seed, server, t)`.
    pub fn feedback(&self, server: ServerId, t: u64) -> Feedback {
        let per_server = derive_seed(self.seed, server.value());
        let good = match self.class_of(server) {
            BehaviorClass::Honest => {
                unit(derive_seed(derive_seed(per_server, TAG_RATING), t)) < self.p_honest
            }
            BehaviorClass::Hibernating => {
                t < self.hibernate_prep
                    && unit(derive_seed(derive_seed(per_server, TAG_RATING), t)) < self.p_honest
            }
            BehaviorClass::Periodic => {
                let window = self.periodic_window.max(1);
                let attacks = (window as f64 * self.periodic_rate) as u64;
                t % window >= attacks
            }
        };
        let client = derive_seed(derive_seed(per_server, TAG_CLIENT), t) % self.clients.max(1);
        Feedback::new(t, server, ClientId::new(client), Rating::from_good(good))
    }
}

/// An infinite feedback stream over the population: servers are visited
/// round-robin and each keeps its own transaction clock, so every
/// server's history grows exactly as the paper's generators would have
/// produced it. Memory is one `u64` per server.
#[derive(Debug)]
pub struct FeedbackStream {
    mix: PopulationMix,
    /// Server ids this stream owns (an offset/stride slice of the
    /// population, so concurrent workers partition the servers and no
    /// two streams ever emit the same `(server, t)` coordinate).
    servers: Vec<u64>,
    next_idx: usize,
    clocks: Vec<u64>,
}

impl FeedbackStream {
    /// Creates the stream at time zero for every server.
    pub fn new(mix: PopulationMix) -> FeedbackStream {
        FeedbackStream::strided(mix, 0, 1)
    }

    /// Creates the stream over the servers `offset, offset+stride, …`:
    /// worker `w` of `C` uses `strided(mix, w, C)` and the workers
    /// jointly replay exactly the population [`FeedbackStream::new`]
    /// would have produced alone.
    pub fn strided(mix: PopulationMix, offset: u64, stride: u64) -> FeedbackStream {
        let stride = stride.max(1);
        let servers: Vec<u64> = (offset..mix.servers).step_by(stride as usize).collect();
        let clocks = vec![0u64; servers.len()];
        FeedbackStream {
            mix,
            servers,
            next_idx: 0,
            clocks,
        }
    }

    /// The population spec this stream replays.
    pub fn mix(&self) -> &PopulationMix {
        &self.mix
    }

    /// Fills `out` with the next `n` feedbacks (empty when this stream
    /// owns no servers).
    pub fn next_batch(&mut self, n: usize, out: &mut Vec<Feedback>) {
        out.clear();
        if self.servers.is_empty() {
            return;
        }
        out.reserve(n);
        for _ in 0..n {
            let idx = self.next_idx;
            self.next_idx = (self.next_idx + 1) % self.servers.len();
            let server = self.servers[idx];
            let t = self.clocks[idx];
            self.clocks[idx] += 1;
            out.push(self.mix.feedback(ServerId::new(server), t));
        }
    }

    /// A server this stream has already emitted feedback for (assess
    /// probes target warm servers); `None` before the first batch.
    pub fn touched_server(&self, salt: u64) -> Option<ServerId> {
        let emitted = if self.clocks.iter().any(|&c| c > 1) {
            self.servers.len()
        } else {
            self.next_idx
        };
        if emitted == 0 {
            return None;
        }
        let pick = derive_seed(self.mix.seed, salt) as usize % emitted;
        Some(ServerId::new(self.servers[pick]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> PopulationMix {
        PopulationMix::paper_mix(100, 1_000_000, 42)
    }

    #[test]
    fn class_mix_matches_requested_fractions() {
        let mix = PopulationMix::paper_mix(10_000, 1_000_000, 7);
        let honest = (0..10_000)
            .filter(|&s| mix.class_of(ServerId::new(s)) == BehaviorClass::Honest)
            .count();
        let hibernating = (0..10_000)
            .filter(|&s| mix.class_of(ServerId::new(s)) == BehaviorClass::Hibernating)
            .count();
        assert!(
            (honest as f64 / 10_000.0 - 0.8).abs() < 0.02,
            "honest {honest}"
        );
        assert!(
            (hibernating as f64 / 10_000.0 - 0.1).abs() < 0.02,
            "hibernating {hibernating}"
        );
    }

    #[test]
    fn events_are_stateless_and_deterministic() {
        let mix = mix();
        let a = mix.feedback(ServerId::new(3), 17);
        let b = mix.feedback(ServerId::new(3), 17);
        assert_eq!(a, b);
        // Different coordinates give different randomness.
        assert_ne!(
            mix.feedback(ServerId::new(3), 18).client,
            mix.feedback(ServerId::new(4), 18).client
        );
    }

    #[test]
    fn honest_servers_track_p() {
        let mix = mix();
        let server = (0..100)
            .map(ServerId::new)
            .find(|&s| mix.class_of(s) == BehaviorClass::Honest)
            .unwrap();
        let good = (0..5_000)
            .filter(|&t| mix.feedback(server, t).is_good())
            .count();
        assert!((good as f64 / 5_000.0 - 0.9).abs() < 0.02, "good {good}");
    }

    #[test]
    fn hibernators_turn_all_bad_after_prep() {
        let mix = mix();
        let server = (0..100)
            .map(ServerId::new)
            .find(|&s| mix.class_of(s) == BehaviorClass::Hibernating)
            .unwrap();
        assert!((mix.hibernate_prep..mix.hibernate_prep + 200)
            .all(|t| !mix.feedback(server, t).is_good()));
    }

    #[test]
    fn stream_advances_per_server_clocks() {
        let mut stream = FeedbackStream::new(PopulationMix::paper_mix(4, 1_000, 1));
        let mut batch = Vec::new();
        stream.next_batch(12, &mut batch);
        assert_eq!(batch.len(), 12);
        // Round-robin: each of the 4 servers saw transactions 0, 1, 2.
        for server in 0..4u64 {
            let times: Vec<u64> = batch
                .iter()
                .filter(|f| f.server.value() == server)
                .map(|f| f.time)
                .collect();
            assert_eq!(times, vec![0, 1, 2]);
        }
        assert!(stream.touched_server(9).is_some());
    }
}
