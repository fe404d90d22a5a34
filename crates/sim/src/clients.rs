//! The probabilistic client-arrival model of §5.2.
//!
//! "If a client c has never gotten service from the server s before, then
//! the probability for c to request service from s is a₁·p, where a₁ is a
//! constant and p is the current reputation of s. Similarly, we have
//! parameters a₂ (and a₃) for those clients who recently got a good (or a
//! bad) service from s. In the experiment, we set a₁ = 0.5, a₂ = 0.9 and
//! a₃ = 0.2."

use hp_core::ClientId;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;

/// A client's most recent experience with the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Experience {
    /// Never transacted with this server.
    #[default]
    Never,
    /// The last transaction was satisfactory.
    Good,
    /// The last transaction was unsatisfactory.
    Bad,
}

/// Arrival probabilities per experience class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientArrivalConfig {
    /// Multiplier on the server's reputation for first-time clients (a₁).
    pub a1: f64,
    /// Arrival probability after a good experience (a₂).
    pub a2: f64,
    /// Arrival probability after a bad experience (a₃).
    pub a3: f64,
}

impl Default for ClientArrivalConfig {
    /// The paper's values: a₁ = 0.5, a₂ = 0.9, a₃ = 0.2.
    fn default() -> Self {
        ClientArrivalConfig {
            a1: 0.5,
            a2: 0.9,
            a3: 0.2,
        }
    }
}

/// The population of potential clients and their experience state.
///
/// # Examples
///
/// ```
/// use hp_sim::{ClientArrivalConfig, ClientPopulation, Experience};
/// use hp_core::ClientId;
///
/// let mut pop = ClientPopulation::new(100, ClientArrivalConfig::default());
/// let mut rng = hp_stats::seeded_rng(1);
/// // A server with perfect reputation draws roughly a1·p = 50% of the
/// // never-served population each round.
/// let arrivals = pop.arrivals(1.0, &mut rng);
/// assert!(arrivals.len() > 30 && arrivals.len() < 70);
///
/// pop.record(ClientId::new(0), false);
/// assert_eq!(pop.experience(ClientId::new(0)), Experience::Bad);
/// ```
#[derive(Debug, Clone)]
pub struct ClientPopulation {
    size: u64,
    config: ClientArrivalConfig,
    experience: HashMap<ClientId, Experience>,
}

impl ClientPopulation {
    /// Creates a population of clients `c0 … c(size−1)`, none of whom have
    /// transacted yet.
    pub fn new(size: u64, config: ClientArrivalConfig) -> Self {
        ClientPopulation {
            size,
            config,
            experience: HashMap::new(),
        }
    }

    /// Number of potential clients.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// All client ids in the population.
    pub fn client_ids(&self) -> impl Iterator<Item = ClientId> {
        (0..self.size).map(ClientId::new)
    }

    /// The recorded experience of `client`.
    pub fn experience(&self, client: ClientId) -> Experience {
        self.experience.get(&client).copied().unwrap_or_default()
    }

    /// Records the outcome of a transaction with `client`.
    pub fn record(&mut self, client: ClientId, good: bool) {
        self.experience.insert(
            client,
            if good {
                Experience::Good
            } else {
                Experience::Bad
            },
        );
    }

    /// The probability that `client` requests service given the server's
    /// current reputation `p`.
    pub fn arrival_probability(&self, client: ClientId, reputation: f64) -> f64 {
        match self.experience(client) {
            Experience::Never => (self.config.a1 * reputation).clamp(0.0, 1.0),
            Experience::Good => self.config.a2,
            Experience::Bad => self.config.a3,
        }
    }

    /// Samples the set of clients requesting service this round.
    pub fn arrivals(&self, reputation: f64, rng: &mut StdRng) -> Vec<ClientId> {
        self.client_ids()
            .filter(|&c| rng.random::<f64>() < self.arrival_probability(c, reputation))
            .collect()
    }

    /// Number of clients that have never been served.
    pub fn never_served(&self) -> u64 {
        self.size - self.experience.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_probability_by_class() {
        let mut pop = ClientPopulation::new(10, ClientArrivalConfig::default());
        let fresh = ClientId::new(0);
        assert!((pop.arrival_probability(fresh, 0.8) - 0.4).abs() < 1e-12);
        pop.record(fresh, true);
        assert!((pop.arrival_probability(fresh, 0.8) - 0.9).abs() < 1e-12);
        pop.record(fresh, false);
        assert!((pop.arrival_probability(fresh, 0.8) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn new_client_arrival_scales_with_reputation() {
        let pop = ClientPopulation::new(2000, ClientArrivalConfig::default());
        let mut rng = hp_stats::seeded_rng(7);
        let low = pop.arrivals(0.2, &mut rng).len() as f64 / 2000.0;
        let high = pop.arrivals(1.0, &mut rng).len() as f64 / 2000.0;
        assert!((low - 0.1).abs() < 0.03, "low-rep arrival rate {low}");
        assert!((high - 0.5).abs() < 0.04, "high-rep arrival rate {high}");
    }

    #[test]
    fn burned_clients_rarely_return() {
        let mut pop = ClientPopulation::new(500, ClientArrivalConfig::default());
        for c in pop.client_ids().collect::<Vec<_>>() {
            pop.record(c, false);
        }
        let mut rng = hp_stats::seeded_rng(8);
        let rate = pop.arrivals(1.0, &mut rng).len() as f64 / 500.0;
        assert!(
            (rate - 0.2).abs() < 0.05,
            "bad-experience arrival rate {rate}"
        );
        assert_eq!(pop.never_served(), 0);
    }

    #[test]
    fn experience_defaults_to_never() {
        let pop = ClientPopulation::new(3, ClientArrivalConfig::default());
        assert_eq!(pop.experience(ClientId::new(2)), Experience::Never);
        assert_eq!(pop.never_served(), 3);
    }
}
