//! Periodic attackers (§3 and §5.3).

use crate::behavior::{BehaviorContext, ServerBehavior};
use rand::rngs::StdRng;
use rand::RngExt;

/// The periodic attack: "Every time the attacker successfully achieved a
/// cover reputation T₁, he will launch attacks until his trust value drops
/// to T₂. Then he will provide some good services again to re-build his
/// reputation."
///
/// # Examples
///
/// ```
/// use hp_sim::attacker::PeriodicAttacker;
/// use hp_sim::{BehaviorContext, ServerBehavior};
/// use hp_core::{TransactionHistory, TrustValue};
///
/// let mut attacker = PeriodicAttacker::new(0.95, 0.9, 0.98);
/// let history = TransactionHistory::new();
/// let mut rng = hp_stats::seeded_rng(1);
/// // Trust above T₁: attack.
/// let ctx = BehaviorContext { history: &history, trust: TrustValue::new(0.96)?, time: 0 };
/// assert!(!attacker.next_outcome(&ctx, &mut rng));
/// // Trust fell to T₂: rebuild.
/// let ctx = BehaviorContext { history: &history, trust: TrustValue::new(0.89)?, time: 1 };
/// assert!(attacker.next_outcome(&ctx, &mut rng));
/// # Ok::<(), hp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicAttacker {
    t1: f64,
    t2: f64,
    rebuild_p: f64,
    attacking: bool,
}

impl PeriodicAttacker {
    /// Creates a periodic attacker with cover reputation `t1`, attack
    /// floor `t2 < t1`, and honest-mimicry quality `rebuild_p` during
    /// rebuild phases.
    ///
    /// # Panics
    ///
    /// Panics if `t2 >= t1` — the cycle would never terminate.
    pub fn new(t1: f64, t2: f64, rebuild_p: f64) -> Self {
        assert!(t2 < t1, "periodic attacker needs T2 ({t2}) < T1 ({t1})");
        PeriodicAttacker {
            t1: t1.clamp(0.0, 1.0),
            t2: t2.clamp(0.0, 1.0),
            rebuild_p: rebuild_p.clamp(0.0, 1.0),
            attacking: false,
        }
    }

    /// Whether the attacker is currently in an attack phase.
    pub fn is_attacking(&self) -> bool {
        self.attacking
    }
}

impl ServerBehavior for PeriodicAttacker {
    fn next_outcome(&mut self, ctx: &BehaviorContext<'_>, rng: &mut StdRng) -> bool {
        let trust = ctx.trust.value();
        if self.attacking {
            if trust <= self.t2 {
                self.attacking = false;
            }
        } else if trust >= self.t1 {
            self.attacking = true;
        }
        if self.attacking {
            false
        } else {
            rng.random::<f64>() < self.rebuild_p
        }
    }

    fn name(&self) -> &'static str {
        "periodic"
    }
}

/// The Fig. 7 attacker: launches exactly `⌊N·attack_rate⌋` attacks at
/// uniformly random positions inside every window of `N` transactions,
/// keeping its long-run reputation at `1 − attack_rate`.
///
/// For small `N` the pattern is rigidly regular (every `m`-window has the
/// same count) and easy to detect; as `N` grows the placement converges to
/// a Bernoulli stream and detection falls — the trade-off Fig. 7 plots.
#[derive(Debug, Clone)]
pub struct WindowedPeriodicAttacker {
    window: usize,
    attacks_per_window: usize,
    /// Positions (offsets in the current window) chosen to be attacks.
    planned: Vec<usize>,
    offset: usize,
}

impl WindowedPeriodicAttacker {
    /// Creates an attacker with attack window `window` and attack rate
    /// `attack_rate` (the paper uses 0.1).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `attack_rate ∉ [0, 1]`.
    pub fn new(window: usize, attack_rate: f64) -> Self {
        assert!(window > 0, "attack window must be positive");
        assert!(
            (0.0..=1.0).contains(&attack_rate),
            "attack rate must be a probability, got {attack_rate}"
        );
        WindowedPeriodicAttacker {
            window,
            attacks_per_window: (window as f64 * attack_rate).floor() as usize,
            planned: Vec::new(),
            offset: 0,
        }
    }

    /// The attack window size `N`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Attacks launched inside each window.
    pub fn attacks_per_window(&self) -> usize {
        self.attacks_per_window
    }

    fn plan_window(&mut self, rng: &mut StdRng) {
        self.planned.clear();
        // Sample `attacks_per_window` distinct offsets in [0, window).
        while self.planned.len() < self.attacks_per_window {
            let pos = rng.random_range(0..self.window);
            if !self.planned.contains(&pos) {
                self.planned.push(pos);
            }
        }
    }
}

impl ServerBehavior for WindowedPeriodicAttacker {
    fn next_outcome(&mut self, _ctx: &BehaviorContext<'_>, rng: &mut StdRng) -> bool {
        if self.offset == 0 {
            self.plan_window(rng);
        }
        let attack = self.planned.contains(&self.offset);
        self.offset = (self.offset + 1) % self.window;
        !attack
    }

    fn name(&self) -> &'static str {
        "windowed-periodic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_core::{TransactionHistory, TrustValue};

    fn ctx(history: &TransactionHistory, trust: f64) -> BehaviorContext<'_> {
        BehaviorContext {
            history,
            trust: TrustValue::new(trust).unwrap(),
            time: 0,
        }
    }

    #[test]
    #[should_panic(expected = "T2")]
    fn periodic_rejects_inverted_bounds() {
        let _ = PeriodicAttacker::new(0.9, 0.95, 1.0);
    }

    #[test]
    fn periodic_cycles_between_phases() {
        let mut a = PeriodicAttacker::new(0.95, 0.9, 1.0);
        let h = TransactionHistory::new();
        let mut rng = hp_stats::seeded_rng(2);
        // Starts rebuilding.
        assert!(a.next_outcome(&ctx(&h, 0.5), &mut rng));
        assert!(!a.is_attacking());
        // Reaches T1 → attacks.
        assert!(!a.next_outcome(&ctx(&h, 0.95), &mut rng));
        assert!(a.is_attacking());
        // Still above T2 → keeps attacking.
        assert!(!a.next_outcome(&ctx(&h, 0.92), &mut rng));
        // Hits T2 → rebuilds again.
        assert!(a.next_outcome(&ctx(&h, 0.90), &mut rng));
        assert!(!a.is_attacking());
    }

    #[test]
    fn windowed_exact_attack_count_per_window() {
        let mut a = WindowedPeriodicAttacker::new(20, 0.1);
        assert_eq!(a.attacks_per_window(), 2);
        let h = TransactionHistory::new();
        let c = ctx(&h, 0.95);
        let mut rng = hp_stats::seeded_rng(3);
        for w in 0..50 {
            let bad = (0..20).filter(|_| !a.next_outcome(&c, &mut rng)).count();
            assert_eq!(bad, 2, "window {w}");
        }
    }

    #[test]
    fn windowed_positions_vary_between_windows() {
        let mut a = WindowedPeriodicAttacker::new(40, 0.1);
        let h = TransactionHistory::new();
        let c = ctx(&h, 0.95);
        let mut rng = hp_stats::seeded_rng(4);
        let mut patterns = std::collections::HashSet::new();
        for _ in 0..20 {
            let pattern: Vec<bool> = (0..40).map(|_| a.next_outcome(&c, &mut rng)).collect();
            patterns.insert(pattern);
        }
        assert!(patterns.len() > 5, "attack placement must be randomized");
    }

    #[test]
    fn windowed_zero_rate_never_attacks() {
        let mut a = WindowedPeriodicAttacker::new(10, 0.0);
        let h = TransactionHistory::new();
        let c = ctx(&h, 0.95);
        let mut rng = hp_stats::seeded_rng(5);
        assert!((0..100).all(|_| a.next_outcome(&c, &mut rng)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn windowed_rejects_zero_window() {
        let _ = WindowedPeriodicAttacker::new(0, 0.1);
    }
}
