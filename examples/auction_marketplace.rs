//! An online-auction marketplace (the paper's motivating scenario):
//! a central feedback server, a mixed population of sellers, and a buyer
//! that screens every seller before bidding.
//!
//! ```text
//! cargo run --example auction_marketplace
//! ```

use honest_players::prelude::*;
use honest_players::sim::attacker::{HibernatingAttacker, PeriodicAttacker};
use honest_players::sim::{HonestBehavior, ServerBehavior, Simulation, SimulationConfig};
use honest_players::store::MemoryStore;

fn main() -> Result<(), CoreError> {
    // --- 1. A season of trading ------------------------------------------
    // Sellers of every stripe transact; all feedback lands in the
    // marketplace's central store.
    let mut store = MemoryStore::new();

    let sellers: Vec<(&str, Box<dyn ServerBehavior>)> = vec![
        (
            "alice (reliable, slow postal office)",
            Box::new(HonestBehavior::new(0.93)?),
        ),
        (
            "bob (excellent fulfilment)",
            Box::new(HonestBehavior::new(0.99)?),
        ),
        (
            "carol (mediocre but honest)",
            Box::new(HonestBehavior::new(0.80)?),
        ),
        (
            "dave (hibernating scammer)",
            Box::new(HibernatingAttacker::new(0.95, 0.98)),
        ),
        (
            "erin (periodic scammer)",
            Box::new(PeriodicAttacker::new(0.95, 0.90, 1.0)),
        ),
    ];

    for (i, (_, behavior)) in sellers.into_iter().enumerate() {
        let server = ServerId::new(i as u64);
        let outcome = Simulation::new(
            behavior,
            AverageTrust::default(),
            SimulationConfig {
                rounds: 1200,
                server,
                clients: 200,
                seed: 0xA0C + i as u64,
            },
        )
        .run();
        for fb in outcome.history.iter() {
            store.append(*fb);
        }
    }

    // --- 2. A buyer evaluates every seller --------------------------------
    let assessor = TwoPhaseAssessor::new(
        MultiBehaviorTest::new(BehaviorTestConfig::default())?,
        AverageTrust::default(),
    );
    let names = [
        "alice (reliable, slow postal office)",
        "bob (excellent fulfilment)",
        "carol (mediocre but honest)",
        "dave (hibernating scammer)",
        "erin (periodic scammer)",
    ];

    println!("{:40} {:>7} {:>9}  verdict", "seller", "p̂", "n");
    println!("{}", "-".repeat(75));
    for (i, name) in names.iter().enumerate() {
        let history = store.history_of(ServerId::new(i as u64));
        let p_hat = history.p_hat().unwrap_or_default();
        let assessment = assessor.assess(&history)?;
        let verdict = match &assessment {
            Assessment::Accepted { trust, .. } => format!("deal (trust {trust})"),
            Assessment::Rejected { .. } => "DO NOT TRADE — gaming the system".to_string(),
            Assessment::NeedsReview { .. } => "new seller — manual review".to_string(),
        };
        println!(
            "{:40} {:>7.3} {:>9}  {}",
            name,
            p_hat,
            history.len(),
            verdict
        );
    }

    println!(
        "\nNote carol: a *mediocre* seller is still an honest player — her \
         failures are random, so she passes screening and her (low) trust \
         value speaks for itself. The scammers' ratios look better than \
         hers, and they are rejected anyway."
    );
    Ok(())
}
