//! Collusion forensics: a seller boosted by a five-account clique looks
//! spotless to chronological tests, and falls apart the moment feedback is
//! re-ordered by issuer (§4 of the paper).
//!
//! ```text
//! cargo run --example collusion_forensics
//! ```

use honest_players::prelude::*;
use honest_players::sim::workload;
use honest_players::testing::CollusionResilientTest;
use honest_players::TransactionHistory;

fn main() -> Result<(), CoreError> {
    let config = BehaviorTestConfig::default();
    let chronological = SingleBehaviorTest::new(config.clone())?;
    let reordered = CollusionResilientTest::new(config)?;

    // A colluder-fed storefront that *interleaves* its shilling: around
    // every organic customer (usually cheated), the 5-account clique files
    // five-star reviews at random moments. Chronologically each
    // transaction is good with the same i.i.d. probability ≈ 0.91 — a
    // textbook honest player as far as time-ordered windows can tell.
    let mut shill_shop = TransactionHistory::new();
    let mut rng = honest_players::stats::seeded_rng(11);
    use rand::RngExt;
    for t in 0..900u64 {
        let fb = if rng.random::<f64>() < 0.1 {
            // An organic customer; only 1 in 10 of them gets real service.
            let served = rng.random::<f64>() < 0.1;
            Feedback::new(
                t,
                ServerId::new(1),
                ClientId::new(1_000 + t),
                Rating::from_good(served),
            )
        } else {
            Feedback::new(
                t,
                ServerId::new(1),
                ClientId::new(rng.random_range(0..5)),
                Rating::Positive,
            )
        };
        shill_shop.push(fb);
    }
    // An honest shop with the same overall rating, organic clientele.
    let p_match = shill_shop.p_hat().unwrap();
    let honest_shop = workload::honest_history(900, p_match, 12);

    println!(
        "Both shops have ≈{:.1}% positive feedback.\n",
        p_match * 100.0
    );

    for (name, history) in [
        ("shill-boosted shop", &shill_shop),
        ("honest shop", &honest_shop),
    ] {
        let chrono = chronological.evaluate(history)?.outcome();
        let collusion = reordered.evaluate_detailed(history)?;
        println!("{name}:");
        println!("  chronological single test : {chrono}");
        println!("  issuer-reordered test     : {}", collusion.outcome);
        let sb = collusion.supporter_base;
        println!(
            "  supporter base            : {} distinct clients, top-5 issuers hold {:.0}% of feedback",
            sb.distinct_clients,
            sb.top5_share * 100.0
        );
        if let Some(failure) = collusion.reordered.first_failure() {
            let r = &failure.report;
            println!(
                "  first failing suffix      : {} transactions (distance {:.3} > ε {:.3})",
                failure.suffix_len,
                r.distance.unwrap_or_default(),
                r.threshold.unwrap_or_default()
            );
        }
        println!();
    }

    println!(
        "The chronological test can be fooled: colluder praise is interleaved \
         with real transactions, so the time-ordered window counts still look \
         binomial. Grouping feedback by issuer concentrates the clique's \
         perfect ratings into one run — no binomial fits both that run and \
         the mistreated organic tail."
    );
    Ok(())
}
