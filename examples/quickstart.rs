//! Quickstart: screen a server's history, then compute its trust value.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use honest_players::prelude::*;
use honest_players::sim::workload;

fn main() -> Result<(), CoreError> {
    // The two-phase pipeline with the paper's defaults: window size m = 10,
    // 95% confidence L¹ screening, multi-testing over every suffix, and the
    // λ = 0.5 weighted trust function.
    let assessor = TwoPhaseAssessor::new(
        MultiBehaviorTest::new(BehaviorTestConfig::default())?,
        WeightedTrust::new(0.5)?,
    );

    // Three servers with identical *ratios* of good transactions but very
    // different behavior patterns.
    let histories = [
        (
            "honest player (p = 0.9)",
            workload::honest_history(1000, 0.9, 7),
        ),
        (
            "hibernating attacker (clean prep, then a spree)",
            workload::hibernating_history(900, 0.995, 95, 7),
        ),
        (
            "periodic attacker (1 bad per 10, metronome)",
            workload::periodic_history(1000, 10, 0.1, 7),
        ),
    ];

    for (label, history) in &histories {
        let p_hat = history.p_hat().unwrap_or_default();
        print!("{label:55} p̂ = {p_hat:.3}  →  ");
        match assessor.assess(history)? {
            Assessment::Accepted { trust, .. } => {
                println!("ACCEPTED, trust = {trust}");
            }
            Assessment::Rejected { report } => {
                println!("REJECTED as {} by phase 1", report.outcome());
            }
            Assessment::NeedsReview { trust, .. } => {
                println!("needs review (short history), provisional trust = {trust}");
            }
        }
    }

    println!(
        "\nAll three servers have ≈90% positive feedback. A trust function \
         alone would rate them identically; the behavior test tells them apart."
    );
    Ok(())
}
