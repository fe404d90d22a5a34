//! Regenerates Fig. 5: cost of attackers with collusion, average function.
use hp_experiments::figures::{attack_cost, collusion_cost, emit};
use hp_experiments::RunMode;

fn main() {
    let mode = RunMode::from_args();
    let tables =
        collusion_cost::run(mode, attack_cost::TrustKind::Average).expect("fig5 experiment failed");
    emit("fig5", &tables).expect("writing fig5 output failed");
}
