//! Regenerates Fig. 4: attacker cost vs initial history, weighted function.
use hp_experiments::figures::{attack_cost, emit};
use hp_experiments::RunMode;

fn main() {
    let mode = RunMode::from_args();
    let tables =
        attack_cost::run(mode, attack_cost::TrustKind::Weighted).expect("fig4 experiment failed");
    emit("fig4", &tables).expect("writing fig4 output failed");
}
