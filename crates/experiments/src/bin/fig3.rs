//! Regenerates Fig. 3: attacker cost vs initial history, average function.
use hp_experiments::figures::{attack_cost, emit};
use hp_experiments::RunMode;

fn main() {
    let mode = RunMode::from_args();
    let tables =
        attack_cost::run(mode, attack_cost::TrustKind::Average).expect("fig3 experiment failed");
    emit("fig3", &tables).expect("writing fig3 output failed");
}
