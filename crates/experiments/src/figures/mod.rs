//! One module per paper figure. Every module exposes
//! `run(mode) -> Result<Vec<Table>, CoreError>`; [`FIGURES`] names each,
//! so the one binary stays thin and the integration tests can drive fast
//! variants.

pub mod ablation;
pub mod attack_cost;
pub mod collusion_cost;
pub mod detection;
pub mod distance_threshold;
pub mod performance;
pub mod welfare;

use crate::sweep::RunMode;
use crate::table::Table;
use attack_cost::TrustKind;
use hp_core::CoreError;
use std::path::Path;

/// How a figure is regenerated: its tables at the given run size.
pub type Figure = fn(RunMode) -> Result<Vec<Table>, CoreError>;

/// Every figure the harness regenerates, by name, in the order `all` runs
/// them.
pub const FIGURES: [(&str, Figure); 9] = [
    ("fig3", |mode| attack_cost::run(mode, TrustKind::Average)),
    ("fig4", |mode| attack_cost::run(mode, TrustKind::Weighted)),
    ("fig5", |mode| collusion_cost::run(mode, TrustKind::Average)),
    ("fig6", |mode| {
        collusion_cost::run(mode, TrustKind::Weighted)
    }),
    ("fig7", detection::run),
    ("fig8", distance_threshold::run),
    ("fig9", performance::run),
    ("ablation", ablation::run),
    ("welfare", welfare::run),
];

/// Prints tables and writes each as CSV under `dir`: `{slug}.csv` for
/// one table, `{slug}_{i}.csv` for several.
///
/// # Errors
///
/// Propagates I/O failures from CSV writing.
pub fn emit(dir: &Path, slug: &str, tables: &[Table]) -> std::io::Result<()> {
    for (i, table) in tables.iter().enumerate() {
        println!("{table}");
        let name = if tables.len() == 1 {
            format!("{slug}.csv")
        } else {
            format!("{slug}_{i}.csv")
        };
        let path = dir.join(name);
        table.write_csv(&path)?;
        println!("  → wrote {}\n", path.display());
    }
    Ok(())
}
