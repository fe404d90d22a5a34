//! One module per paper figure. Every module exposes
//! `run(mode) -> Result<Vec<Table>, CoreError>` so the binaries stay thin
//! and the integration tests can drive fast variants.

pub mod ablation;
pub mod attack_cost;
pub mod collusion_cost;
pub mod detection;
pub mod distance_threshold;
pub mod performance;
pub mod welfare;

use crate::table::Table;
use std::path::PathBuf;

/// Output directory for CSV artifacts: the value after `--out` on the
/// command line, `experiments/out` when the flag is absent.
///
/// # Errors
///
/// `--out` as the last argument, with no directory after it.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--out" {
            return args.next().map(PathBuf::from).ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "--out needs a directory")
            });
        }
    }
    Ok(PathBuf::from("experiments/out"))
}

/// Prints tables and writes each as CSV under [`out_dir`].
///
/// # Errors
///
/// Propagates [`out_dir`]'s and I/O failures from CSV writing.
pub fn emit(slug: &str, tables: &[Table]) -> std::io::Result<()> {
    let dir = out_dir()?;
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
