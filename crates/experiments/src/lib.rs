//! # hp-experiments — the paper's evaluation, regenerated
//!
//! One module per figure of §5, and one binary that runs them by name:
//!
//! | Name | Paper figure | What it sweeps |
//! |--------|--------------|----------------|
//! | `fig3` | Fig. 3 | attacker cost vs prep size, average trust function |
//! | `fig4` | Fig. 4 | attacker cost vs prep size, weighted trust function |
//! | `fig5` | Fig. 5 | collusion attacker cost vs prep size, average |
//! | `fig6` | Fig. 6 | collusion attacker cost vs prep size, weighted |
//! | `fig7` | Fig. 7 | detection rate vs attack-window size |
//! | `fig8` | Fig. 8 | calibrated 95% L¹ threshold vs history size |
//! | `fig9` | Fig. 9 | behavior-testing running time vs history size |
//! | `ablation` | — | distance metric / correction / suffix-schedule ablations |
//! | `welfare` | — | marketplace-level client harm with and without screening |
//!
//! Run everything with `cargo run --release -p hp-experiments`, or name
//! figures: `cargo run --release -p hp-experiments -- fig3 fig7`. The
//! binary accepts `--fast` for a smoke-test-sized run (also used by the
//! integration tests) and writes a CSV next to each stdout table, under
//! `experiments/out` or the directory given after `--out`. A `--fast` run
//! is deterministic: `ci.sh` compares the CSVs of Figs. 3–8 byte for byte
//! with `experiments/baselines/fast/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod sweep;
pub mod table;

pub use sweep::{median, RunMode};
pub use table::Table;
