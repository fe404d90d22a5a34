//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! hp-experiments [FIGURE...] [--fast] [--out DIR]
//! ```
//!
//! `FIGURE` is one of `fig3` … `fig9`, `ablation`, `welfare`, or `all`;
//! with none, every figure runs in order. `--fast` is the smoke-test size,
//! `--out` the CSV directory (default `experiments/out`).

use hp_experiments::figures::{emit, FIGURES};
use hp_experiments::RunMode;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut mode = RunMode::Full;
    let mut out = PathBuf::from("experiments/out");
    let mut figures = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => mode = RunMode::Fast,
            "--out" => match args.next() {
                Some(dir) => out = dir.into(),
                None => return usage("--out needs a directory"),
            },
            "all" => figures.extend(FIGURES),
            name => match FIGURES.iter().find(|(known, _)| *known == name) {
                Some(&figure) => figures.push(figure),
                None => return usage(&format!("unknown argument `{name}`")),
            },
        }
    }
    if figures.is_empty() {
        figures.extend(FIGURES);
    }
    for (name, run) in figures {
        println!("running {name} …");
        let tables = run(mode).unwrap_or_else(|e| panic!("{name} experiment failed: {e}"));
        emit(&out, name, &tables).unwrap_or_else(|e| panic!("writing {name} output failed: {e}"));
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("hp-experiments: {problem}");
    eprintln!("usage: hp-experiments [FIGURE...] [--fast] [--out DIR]");
    eprintln!("  FIGURE: {} or all (default: all)", names.join(", "));
    ExitCode::from(2)
}
