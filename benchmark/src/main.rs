//! `hp-benchmark`: see `README.md` for the metrics, the workloads and how
//! to read the output.
//!
//! ```text
//! hp-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!              [--repeat N] [--quick] [--out DIR]
//! hp-benchmark serve <hp-edge flags>      (the child; not for direct use)
//! ```

use hp_benchmark::report::{print_metrics, result_line};
use hp_benchmark::run::{run_workload, Options, RunReport};
use hp_benchmark::spec::{self, Shape, DEFAULT_SECONDS, END_TO_END, WORKLOADS};
use hp_benchmark::{child, est};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: hp-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                   [--repeat N] [--quick] [--out DIR]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

/// Prints one run and returns whether it is acceptable: output checks
/// passed and (outside `--quick`) no guard tripped.
fn print_report(report: &RunReport, opts: &Options) -> bool {
    println!(
        "== {} seed={} seconds={} {}",
        report.workload,
        opts.seed,
        opts.seconds,
        if opts.traced {
            "traced (per-layer)"
        } else {
            "end-to-end"
        }
    );
    print_metrics(&report.end_to_end);
    print_metrics(&report.per_layer);
    for failure in &report.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    for failure in &report.guard_failures {
        println!(
            "GUARD {}: {failure}",
            if opts.quick {
                "(not enforced with --quick)"
            } else {
                "FAILED"
            }
        );
    }
    for tripped in &report.window_guards {
        println!("WINDOW GUARD TRIPPED (its bench.* numbers are void): {tripped}");
    }
    println!(
        "attempted={} failed={} bench.error_ratio={}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let metrics = if opts.traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{}",
        result_line(report.correct, report.attempted, report.failed, metrics)
    );
    report.correct && (opts.quick || report.guard_failures.is_empty())
}

/// The numbers the issue wanted gated and this machine cannot repeat
/// (README.md, "What repeats here and what does not"): three from the
/// window, and the restart time.
const DEMOTED: [&str; 4] = [
    "bench.ingest_throughput_fps",
    "bench.assess_throughput_rps",
    "bench.assess_p50_ms",
    "bench.restart_s",
];

/// `--repeat N`: the full set N times, workload order reversed on
/// alternate passes, then every value, the median and the spread per
/// (workload, end-to-end metric), and the same without a bound for the
/// demoted numbers (the window's only from runs whose window guards held).
fn repeat(shapes: &[&'static Shape], opts: &Options, passes: usize) -> bool {
    let mut ok = true;
    let names: Vec<(&str, Option<f64>)> = END_TO_END
        .iter()
        .map(|m| (m.name, Some(m.bound)))
        .chain(DEMOTED.map(|name| (name, None)))
        .collect();
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); names.len()]; shapes.len()];
    for pass in 0..passes {
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        if pass % 2 == 1 {
            order.reverse();
        }
        for index in order {
            match run_workload(shapes[index], opts) {
                Ok(report) => {
                    ok &= print_report(&report, opts);
                    // A tripped window guard voids the run's window numbers.
                    let demoted = report.per_layer.iter().filter(|m| {
                        m.name == "bench.restart_s"
                            || (DEMOTED.contains(&m.name) && report.window_guards.is_empty())
                    });
                    for metric in report.end_to_end.iter().chain(demoted) {
                        let slot = names.iter().position(|(name, _)| *name == metric.name);
                        values[index][slot.expect("a listed metric")].push(metric.value);
                    }
                }
                Err(reason) => {
                    println!("RUN FAILED: {}: {reason}", shapes[index].name);
                    ok = false;
                }
            }
        }
    }
    println!("== A/A over {passes} passes: (max - min) / median per (workload, metric)");
    for (shape, per_metric) in shapes.iter().zip(&values) {
        for ((name, bound), runs) in names.iter().zip(per_metric) {
            let spread = est::spread(runs);
            let verdict = match bound {
                Some(bound) if spread > *bound => format!("bound {bound:.2} SPREAD EXCEEDS BOUND"),
                Some(bound) => format!("bound {bound:.2} ok"),
                None => "ungated".to_string(),
            };
            println!(
                "  {:<15} {:<28} median {:>14.4} spread {:.4} {verdict} values {:?}",
                shape.name,
                name,
                est::median(runs),
                spread,
                runs
            );
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        child::serve(&args[1..]);
    }
    let mut opts = Options {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut workload: Option<String> = None;
    let mut passes: Option<usize> = None;
    let mut argv = args.iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value().clone()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--repeat" => passes = Some(value().parse().unwrap_or_else(|_| usage())),
            "--quick" => opts.quick = true,
            "--out" => opts.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage();
    }
    let shapes: Vec<&'static Shape> = match &workload {
        Some(name) => vec![spec::workload(name).unwrap_or_else(|| usage())],
        None => WORKLOADS.iter().collect(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("hp-benchmark: cannot create {}: {e}", opts.out.display());
        std::process::exit(1);
    }
    let ok = match passes {
        Some(passes) => repeat(&shapes, &opts, passes),
        None => shapes
            .iter()
            .fold(true, |ok, shape| match run_workload(shape, &opts) {
                Ok(report) => print_report(&report, &opts) && ok,
                Err(reason) => {
                    // No result line: the run did not measure anything.
                    eprintln!("hp-benchmark: {}: {reason}", shape.name);
                    false
                }
            }),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
