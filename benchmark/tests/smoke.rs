//! `--quick` smoke of all four workloads through the real binary: child
//! boot, preload, window, output checks, SIGKILL + restart, clean-up.

use std::process::Command;
use std::time::Instant;

/// Runs the binary with `--out` under the target tmpdir; each test uses
/// its own directory because tests run concurrently.
fn run(out: &str, args: &[&str]) -> (bool, String) {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(out);
    let output = Command::new(env!("CARGO_BIN_EXE_hp-benchmark"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run hp-benchmark");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn quick_smoke_of_all_workloads_is_correct_and_fast() {
    // A previous, interrupted test run may have left files here.
    let _ = std::fs::remove_dir_all(
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out"),
    );
    let start = Instant::now();
    for workload in [
        "ingest_flood",
        "deep_assess",
        "steady_mix",
        "durable_tiered",
    ] {
        let (ok, stdout) = run(
            "smoke-out",
            &["--quick", "--workload", workload, "--seed", "11"],
        );
        let last = stdout.lines().last().unwrap_or_default();
        assert!(ok, "{workload} exited non-zero:\n{stdout}");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
        for metric in hp_benchmark::spec::END_TO_END {
            assert!(
                last.contains(&format!("\"{}\": {{\"value\": ", metric.name)),
                "{workload}: {last}"
            );
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(elapsed < 60.0, "quick smoke took {elapsed:.1} s");
    // Nothing is left behind but the cached reference calibration.
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let left: Vec<_> = std::fs::read_dir(&out)
        .expect("out dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name != "reference.hpcal")
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let (ok, stdout) = run(
        "traced-out",
        &[
            "--quick",
            "--workload",
            "durable_tiered",
            "--seed",
            "12",
            "--trace",
            "1",
        ],
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(ok, "traced run exited non-zero:\n{stdout}");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    for (name, unit, _) in hp_benchmark::spec::PER_LAYER {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "per-layer metric {name} ({unit}) missing from the traced result: {last}"
        );
    }
    for metric in hp_benchmark::spec::END_TO_END {
        assert!(!last.contains(&format!("\"{}\":", metric.name)), "{last}");
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let (ok, _) = run("usage-out", &["--workload", "no_such_workload"]);
    assert!(!ok);
}
