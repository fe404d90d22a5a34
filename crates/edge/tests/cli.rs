//! The `hp-edge` command line: `--help` lists every flag the parser
//! accepts and every flag the README's `hp-edge` commands pass, a
//! configuration the service refuses exits at once with the reason, and
//! a malformed command line exits with the usage.

use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `hp-edge` with `args`, killing it if it is still running after
/// `limit`; returns its output and whether it exited on its own.
fn hp_edge(args: &[&str], limit: Duration) -> (Output, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hp-edge"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hp-edge");
    let started = Instant::now();
    let exited = loop {
        if child.try_wait().expect("poll hp-edge").is_some() {
            break true;
        }
        if started.elapsed() > limit {
            child.kill().expect("kill hp-edge");
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    (child.wait_with_output().expect("reap hp-edge"), exited)
}

fn help_text() -> String {
    let (out, exited) = hp_edge(&["--help"], Duration::from_secs(5));
    assert!(exited && out.status.success(), "--help: {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 help")
}

/// Every `"--flag"` literal in the binary's source: the flags its parser
/// matches on.
fn parsed_flags() -> Vec<String> {
    let source = include_str!("../src/bin/hp_edge.rs");
    let flags: Vec<String> = source
        .split('"')
        .filter(|token| {
            token.len() > 2
                && token.starts_with("--")
                && token[2..]
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        })
        .map(str::to_string)
        .collect();
    assert!(flags.len() >= 17, "found only {flags:?}");
    flags
}

#[test]
fn help_exits_zero_and_lists_every_flag() {
    let help = help_text();
    for flag in parsed_flags() {
        assert!(help.contains(&flag), "--help omits {flag}:\n{help}");
    }
    assert!(help.contains("--fsync never|batch"), "{help}");
}

#[test]
fn every_flag_the_readme_passes_to_hp_edge_exists() {
    let mut readme = String::new();
    std::fs::File::open(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .and_then(|mut f| f.read_to_string(&mut readme))
        .expect("read README.md");
    let help = help_text();
    let mut checked = 0;
    let mut continued = false;
    for line in readme.lines() {
        let args = match line.split_once("-p hp-edge --") {
            Some((_, args)) => Some(args),
            None if continued => Some(line),
            None => None,
        };
        continued = args.is_some() && line.trim_end().ends_with('\\');
        for flag in args.into_iter().flat_map(str::split_whitespace) {
            if flag.starts_with("--") {
                assert!(
                    help.contains(flag),
                    "README passes {flag}, which hp-edge lacks"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 10,
        "found only {checked} flags in README's hp-edge commands"
    );
}

#[test]
fn a_config_the_service_refuses_exits_at_once_with_the_reason() {
    let started = Instant::now();
    let (out, exited) = hp_edge(
        &["--addr", "127.0.0.1:0", "--shards", "0"],
        Duration::from_secs(5),
    );
    assert!(exited, "hp-edge kept running on an invalid config");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}",
        started.elapsed()
    );
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at least one shard"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing may bind: {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn removed_and_malformed_flags_exit_with_the_usage() {
    for args in [
        &["--snapshot-retain", "2"][..],
        &["--calibration-trials", "300"],
        &["--fsync", "every:5"],
    ] {
        let (out, exited) = hp_edge(args, Duration::from_secs(5));
        assert!(exited, "{args:?} kept running");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: hp-edge"),
            "{args:?}"
        );
    }
}
