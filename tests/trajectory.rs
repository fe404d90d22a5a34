//! The benchmark trajectory at the repo root holds together: every
//! `BENCH_<pr>.json` names only workloads and rows `BENCHMARK.json`
//! declares, a file measured by its own PR gives every median its IQR,
//! and a claimed win clears the parent's IQR.
//!
//! The files are read as text (the workspace has no JSON parser and needs
//! none): one field a line, `"key": value,`, each row an object between a
//! `{` line and a `}` line inside `"rows": [`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The `"name"` of every `BENCHMARK.json` line that holds `marker`.
fn declared(text: &str, marker: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|line| line.contains(marker))
        .map(|line| (field(line, "name"), field(line, "better")))
        .collect()
}

/// The string value of `"key": "value"` on `line`, empty when absent.
fn field(line: &str, key: &str) -> String {
    let tag = format!("\"{key}\": \"");
    line.split_once(&tag)
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or_else(String::new, |(value, _)| value.to_string())
}

/// One `"key": value` line, the value without quotes or trailing comma.
fn key_value(line: &str) -> Option<(String, String)> {
    let (key, value) = line.split_once(": ")?;
    let key = key.trim().trim_matches('"').to_string();
    let value = value
        .trim()
        .trim_end_matches(',')
        .trim_matches('"')
        .to_string();
    Some((key, value))
}

type Fields = BTreeMap<String, String>;

/// A trajectory file: its top-level fields and its rows.
struct Trajectory {
    path: PathBuf,
    head: Fields,
    rows: Vec<Fields>,
}

impl Trajectory {
    fn read(path: &Path) -> Trajectory {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut head = Fields::new();
        let mut rows = Vec::new();
        let mut row: Option<Fields> = None;
        for line in text.lines().map(str::trim) {
            match line {
                "{" if head.contains_key("rows") => row = Some(Fields::new()),
                "}" | "}," if row.is_some() => rows.extend(row.take()),
                _ => {
                    let Some((key, value)) = key_value(line) else {
                        continue;
                    };
                    row.as_mut().unwrap_or(&mut head).insert(key, value);
                }
            }
        }
        Trajectory {
            path: path.to_path_buf(),
            head,
            rows,
        }
    }

    fn transcribed(&self) -> bool {
        self.head.get("source").map(String::as_str) == Some("CHANGES.md")
    }
}

fn number(row: &Fields, key: &str) -> Option<f64> {
    let value = row.get(key)?;
    (value != "null").then(|| {
        value
            .parse()
            .unwrap_or_else(|e| panic!("{key} = {value}: {e}"))
    })
}

/// `[lo, hi]`, or `None` for `null` or an absent field.
fn iqr(row: &Fields, key: &str) -> Option<(f64, f64)> {
    let value = row.get(key)?;
    if value == "null" {
        return None;
    }
    let (lo, hi) = value
        .trim_matches(['[', ']'])
        .split_once(", ")
        .unwrap_or_else(|| panic!("{key} = {value}: not [lo, hi]"));
    let parse = |s: &str| -> f64 { s.parse().unwrap_or_else(|e| panic!("{key} = {value}: {e}")) };
    Some((parse(lo), parse(hi)))
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn trajectories() -> Vec<Trajectory> {
    let mut found: Vec<Trajectory> = fs::read_dir(root())
        .expect("repo root")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .map(|path| Trajectory::read(&path))
        .collect();
    found.sort_by(|a, b| a.path.cmp(&b.path));
    assert!(!found.is_empty(), "no BENCH_<pr>.json at the repo root");
    found
}

#[test]
fn every_file_is_named_for_its_pr_and_has_rows() {
    for t in trajectories() {
        let name = t.path.file_name().unwrap().to_string_lossy().into_owned();
        let pr = t.head.get("pr").map(String::as_str).unwrap_or("");
        assert_eq!(name, format!("BENCH_{pr}.json"), "its \"pr\" field");
        assert!(!t.rows.is_empty(), "{name}: no rows");
        for row in &t.rows {
            for key in ["workload", "metric", "parent_median", "change_median"] {
                assert!(
                    row.contains_key(key),
                    "{name}: a row without {key}: {row:?}"
                );
            }
        }
    }
}

#[test]
fn every_row_is_a_workload_and_metric_the_benchmark_declares() {
    let spec = fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = declared(&spec, "\"why\"");
    let metrics = declared(&spec, "\"better\"");
    assert_eq!(workloads.len(), 4, "the four workloads");
    for t in trajectories() {
        for row in &t.rows {
            assert!(
                workloads.contains_key(&row["workload"]),
                "{}: undeclared workload {}",
                t.path.display(),
                row["workload"]
            );
            assert!(
                metrics.contains_key(&row["metric"]),
                "{}: undeclared row {}",
                t.path.display(),
                row["metric"]
            );
        }
    }
}

#[test]
fn a_measured_file_gives_every_median_its_iqr() {
    for t in trajectories() {
        for row in &t.rows {
            for side in ["parent", "change"] {
                let median = number(row, &format!("{side}_median"));
                let quartiles = iqr(row, &format!("{side}_iqr"));
                if let (Some(median), Some((lo, hi))) = (median, quartiles) {
                    assert!(
                        lo <= median && median <= hi,
                        "{}: {} {side} median {median} outside [{lo}, {hi}]",
                        t.path.display(),
                        row["metric"]
                    );
                }
                if !t.transcribed() {
                    assert!(
                        median.is_some() && quartiles.is_some(),
                        "{}: {} on {}: a {side} median without its IQR",
                        t.path.display(),
                        row["metric"],
                        row["workload"]
                    );
                }
            }
        }
    }
}

#[test]
fn a_claimed_win_clears_the_parents_iqr() {
    let spec = fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let better = declared(&spec, "\"better\"");
    for t in trajectories() {
        for row in t
            .rows
            .iter()
            .filter(|r| r.get("claimed").map(String::as_str) == Some("true"))
        {
            let at = format!(
                "{}: {} on {}",
                t.path.display(),
                row["metric"],
                row["workload"]
            );
            let parent = number(row, "parent_median").expect("parent median");
            let change = number(row, "change_median").expect("change median");
            let (lo, hi) = iqr(row, "parent_iqr").unwrap_or_else(|| panic!("{at}: no parent IQR"));
            let gain = match better[&row["metric"]].as_str() {
                "lower" => parent - change,
                _ => change - parent,
            };
            assert!(
                gain > hi - lo,
                "{at}: a claimed win of {gain} inside the parent's IQR [{lo}, {hi}]"
            );
        }
    }
}
