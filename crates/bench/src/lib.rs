//! The measurement harness the five `benches/*.rs` share.
//!
//! Hand-rolled so the results are machine-readable: each bench times its
//! routines into [`Row`]s, prints them with [`print_rows`] and writes them
//! with [`write_json`] to `experiments/out/bench_<name>.json` (override
//! the directory with `HP_BENCH_OUT`), next to whatever extra objects
//! (`gate`, `resident`, `tiered`) it reports. Each bench asserts its own
//! gate: it reads its committed baseline in `experiments/baselines/` with
//! [`Baseline`], prints each check as a `gate:` line through [`at_most`]
//! or [`at_least`], and panics on the first one that fails.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The timings of one routine.
pub struct Row {
    /// Row name, `group/variant`.
    pub name: String,
    /// Timed samples taken.
    pub samples: usize,
    /// Records (work units) handled per sample; 0 = not a per-record
    /// metric.
    pub records: u64,
    /// Mean over the samples.
    pub mean_ns: u128,
    /// Median sample.
    pub p50_ns: u128,
    /// 99th-percentile sample.
    pub p99_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
}

impl Row {
    /// Collects percentile stats over per-sample nanoseconds.
    pub fn from_samples(name: &str, records: u64, mut ns: Vec<u128>) -> Row {
        ns.sort_unstable();
        let p = |q: f64| ns[((ns.len() - 1) as f64 * q).round() as usize];
        Row {
            name: name.to_string(),
            samples: ns.len(),
            records,
            mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
            p50_ns: p(0.50),
            p99_ns: p(0.99),
            min_ns: ns[0],
        }
    }

    /// Nanoseconds per record from the mean sample.
    pub fn per_record_ns(&self) -> f64 {
        self.mean_ns as f64 / self.records as f64
    }

    /// Nanoseconds per record from the *minimum* sample — the least noisy
    /// estimate on a shared box, and what the perf gates key on.
    pub fn min_ns_per_record(&self) -> f64 {
        self.min_ns as f64 / self.records as f64
    }
}

/// Times `routine` `samples` times (after one warm-up call).
pub fn measure<O>(name: &str, samples: usize, records: u64, mut routine: impl FnMut() -> O) -> Row {
    black_box(routine());
    let ns = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(routine());
            t0.elapsed().as_nanos()
        })
        .collect();
    Row::from_samples(name, records, ns)
}

/// Like [`measure`], but the routine times its own interesting span, so
/// per-sample setup and teardown stay outside the measurement.
pub fn measure_span(
    name: &str,
    samples: usize,
    records: u64,
    mut routine: impl FnMut() -> Duration,
) -> Row {
    routine();
    let ns = (0..samples).map(|_| routine().as_nanos()).collect();
    Row::from_samples(name, records, ns)
}

/// A duration in the largest unit that keeps it above 1.
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Prints one line per row, with both per-record figures where a row has
/// records.
pub fn print_rows(rows: &[Row]) {
    println!();
    for row in rows {
        let per_record = if row.records > 0 {
            format!(
                "  ({:.2}ns/record mean, {:.2} min)",
                row.per_record_ns(),
                row.min_ns_per_record()
            )
        } else {
            String::new()
        };
        println!(
            "{:<40} {:>4} samples  mean {}  p50 {}  p99 {}{per_record}",
            row.name,
            row.samples,
            fmt_ns(row.mean_ns),
            fmt_ns(row.p50_ns),
            fmt_ns(row.p99_ns),
        );
    }
}

/// Where bench output goes: `HP_BENCH_OUT`, or the workspace's
/// `experiments/out` like the figure binaries (cargo runs benches with
/// the package as cwd). Created if missing.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("HP_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments/out"));
    std::fs::create_dir_all(&dir).expect("create bench output dir");
    dir
}

/// Writes `{"rows": [...], <sections>}` to `bench_<bench>.json` in
/// [`out_dir`]; `sections` is the bench's own `"key": {...}` objects,
/// comma-separated.
pub fn write_json(bench: &str, rows: &[Row], sections: &str) {
    let mut json = String::from("{\"rows\":[\n");
    for (i, row) in rows.iter().enumerate() {
        let per_record = if row.records > 0 {
            format!(
                ",\"per_record_ns\":{:.1},\"min_ns_per_record\":{:.3}",
                row.per_record_ns(),
                row.min_ns_per_record()
            )
        } else {
            String::new()
        };
        json.push_str(&format!(
            "  {{\"name\":\"{}\",\"samples\":{},\"records\":{},\"mean_ns\":{},\
             \"p50_ns\":{},\"p99_ns\":{},\"min_ns\":{}{per_record}}}{}\n",
            row.name,
            row.samples,
            row.records,
            row.mean_ns,
            row.p50_ns,
            row.p99_ns,
            row.min_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!("],\n{sections}}}\n"));
    let out = out_dir().join(format!("bench_{bench}.json"));
    std::fs::write(&out, json).expect("write bench json");
    println!("\nwrote {}", out.display());
}

/// A committed baseline, `experiments/baselines/bench_<bench>_baseline.json`.
pub struct Baseline {
    file: PathBuf,
    json: String,
}

impl Baseline {
    /// Reads `bench`'s baseline.
    pub fn read(bench: &str) -> Baseline {
        let file = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../../experiments/baselines/bench_{bench}_baseline.json"
        ));
        let json = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        Baseline { file, json }
    }

    /// The number after `"key":`, compact or pretty-printed. Panics,
    /// naming the file and the key, when the key is missing.
    pub fn get(&self, key: &str) -> f64 {
        let file = self.file.display();
        let Some((_, rest)) = self.json.split_once(&format!("\"{key}\":")) else {
            panic!("no \"{key}\" in {file}");
        };
        let value = rest.split([',', '}']).next().unwrap_or_default();
        let Ok(value) = value.trim().parse() else {
            panic!("\"{key}\" in {file} is not a number");
        };
        value
    }
}

/// Prints the check `got <= ceiling` as a `gate:` line, then panics
/// naming `what` if it fails.
pub fn at_most(what: &str, got: f64, ceiling: f64) {
    gate(what, got, "<=", ceiling, got <= ceiling);
}

/// Prints and checks `got >= floor`, as [`at_most`] does.
pub fn at_least(what: &str, got: f64, floor: f64) {
    gate(what, got, ">=", floor, got >= floor);
}

fn gate(what: &str, got: f64, op: &str, bound: f64, holds: bool) {
    let short = |x: f64| (x * 1e3).round() / 1e3;
    println!("gate: {what} {} {op} {}", short(got), short(bound));
    assert!(holds, "gate failed: {what} {got} {op} {bound}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(json: &str) -> Baseline {
        let (file, json) = ("bench_t_baseline.json".into(), json.into());
        Baseline { file, json }
    }

    #[test]
    fn reads_compact_pretty_printed_and_integer_values_by_whole_key() {
        assert_eq!(baseline(r#"{"k":2.0}"#).get("k"), 2.0);
        assert_eq!(baseline("{\n  \"k\": 2.5,\n  \"j\": 1\n}").get("k"), 2.5);
        assert_eq!(baseline(r#"{"gate":{"n":20000}}"#).get("n"), 20_000.0);
        // `"x"` is not read off the `"max_x"` before it.
        let tail = baseline(r#"{"max_x": 9.0, "x": 3}"#);
        assert_eq!((tail.get("x"), tail.get("max_x")), (3.0, 9.0));
    }

    #[test]
    #[should_panic(expected = "no \"y\" in bench_t_baseline.json")]
    fn a_missing_key_panics_naming_file_and_key() {
        baseline(r#"{"x": 1}"#).get("y");
    }
}
