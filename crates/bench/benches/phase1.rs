//! Phase-1 kernel benchmarks: the `window_counts` sweep at the window
//! size everything runs (m = 10), and the fused multi-suffix sweep vs
//! per-suffix evaluation.
//!
//! Hand-rolled like `history.rs` so the results are machine-readable:
//! rows print to stdout and land in `experiments/out/bench_phase1.json`
//! (override the directory with `HP_BENCH_OUT`). The JSON carries an
//! extra `gate` object — kernel ns/window and fused multi-test ns per
//! suffix tested, computed from the minimum sample for stability — which
//! `ci.sh` compares against the committed baseline in
//! `experiments/baselines/bench_phase1_baseline.json`.
//!
//! Shapes to look for:
//!
//! * `window_counts/m10` — the phase-1 hot loop on a 10 000-outcome
//!   column: one prefix read and one masked popcount per window;
//! * `multi_test/fused` vs `multi_test/per_suffix` — the end-to-end
//!   multi-suffix test. The fused sweep reads the column once for all
//!   suffixes; the per-suffix oracle re-derives counts for each, so the
//!   fused path must not lose. Their ratio *rises* when the step both
//!   share (model table, distance, threshold lookup) gets cheaper and
//!   falls when it gets dearer, so the gate also pins the fused path's
//!   absolute cost per suffix: that is the number a per-suffix allocation
//!   or a per-suffix lock would move.

use hp_core::history::BitColumn;
use hp_core::testing::{BehaviorTestConfig, MultiBehaviorTest, MultiTestMode};
use hp_core::{ClientId, ColumnarHistory, Feedback, Rating, ServerId};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const N: usize = 10_000;
/// The paper's window size (§5), and the only one anything here runs.
const M: usize = 10;

struct Row {
    name: String,
    samples: usize,
    /// Records handled per sample (0 = not a per-record metric).
    records: u64,
    mean_ns: u128,
    p50_ns: u128,
    p99_ns: u128,
    min_ns: u128,
}

impl Row {
    /// Nanoseconds per record from the *minimum* sample — the least noisy
    /// estimate on a shared box, and what the CI gate keys on.
    fn min_ns_per_record(&self) -> f64 {
        self.min_ns as f64 / self.records as f64
    }
}

/// Times `routine` `samples` times (after one warm-up call) and collects
/// percentile stats.
fn measure<O>(name: &str, samples: usize, records: u64, mut routine: impl FnMut() -> O) -> Row {
    black_box(routine());
    let mut ns: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(routine());
            t0.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    let p = |q: f64| ns[((ns.len() - 1) as f64 * q).round() as usize];
    Row {
        name: name.to_string(),
        samples,
        records,
        mean_ns: ns.iter().sum::<u128>() / ns.len() as u128,
        p50_ns: p(0.50),
        p99_ns: p(0.99),
        min_ns: ns[0],
    }
}

fn fmt_ns(ns: u128) -> String {
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

fn print_row(row: &Row) {
    let per_record = if row.records > 0 {
        format!("  ({:.2}ns/record min)", row.min_ns_per_record())
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

fn rows_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let per_record = if row.records > 0 {
            format!(",\"min_ns_per_record\":{:.3}", row.min_ns_per_record())
        } else {
            String::new()
        };
        out.push_str(&format!(
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
    out.push(']');
    out
}

/// A 10k-outcome column with a mixed bit pattern (roughly 80% good, no
/// short period) so popcounts see realistic word contents.
fn outcome_column(n: usize) -> BitColumn {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    BitColumn::from_bools((0..n).map(|_| {
        // SplitMix64 step; deterministic across runs.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 100 < 80
    }))
}

/// One server's worth of feedback sharing the column's outcome pattern.
fn history(n: usize) -> ColumnarHistory {
    let col = outcome_column(n);
    let mut h = ColumnarHistory::new();
    for t in 0..n {
        h.push(Feedback::new(
            t as u64,
            ServerId::new(1),
            ClientId::new(t as u64 % 23),
            Rating::from_good(col.get(t)),
        ));
    }
    h
}

fn bench_kernel(rows: &mut Vec<Row>, col: &BitColumn) {
    // Each sample runs the sweep BATCH times so the ~50ns timer cost is
    // amortized below 0.1ns/window.
    const BATCH: usize = 8;
    rows.push(measure(
        &format!("window_counts/m{M}"),
        400,
        (N / M * BATCH) as u64,
        || {
            for _ in 0..BATCH {
                black_box(col.window_counts(0, N, M).unwrap());
            }
        },
    ));
}

/// Returns the number of suffixes one evaluation tests.
fn bench_multi(rows: &mut Vec<Row>, history: &ColumnarHistory) -> usize {
    // Small calibration budget: the calibrator warms once before timing,
    // so the measured cost is the sweep + threshold lookups only.
    let config = BehaviorTestConfig::builder()
        .calibration_trials(200)
        .build()
        .unwrap();
    let fused = MultiBehaviorTest::new(config.clone())
        .unwrap()
        .with_mode(MultiTestMode::Optimized);
    let naive = MultiBehaviorTest::new(config)
        .unwrap()
        .with_mode(MultiTestMode::Naive);
    rows.push(measure("multi_test/fused", 50, N as u64, || {
        fused.evaluate_detailed(history).unwrap()
    }));
    rows.push(measure("multi_test/per_suffix", 50, N as u64, || {
        naive.evaluate_detailed(history).unwrap()
    }));
    fused.evaluate_detailed(history).unwrap().suffixes.len()
}

fn main() {
    let col = outcome_column(N);
    let hist = history(N);

    let mut rows = Vec::new();
    println!("phase-1 kernel benchmarks\n");
    bench_kernel(&mut rows, &col);
    let suffixes = bench_multi(&mut rows, &hist);
    println!();
    for row in &rows {
        print_row(row);
    }

    let row_named = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
    let kernel_ns = row_named(&format!("window_counts/m{M}")).min_ns_per_record();
    println!("\nm={M} kernel {kernel_ns:.2}ns/window");

    let fused = row_named("multi_test/fused");
    let per_suffix = row_named("multi_test/per_suffix");
    let multi_ratio = per_suffix.min_ns as f64 / fused.min_ns as f64;
    let fused_ns_per_suffix = fused.min_ns as f64 / suffixes as f64;
    println!(
        "multi-test: fused {} vs per-suffix {}  ({multi_ratio:.1}x); fused \
         {fused_ns_per_suffix:.1}ns per suffix over {suffixes} suffixes",
        fmt_ns(fused.min_ns),
        fmt_ns(per_suffix.min_ns),
    );
    assert!(
        multi_ratio >= 1.0,
        "fused multi-suffix sweep must not lose to the per-suffix oracle \
         ({multi_ratio:.2}x)"
    );

    // Cargo runs benches with the package as cwd; anchor the default
    // output at the workspace's experiments/out like the figure binaries.
    let out_dir = std::env::var("HP_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments/out")
        });
    std::fs::create_dir_all(&out_dir).expect("create bench output dir");
    let out = out_dir.join("bench_phase1.json");
    let payload = format!(
        "{{\"rows\":{},\n\"gate\":{{\"kernel_ns_per_window\":{{\"m{M}\":{kernel_ns:.3}}},\
         \"multi_fused_over_naive\":{multi_ratio:.3},\
         \"multi_fused_ns_per_suffix\":{fused_ns_per_suffix:.1}}}}}\n",
        rows_json(&rows)
    );
    std::fs::write(&out, payload).expect("write bench json");
    println!("wrote {}", out.display());
}
