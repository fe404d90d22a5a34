//! Phase-1 kernel benchmarks: the `window_counts` sweep at the window
//! size everything runs (m = 10), and the fused multi-suffix sweep vs
//! per-suffix evaluation.
//!
//! Timed and written by the shared `hp_bench` harness into
//! `experiments/out/bench_phase1.json`. The JSON carries an
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

use hp_bench::{fmt_ns, measure, print_rows, write_json, Row};
use hp_core::history::BitColumn;
use hp_core::testing::{BehaviorTestConfig, MultiBehaviorTest, MultiTestMode};
use hp_core::{ClientId, Feedback, Rating, ServerId, TieredHistory};
use std::hint::black_box;

const N: usize = 10_000;
/// The paper's window size (§5), and the only one anything here runs.
const M: usize = 10;

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
fn history(n: usize) -> TieredHistory {
    let col = outcome_column(n);
    let mut h = TieredHistory::new();
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
fn bench_multi(rows: &mut Vec<Row>, history: &TieredHistory) -> usize {
    // Small calibration budget: the calibrator warms once before timing,
    // so the measured cost is the sweep + threshold lookups only.
    let config = BehaviorTestConfig::builder()
        .calibration_trials(200)
        .build()
        .unwrap();
    // The default mode runs the fused sweep at the default, aligned step.
    let fused = MultiBehaviorTest::new(config.clone()).unwrap();
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
    print_rows(&rows);

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

    let gate = format!(
        "\"gate\":{{\"kernel_ns_per_window\":{{\"m{M}\":{kernel_ns:.3}}},\
         \"multi_fused_over_naive\":{multi_ratio:.3},\
         \"multi_fused_ns_per_suffix\":{fused_ns_per_suffix:.1}}}"
    );
    write_json("phase1", &rows, &gate);
}
