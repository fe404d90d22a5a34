//! Phase-1 kernel benchmarks: the `window_counts` sweep at the window
//! size everything runs (m = 10), and the fused multi-suffix sweep vs
//! per-suffix evaluation.
//!
//! Timed and written by the shared `hp_bench` harness into
//! `experiments/out/bench_phase1.json`. The JSON carries an extra `gate`
//! object: the work one multi-test verdict does at n = 20 000, counted —
//! windows scanned and threshold lookups per suffix tested, for the
//! fused and the per-suffix path, and the per-suffix path's windows over
//! the fused one's. The bench itself holds those counts to the committed
//! `experiments/baselines/bench_phase1_baseline.json` and panics on a
//! regression; the clock figures are printed and written, not gated.
//!
//! Shapes to look for:
//!
//! * `window_counts/m10` — the phase-1 hot loop on a 10 000-outcome
//!   column: one prefix read and one masked popcount per window;
//! * `multi_test/fused` vs `multi_test/per_suffix` — the end-to-end
//!   multi-suffix test. The fused sweep reads the column once for all
//!   suffixes, so it scans about one window per suffix; the per-suffix
//!   oracle re-reads each suffix's windows, O(n) per suffix. Both look a
//!   threshold up once per conclusive suffix: a second lookup, or a
//!   rescan, moves a count whatever the host's clock does.

use hp_bench::{at_least, at_most, fmt_ns, measure, print_rows, write_json, Baseline, Row};
use hp_core::history::BitColumn;
use hp_core::testing::{BehaviorTestConfig, MultiBehaviorTest, MultiTestMode};
use hp_core::{ClientId, Feedback, Rating, ServerId, TieredHistory};
use std::hint::black_box;

const N: usize = 10_000;
/// The history length the work of a verdict is counted at: a
/// `deep_assess` server's.
const COUNTED_N: usize = 20_000;
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

/// The multi-test both paths run: a small calibration budget, since the
/// calibrator warms once before timing and the measured cost is the sweep
/// and the threshold lookups only. The default mode is the fused sweep at
/// the default, aligned step.
fn multi_tests() -> (MultiBehaviorTest, MultiBehaviorTest) {
    let config = BehaviorTestConfig::builder()
        .calibration_trials(200)
        .build()
        .unwrap();
    let fused = MultiBehaviorTest::new(config.clone()).unwrap();
    let naive = MultiBehaviorTest::new(config)
        .unwrap()
        .with_mode(MultiTestMode::Naive);
    (fused, naive)
}

/// Returns the number of suffixes one evaluation tests.
fn bench_multi(rows: &mut Vec<Row>, history: &TieredHistory) -> usize {
    let (fused, naive) = multi_tests();
    rows.push(measure("multi_test/fused", 50, N as u64, || {
        fused.evaluate_detailed(history).unwrap()
    }));
    rows.push(measure("multi_test/per_suffix", 50, N as u64, || {
        naive.evaluate_detailed(history).unwrap()
    }));
    fused.evaluate_detailed(history).unwrap().suffixes.len()
}

/// What one verdict does, counted.
struct Work {
    suffixes: usize,
    /// Windows read off the outcome column. The fused path reads the
    /// longest suffix's grid once; the per-suffix path reads each
    /// conclusive suffix's own windows (an inconclusive one stops before
    /// reading). Each suffix report names its windows.
    windows: usize,
    /// Threshold lookups, read off the calibrator's counters.
    lookups: u64,
}

impl Work {
    fn windows_per_suffix(&self) -> f64 {
        self.windows as f64 / self.suffixes as f64
    }

    fn lookups_per_suffix(&self) -> f64 {
        self.lookups as f64 / self.suffixes as f64
    }
}

fn count_work(test: &MultiBehaviorTest, history: &TieredHistory) -> Work {
    let lookups = || {
        let stats = test.calibrator().stats();
        stats.hits + stats.misses + stats.surface_hits
    };
    let before = lookups();
    let report = test.evaluate_detailed(history).unwrap();
    let lookups = lookups() - before;
    let tested = report.suffixes.iter().map(|suffix| suffix.report.windows);
    let windows = match test.mode() {
        MultiTestMode::Auto => tested.max().unwrap_or(0),
        MultiTestMode::Naive => tested.filter(|&k| k >= test.config().min_windows()).sum(),
    };
    Work {
        suffixes: report.suffixes.len(),
        windows,
        lookups,
    }
}

/// Holds the counted work to the committed baseline: no more windows or
/// lookups per suffix on the fused path, and no smaller a share of the
/// per-suffix path's windows saved.
fn gate(fused: &Work, windows_ratio: f64) {
    let base = Baseline::read("phase1");
    let (windows, lookups) = (fused.windows_per_suffix(), fused.lookups_per_suffix());
    let max_windows = base.get("max_fused_windows_per_suffix");
    at_most("fused windows per suffix", windows, max_windows);
    let max_lookups = base.get("max_fused_lookups_per_suffix");
    at_most("fused lookups per suffix", lookups, max_lookups);
    let min_ratio = base.get("min_naive_over_fused_windows");
    at_least("per-suffix over fused windows", windows_ratio, min_ratio);
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
    let fused = row_named("multi_test/fused");
    let per_suffix = row_named("multi_test/per_suffix");
    let multi_ratio = per_suffix.min_ns as f64 / fused.min_ns as f64;
    let fused_ns_per_suffix = fused.min_ns as f64 / suffixes as f64;
    println!(
        "\nclock (not gated): m={M} kernel {kernel_ns:.2}ns/window; multi-test \
         fused {} vs per-suffix {} ({multi_ratio:.1}x), fused \
         {fused_ns_per_suffix:.1}ns per suffix over {suffixes} suffixes",
        fmt_ns(fused.min_ns),
        fmt_ns(per_suffix.min_ns),
    );

    let counted = history(COUNTED_N);
    let (fused_test, naive_test) = multi_tests();
    let (fused, naive) = (
        count_work(&fused_test, &counted),
        count_work(&naive_test, &counted),
    );
    let windows_ratio = naive.windows as f64 / fused.windows as f64;
    println!(
        "count (gated) at n = {COUNTED_N}, {} suffixes: fused {:.3} windows and \
         {:.3} lookups per suffix, per-suffix {:.1} windows and {:.3} lookups; \
         per-suffix/fused windows {windows_ratio:.1}x",
        fused.suffixes,
        fused.windows_per_suffix(),
        fused.lookups_per_suffix(),
        naive.windows_per_suffix(),
        naive.lookups_per_suffix(),
    );
    gate(&fused, windows_ratio);

    let gate = format!(
        "\"gate\":{{\"n\":{COUNTED_N},\"suffixes\":{},\
         \"fused_windows_per_suffix\":{:.3},\"fused_lookups_per_suffix\":{:.3},\
         \"naive_windows_per_suffix\":{:.1},\"naive_lookups_per_suffix\":{:.3},\
         \"naive_over_fused_windows\":{windows_ratio:.1}}},\
         \"clock\":{{\"kernel_ns_per_window\":{{\"m{M}\":{kernel_ns:.3}}},\
         \"multi_fused_over_naive\":{multi_ratio:.3},\
         \"multi_fused_ns_per_suffix\":{fused_ns_per_suffix:.1}}}",
        fused.suffixes,
        fused.windows_per_suffix(),
        fused.lookups_per_suffix(),
        naive.windows_per_suffix(),
        naive.lookups_per_suffix(),
    );
    write_json("phase1", &rows, &gate);
}
