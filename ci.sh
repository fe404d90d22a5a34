#!/usr/bin/env bash
# Tier-1 verification in one command, fully offline (all external
# dependencies are vendored under vendor/ — see Cargo.toml).
#
#   ./ci.sh            # build + test + clippy
#   ./ci.sh --quick    # skip the release build, the benches and the soaks
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

# Runs one bench and shows its gate lines. The bench reads its committed
# baseline in experiments/baselines/ itself and panics on the first check
# that fails, which pipefail makes fatal here. --quick skips it.
bench() {
    if [ "$QUICK" -eq 1 ]; then
        echo "    (skipped: --quick)"
        return
    fi
    cargo bench --offline -p hp-bench --bench "$1" | grep -E "^(gate|clock|count)" | sed 's/^/    /'
}

# A ratchet on the `cargo fmt --check` backlog: these files are clean and
# must stay so. A PR that edits a file formats it and adds it here, so
# the backlog only shrinks.
echo "==> rustfmt --check (files already clean)"
FMT_CLEAN=(
    crates/bench/benches/calibration.rs
    crates/bench/benches/history.rs
    crates/bench/benches/obs.rs
    crates/bench/benches/phase1.rs
    crates/bench/benches/recovery.rs
    crates/bench/src/lib.rs
    crates/core/src/history/columnar.rs
    crates/core/src/history/mod.rs
    crates/core/src/history/tiered.rs
    crates/core/src/history/view.rs
    crates/core/src/id.rs
    crates/core/tests/resident_accounting.rs
    crates/core/tests/tiered_equivalence.rs
    crates/edge/src/bin/hp_edge.rs
    crates/edge/src/config.rs
    crates/edge/src/http.rs
    crates/edge/src/metrics.rs
    crates/edge/src/server.rs
    crates/edge/src/wire.rs
    crates/edge/tests/chaos.rs
    crates/edge/tests/cli.rs
    crates/edge/tests/kill9.rs
    crates/edge/tests/obs.rs
    crates/edge/tests/protocol.rs
    crates/edge/tests/support/mod.rs
    crates/load/src/bin/edge_soak.rs
    crates/load/src/lib.rs
    crates/load/src/population.rs
    crates/load/src/report.rs
    crates/service/src/calcache.rs
    crates/service/src/config.rs
    crates/service/src/faults.rs
    crates/service/src/journal.rs
    crates/service/src/lib.rs
    crates/service/src/metrics.rs
    crates/service/src/obs/audit.rs
    crates/service/src/obs/histogram.rs
    crates/service/src/obs/lint.rs
    crates/service/src/obs/mod.rs
    crates/service/src/obs/registry.rs
    crates/service/src/obs/slo.rs
    crates/service/src/obs/span.rs
    crates/service/src/replay.rs
    crates/service/src/service.rs
    crates/service/src/shard.rs
    crates/service/src/snapshot.rs
    crates/service/src/state.rs
    crates/service/src/supervisor.rs
    crates/service/tests/chaos.rs
    crates/service/tests/equivalence.rs
    crates/service/tests/group_commit.rs
    crates/service/tests/obs.rs
    crates/service/tests/persistence.rs
    crates/service/tests/recovery.rs
    crates/service/tests/spill.rs
    crates/stats/tests/calibration_surface.rs
    crates/store/src/durable.rs
    crates/store/src/engine.rs
    crates/store/src/lib.rs
    crates/store/src/memory.rs
    crates/store/src/partial.rs
    crates/store/src/persist.rs
    crates/store/src/ring.rs
    crates/store/src/segment.rs
    crates/store/src/sharded.rs
    crates/store/src/store.rs
    examples/online_service.rs
)
rustfmt --edition 2021 --check "${FMT_CLEAN[@]}"
echo "    ${#FMT_CLEAN[@]} files clean"

# hp-sim generates populations for tests and the example; the service
# itself must not link it.
echo "==> hp-service links no hp-sim outside its tests"
SERVICE_TREE="$(cargo tree --offline -p hp-service -e normal)"
if grep -q "hp-sim" <<<"$SERVICE_TREE"; then
    echo "hp-service has a normal dependency on hp-sim"
    exit 1
fi

echo "==> cargo build --release (offline, workspace)"
if [ "$QUICK" -eq 0 ]; then
    cargo build --offline --release --workspace
else
    echo "    (skipped: --quick)"
fi

echo "==> cargo test -q (offline, workspace)"
cargo test --offline --workspace -q

echo "==> cargo test -q (service chaos + recovery, fault-injection)"
FAULT_T0=$SECONDS
cargo test --offline -p hp-service --features fault-injection -q
# The decoder properties (journal, segment fault, snapshot, manifest,
# hpcal, feedback log, the bounded reader, the ingest body, the HTTP head)
# at 10^5 hostile inputs each; tier-1 runs the same properties at the
# default 256.
PROPTEST_CASES=100000 cargo test --offline --release -q -p hp-store -p hp-service -p hp-edge --lib survives_hostile
echo "    fault-injection stage: $((SECONDS - FAULT_T0)) s"

echo "==> cargo clippy -D warnings (offline, workspace, all targets)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo clippy -D warnings (service, fault-injection)"
cargo clippy --offline -p hp-service --features fault-injection --all-targets -- -D warnings

# Doc comments link to public names; a PR that deletes or renames one
# breaks the link and nothing else notices.
echo "==> cargo doc -D warnings (offline, workspace, no deps)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# The example prints the exposition and writes metrics_json() to
# experiments/out/bench_service.json (no bench does). It also holds the
# replay driver, so its closing `mismatches == 0` assertion is that
# driver's gate: every online verdict of its 60-server marketplace must
# equal OfflineReference's, or this stage fails. One name per kind
# of family — per-shard counter, per-shard gauge, path histogram, service
# gauge — says the example still prints an exposition; that it is
# complete is the table-vs-exposition test's job (tests/obs.rs).
echo "==> observability smoke (example + exposition + example-written json)"
if [ "$QUICK" -eq 0 ]; then
    EXPO="$(cargo run --offline --release --example online_service)"
    for metric in \
        hp_feedbacks_ingested_total \
        hp_shard_queue_depth \
        hp_ingest_apply_latency_seconds_bucket \
        hp_calibration_cache_entries
    do
        echo "$EXPO" | grep -q "$metric" \
            || { echo "missing metric in exposition: $metric"; exit 1; }
    done
    BENCH_JSON=experiments/out/bench_service.json
    [ -f "$BENCH_JSON" ] || { echo "missing $BENCH_JSON"; exit 1; }
    for key in ingest_apply assess_e2e p50_ns p99_ns; do
        grep -q "$key" "$BENCH_JSON" \
            || { echo "missing key in $BENCH_JSON: $key"; exit 1; }
    done
    echo "    exposition + $BENCH_JSON verified"
else
    echo "    (skipped: --quick)"
fi

echo "==> history-engine bench + memory gate (writes experiments/out/bench_history.json)"
bench history

# Counts, not clocks: windows and threshold lookups per multi-test verdict
# at n = 20 000. The clock figures are printed, not gated.
echo "==> phase-1 count gate (writes experiments/out/bench_phase1.json)"
bench phase1

echo "==> figures gate (Figs. 3-8 --fast, byte-compared with experiments/baselines/fast)"
# A --fast run is deterministic, so any byte that moves is a changed
# distance, threshold or verdict somewhere in phase 1 or the simulator.
# Fig. 9 is a stopwatch and stays out. Regenerate the baselines, when a
# change is meant to move them, with the loop below and
# `--out experiments/baselines/fast`.
FIG_OUT="$(mktemp -d)"
trap 'rm -rf "$FIG_OUT"' EXIT
FIG_PROFILE="--release"
[ "$QUICK" -eq 1 ] && FIG_PROFILE=""
for fig in fig3 fig4 fig5 fig6 fig7 fig8; do
    # shellcheck disable=SC2086  # the profile flag is empty or one word
    cargo run --offline --quiet $FIG_PROFILE -p hp-experiments --bin "$fig" -- \
        --fast --out "$FIG_OUT" >/dev/null
done
diff -r experiments/baselines/fast "$FIG_OUT" \
    || { echo "a --fast figure CSV differs from experiments/baselines/fast"; exit 1; }
echo "    $(ls "$FIG_OUT" | wc -l) CSVs byte-identical to the committed baselines"

echo "==> tracing-overhead bench + gate (writes experiments/out/bench_obs.json)"
bench obs

# Counts, not clocks: each boot asserts the journal records it recovered
# and folded. The snapshot-boot speedups are printed, not gated.
echo "==> recovery bench + replay-count gate (writes experiments/out/bench_recovery.json)"
bench recovery

# Also asserts thread-count bit-identity, surface error within tolerance
# and zero decisive verdict flips.
echo "==> calibration bench + wall gate (writes experiments/out/bench_calibration.json)"
bench calibration

echo "==> kill-9 soak x3 (SIGKILL hp-edge mid-ingest, restart on the same dir, verify bit-identical)"
if [ "$QUICK" -eq 0 ]; then
    # Three runs back to back: a lost ack that shows up in one run of
    # three would pass a single run one time in three.
    for run in 1 2 3; do
        echo "    run $run of 3"
        cargo test --offline --release -q -p hp-edge --test kill9 -- --ignored
    done
else
    echo "    (skipped: --quick)"
fi

echo "==> edge soak + SLO gate (hp-edge + hp-load over real sockets, writes experiments/out/bench_edge.json)"
if [ "$QUICK" -eq 0 ]; then
    # Boots the service behind the HTTP edge on an ephemeral port and
    # replays the paper-mix population open-loop. The binary itself
    # fails on any accounting mismatch between client-observed
    # accepted/shed counts, ServiceStats, and /metrics, and on a miss of
    # its throughput or assess-p99 SLO.
    cargo run --offline --release -p hp-load --bin edge-soak | grep "^gate" | sed 's/^/    /'
else
    echo "    (skipped: --quick)"
fi

echo "==> repo benchmark crate (benchmark/: BENCHMARK.json contract + --quick smoke)"
if [ "$QUICK" -eq 0 ]; then
    # benchmark/ is a workspace of its own with path dependencies on
    # crates/*, so nothing above compiles it: an API change that breaks it
    # would otherwise surface only when the benchmark driver runs.
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
else
    echo "    (skipped: --quick)"
fi

echo "==> OK"
