#!/usr/bin/env bash
# Tier-1 verification in one command, fully offline (all external
# dependencies are vendored under vendor/ — see Cargo.toml).
#
#   ./ci.sh            # build + test + clippy
#   ./ci.sh --quick    # skip the release build
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

# A ratchet on the `cargo fmt --check` backlog: these files are clean and
# must stay so. A PR that edits a file formats it and adds it here, so
# the backlog only shrinks.
echo "==> rustfmt --check (files already clean)"
FMT_CLEAN=(
    crates/bench/benches/history.rs
    crates/bench/benches/obs.rs
    crates/bench/benches/phase1.rs
    crates/bench/benches/recovery.rs
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
    crates/service/tests/obs.rs
    crates/service/tests/persistence.rs
    crates/service/tests/recovery.rs
    crates/service/tests/spill.rs
    crates/stats/tests/calibration_surface.rs
    crates/store/src/durable.rs
    crates/store/src/engine.rs
    crates/store/src/segment.rs
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
# The decoder properties (journal, segment fault, snapshot + manifest,
# hpcal, the bounded reader, the ingest body, the HTTP head) at 10^5
# hostile inputs each; tier-1 runs the same properties at the default 256.
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

echo "==> history-engine bench (writes experiments/out/bench_history.json)"
if [ "$QUICK" -eq 0 ]; then
    cargo bench --offline -p hp-bench --bench history >/dev/null
else
    echo "    (skipped: --quick; gate checks the existing json)"
fi

echo "==> history-engine memory gate (bench json vs committed baseline)"
HIST_JSON=experiments/out/bench_history.json
HIST_BASE=experiments/baselines/bench_history_baseline.json
[ -f "$HIST_JSON" ] || { echo "missing $HIST_JSON (run: cargo bench -p hp-bench --bench history)"; exit 1; }
[ -f "$HIST_BASE" ] || { echo "missing $HIST_BASE"; exit 1; }
python3 - "$HIST_JSON" "$HIST_BASE" <<'PYEOF'
import json, sys
current = json.load(open(sys.argv[1]))["resident"]
baseline = json.load(open(sys.argv[2]))["resident"]
limit = baseline["columnar_bytes"] * 1.10
if current["columnar_bytes"] > limit:
    sys.exit(
        f"resident-bytes regression: columnar {current['columnar_bytes']} B "
        f"> 110% of baseline {baseline['columnar_bytes']} B"
    )
if current["ratio"] < 4.0:
    sys.exit(f"columnar/rows ratio {current['ratio']} fell below 4x")
# The same server with every feedback from a new issuer (what a
# million-client population produces): the per-issuer cost, which the
# 24-issuer figure above cannot see.
if current["columnar_distinct_bytes"] > baseline["columnar_distinct_bytes"] * 1.10:
    sys.exit(
        f"resident-bytes regression, all-distinct issuers: columnar "
        f"{current['columnar_distinct_bytes']} B > 110% of baseline "
        f"{baseline['columnar_distinct_bytes']} B"
    )
# A `deep_assess` server: 20k feedbacks with the ids hp-load draws from a
# million clients, the shape whose heap the benchmark's RSS is made of.
if current["columnar_load_ids_bytes"] > baseline["columnar_load_ids_bytes"] * 1.10:
    sys.exit(
        f"resident-bytes regression, hp-load ids: columnar "
        f"{current['columnar_load_ids_bytes']} B > 110% of baseline "
        f"{baseline['columnar_load_ids_bytes']} B"
    )
print(
    f"    resident: columnar {current['columnar_bytes']} B per 10k-feedback "
    f"server ({current['ratio']}x smaller than rows; baseline "
    f"{baseline['columnar_bytes']} B), {current['columnar_distinct_bytes']} B "
    f"with 10k distinct issuers (baseline {baseline['columnar_distinct_bytes']} B), "
    f"{current['columnar_load_ids_bytes']} B per 20k-feedback server with "
    f"hp-load ids (baseline {baseline['columnar_load_ids_bytes']} B)"
)

# Two-sided tiered gate at 10x history length: the compacted active set
# must stay under the committed byte baseline, and a faulted cold assess
# must stay within an order of magnitude of a hot one.
tiered = json.load(open(sys.argv[1]))["tiered"]
tiered_base = json.load(open(sys.argv[2]))["tiered"]
if tiered["history_len"] != tiered_base["history_len"]:
    sys.exit(
        f"tiered gate measured at {tiered['history_len']} records, "
        f"baseline expects {tiered_base['history_len']}"
    )
byte_limit = tiered_base["tiered_bytes"] * 1.10
if tiered["tiered_bytes"] > byte_limit:
    sys.exit(
        f"tiered resident-bytes regression: {tiered['tiered_bytes']} B at "
        f"{tiered['history_len']} records > 110% of baseline "
        f"{tiered_base['tiered_bytes']} B"
    )
if tiered["resident_fraction"] > tiered_base["max_resident_fraction"]:
    sys.exit(
        f"tiered resident fraction {tiered['resident_fraction']} of untiered "
        f"columnar exceeds the {tiered_base['max_resident_fraction']} ceiling"
    )
if tiered["cold_over_hot"] > tiered_base["max_cold_over_hot"]:
    sys.exit(
        f"cold-faulted assess p99 is {tiered['cold_over_hot']}x hot p99, "
        f"over the {tiered_base['max_cold_over_hot']}x ceiling"
    )
print(
    f"    tiered:   {tiered['tiered_bytes']} B resident at "
    f"{tiered['history_len']} records, horizon {tiered['horizon']} "
    f"({tiered['resident_fraction']} of untiered columnar, ceiling "
    f"{tiered_base['max_resident_fraction']}); cold assess "
    f"{tiered['cold_over_hot']}x hot (ceiling {tiered_base['max_cold_over_hot']}x)"
)
PYEOF

# Counts, not clocks: the bench counts the windows and threshold lookups
# one multi-test verdict does at n = 20 000, fused and per-suffix, and
# panics if they exceed experiments/baselines/bench_phase1_baseline.json.
# Its clock figures (kernel ns/window, fused ns per suffix) are printed,
# not gated.
echo "==> phase-1 count gate (writes experiments/out/bench_phase1.json)"
if [ "$QUICK" -eq 0 ]; then
    cargo bench --offline -p hp-bench --bench phase1 | grep -E "^(clock|count)" | sed 's/^/    /'
else
    echo "    (skipped: --quick)"
fi

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

echo "==> tracing-overhead bench (writes experiments/out/bench_obs.json)"
if [ "$QUICK" -eq 0 ]; then
    cargo bench --offline -p hp-bench --bench obs >/dev/null
else
    echo "    (skipped: --quick; gate checks the existing json)"
fi

echo "==> tracing-overhead gate (bench json vs committed baseline)"
OBS_JSON=experiments/out/bench_obs.json
OBS_BASE=experiments/baselines/bench_obs_baseline.json
[ -f "$OBS_JSON" ] || { echo "missing $OBS_JSON (run: cargo bench -p hp-bench --bench obs)"; exit 1; }
[ -f "$OBS_BASE" ] || { echo "missing $OBS_BASE"; exit 1; }
python3 - "$OBS_JSON" "$OBS_BASE" <<'PYEOF'
import json, sys
gate = json.load(open(sys.argv[1]))["gate"]
base = json.load(open(sys.argv[2]))["gate"]
if gate["disabled_overhead_pct"] > base["max_disabled_overhead_pct"]:
    sys.exit(
        f"spans-disabled overhead regression: {gate['disabled_overhead_pct']}% "
        f"> {base['max_disabled_overhead_pct']}% budget (the disabled path "
        f"must cost one relaxed atomic load)"
    )
if gate["enabled_overhead_pct"] > base["max_enabled_overhead_pct"]:
    sys.exit(
        f"spans-enabled overhead regression: {gate['enabled_overhead_pct']}% "
        f"> {base['max_enabled_overhead_pct']}% budget on the ingest workload"
    )
print(
    f"    span overhead: disabled {gate['disabled_overhead_pct']}% "
    f"(budget {base['max_disabled_overhead_pct']}%), enabled "
    f"{gate['enabled_overhead_pct']}% (budget {base['max_enabled_overhead_pct']}%), "
    f"enabled vs bare cache-hit assess {gate['assess_enabled_overhead_pct']}% (info)"
)
PYEOF

echo "==> recovery bench (writes experiments/out/bench_recovery.json)"
if [ "$QUICK" -eq 0 ]; then
    cargo bench --offline -p hp-bench --bench recovery >/dev/null
else
    echo "    (skipped: --quick; gate checks the existing json)"
fi

echo "==> snapshot-boot recovery gate (bench json vs committed baseline)"
REC_JSON=experiments/out/bench_recovery.json
REC_BASE=experiments/baselines/bench_recovery_baseline.json
[ -f "$REC_JSON" ] || { echo "missing $REC_JSON (run: cargo bench -p hp-bench --bench recovery)"; exit 1; }
[ -f "$REC_BASE" ] || { echo "missing $REC_BASE"; exit 1; }
python3 - "$REC_JSON" "$REC_BASE" <<'PYEOF'
import json, sys
gate = json.load(open(sys.argv[1]))["gate"]
base = json.load(open(sys.argv[2]))["gate"]
if gate["len"] != base["len"]:
    sys.exit(f"gate measured at {gate['len']} records, baseline expects {base['len']}")
if gate["snapshot_restart_speedup"] < base["min_snapshot_restart_speedup"]:
    sys.exit(
        f"snapshot-boot recovery regression: {gate['snapshot_restart_speedup']}x "
        f"over full replay at {gate['len']} records fell below the "
        f"{base['min_snapshot_restart_speedup']}x floor "
        f"({gate['snapshot_boot_ms']} ms vs {gate['full_replay_ms']} ms)"
    )
if gate["spill_restart_speedup"] < base["min_spill_restart_speedup"]:
    sys.exit(
        f"restart-after-spill regression: {gate['spill_restart_speedup']}x "
        f"over full replay at {gate['len']} records fell below the "
        f"{base['min_spill_restart_speedup']}x floor "
        f"({gate['spill_boot_ms']} ms vs {gate['full_replay_ms']} ms)"
    )
print(
    f"    snapshot boot at {gate['len']} records: {gate['snapshot_boot_ms']} ms "
    f"vs {gate['full_replay_ms']} ms full replay "
    f"({gate['snapshot_restart_speedup']}x, floor {base['min_snapshot_restart_speedup']}x)"
)
print(
    f"    spill boot at {gate['len']} records: {gate['spill_boot_ms']} ms "
    f"({gate['spill_restart_speedup']}x, floor {base['min_spill_restart_speedup']}x) "
    f"— segment re-attach, no journal replay of spilled history"
)
PYEOF

echo "==> calibration bench (writes experiments/out/bench_calibration.json)"
if [ "$QUICK" -eq 0 ]; then
    # The bench binary itself asserts bit-identical surface builds across
    # calibration thread counts, surface error within tolerance, and
    # zero decisive verdict flips between the surface-backed and
    # oracle services; a violation fails this step directly.
    cargo bench --offline -p hp-bench --bench calibration >/dev/null
else
    echo "    (skipped: --quick; gate checks the existing json)"
fi

echo "==> calibration-wall gate (bench json vs committed baseline)"
CAL_JSON=experiments/out/bench_calibration.json
CAL_BASE=experiments/baselines/bench_calibration_baseline.json
[ -f "$CAL_JSON" ] || { echo "missing $CAL_JSON (run: cargo bench -p hp-bench --bench calibration)"; exit 1; }
[ -f "$CAL_BASE" ] || { echo "missing $CAL_BASE"; exit 1; }
python3 - "$CAL_JSON" "$CAL_BASE" <<'PYEOF'
import json, sys
gate = json.load(open(sys.argv[1]))["gate"]
base = json.load(open(sys.argv[2]))["gate"]
if gate["cold_assess_p99_ms"] > base["max_cold_assess_p99_ms"]:
    sys.exit(
        f"cold-assess SLO regression: p99 {gate['cold_assess_p99_ms']} ms "
        f"> {base['max_cold_assess_p99_ms']} ms with the surface enabled"
    )
if gate["surface_max_error"] > gate["tolerance"]:
    sys.exit(
        f"surface error {gate['surface_max_error']} exceeds its configured "
        f"tolerance {gate['tolerance']}"
    )
if gate["verdict_flips"] != 0:
    sys.exit(f"surface flipped {gate['verdict_flips']} decisive verdicts")
if not gate["crn_identical"]:
    sys.exit("the built surface depends on the calibration thread count")
if gate["surface_build_ms"] > base["max_surface_build_ms"]:
    sys.exit(
        f"cold-boot regression: the default surface builds in "
        f"{gate['surface_build_ms']} ms on one thread "
        f"> {base['max_surface_build_ms']} ms (the sort-free trial kernel "
        f"or the partial quantile ordering was lost)"
    )
growth_speedup = gate["growth_assess_oracle_ms"] / gate["growth_assess_surface_ms"]
if growth_speedup < base["min_growth_speedup"]:
    sys.exit(
        f"growth-wall regression: on rows nothing asked for yet the surface assess "
        f"is only {growth_speedup:.0f}x faster ({gate['growth_assess_surface_ms']} ms "
        f"vs {gate['growth_assess_oracle_ms']} ms), floor {base['min_growth_speedup']}x"
    )
print(
    f"    cold assess p99 {gate['cold_assess_p99_ms']} ms "
    f"(ceiling {base['max_cold_assess_p99_ms']} ms); surface error "
    f"{gate['surface_max_error']} <= tolerance {gate['tolerance']}; "
    f"{gate['verdict_flips']} flips / {gate['knife_edge']} knife-edge "
    f"of {gate['verdicts_compared']}; "
    f"growth assess {growth_speedup:.0f}x over the oracle wall; surface "
    f"build {gate['surface_build_ms']} ms serial, "
    f"{gate['surface_build_2t_ms']} ms on two threads "
    f"(ceiling {base['max_surface_build_ms']} ms)"
)
PYEOF

echo "==> kill-9 soak (SIGKILL hp-edge mid-ingest, restart on the same dir, verify bit-identical)"
if [ "$QUICK" -eq 0 ]; then
    cargo test --offline --release -p hp-edge --test kill9 -- --ignored
else
    echo "    (skipped: --quick)"
fi

echo "==> edge soak (hp-edge + hp-load over real sockets, writes experiments/out/bench_edge.json)"
if [ "$QUICK" -eq 0 ]; then
    # Boots the service behind the HTTP edge on an ephemeral port and
    # replays the paper-mix population open-loop. The binary itself
    # fails on any accounting mismatch between client-observed
    # accepted/shed counts, ServiceStats, and /metrics.
    cargo run --offline --release -p hp-load --bin edge-soak >/dev/null
else
    echo "    (skipped: --quick; gate checks the existing json)"
fi

echo "==> edge SLO gate (soak json vs committed baseline)"
EDGE_JSON=experiments/out/bench_edge.json
EDGE_BASE=experiments/baselines/bench_edge_baseline.json
[ -f "$EDGE_JSON" ] || { echo "missing $EDGE_JSON (run: cargo run --release -p hp-load --bin edge-soak)"; exit 1; }
[ -f "$EDGE_BASE" ] || { echo "missing $EDGE_BASE"; exit 1; }
python3 - "$EDGE_JSON" "$EDGE_BASE" <<'PYEOF'
import json, sys
current = json.load(open(sys.argv[1]))
slo = json.load(open(sys.argv[2]))["slo"]
throughput = current["ingest_throughput_per_sec"]
p99 = current["assess_p99_ms"]
if throughput < slo["min_ingest_throughput_per_sec"]:
    sys.exit(
        f"edge throughput regression: {throughput:.0f} feedbacks/s "
        f"< SLO floor {slo['min_ingest_throughput_per_sec']}"
    )
if p99 > slo["max_assess_p99_ms"]:
    sys.exit(
        f"edge assess p99 regression: {p99:.2f} ms "
        f"> SLO ceiling {slo['max_assess_p99_ms']} ms"
    )
feedbacks = current["feedbacks"]
if feedbacks["sent"] != feedbacks["accepted"] + feedbacks["shed"]:
    sys.exit(f"edge accounting leak: {feedbacks}")
if current["requests"]["errors"] != 0:
    sys.exit(f"edge soak had {current['requests']['errors']} request errors")
print(
    f"    edge: {throughput:.0f} feedbacks/s accepted "
    f"(floor {slo['min_ingest_throughput_per_sec']}), assess p99 {p99:.2f} ms "
    f"(ceiling {slo['max_assess_p99_ms']} ms), "
    f"{feedbacks['shed']} shed / {current['requests']['assess_degraded']} degraded, "
    f"all exactly accounted"
)
PYEOF

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
