#!/usr/bin/env bash
# Bench-smoke lane: Release build of the core hot-path benches, JSON output,
# and the perf-regression gate against the pinned BENCH_core.json baseline.
# The merged artifact (pinned + current rates) lands in
# $BUILD_DIR/BENCH_core.json for CI to upload.
#
# Absolute rates vary across CI machines, so the gate floor is deliberately
# loose (>30% regression fails); the pinned baseline documents the reference
# machine alongside the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target micro_core scenario_e2e store_throughput store_persist \
           flame_aggregate health_rollup

"$BUILD_DIR"/bench/micro_core \
  --benchmark_format=json \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  > "$BUILD_DIR/bench_micro.json"
"$BUILD_DIR"/bench/scenario_e2e --jobs=1 --seeds=24 --rounds=5 \
  --metrics-out="$BUILD_DIR/BENCH_metrics.prom" \
  --trace-out="$BUILD_DIR/BENCH_trace.json" \
  > "$BUILD_DIR/bench_e2e.json"
"$BUILD_DIR"/bench/store_throughput > "$BUILD_DIR/bench_store.json"
"$BUILD_DIR"/bench/store_persist > "$BUILD_DIR/bench_persist.json"
# Trace-analytics fold throughput; --out archives the BENCH_flame.json
# artifact next to BENCH_core.json for CI to upload.
"$BUILD_DIR"/bench/flame_aggregate \
  --out="$BUILD_DIR/BENCH_flame.json" > "$BUILD_DIR/bench_flame.json"
# Fleet-health rollup throughput (the GET /rollup read path); --out archives
# the BENCH_health.json artifact next to BENCH_core.json for CI to upload.
"$BUILD_DIR"/bench/health_rollup \
  --out="$BUILD_DIR/BENCH_health.json" > "$BUILD_DIR/bench_health.json"
# The same read path on real-shaped captures (10 s at 5 kHz, a catalog the
# size of the labbench operator_reads one), where pooling tier means for
# p95/p99 dominates. Archived as BENCH_health_reads.json, not gated: no
# pinned baseline exists for this shape.
"$BUILD_DIR"/bench/health_rollup --captures=112 --samples=50000 \
  --out="$BUILD_DIR/BENCH_health_reads.json" > /dev/null

# Determinism-window kernel sweep: the same scenario corpus at three sizes,
# serial and 4-way parallel. Parallel speedup here is only trustworthy
# because the DST oracle pins serial == --jobs=4 digests — the sweep is the
# perf face of that correctness invariant, archived as BENCH_sweep.json so a
# scaling regression (e.g. contention that only shows at 160 seeds) is
# visible in CI history even though it is not gated.
SWEEP_RUNS=()
for seeds in 10 40 160; do
  for jobs in 1 4; do
    out="$BUILD_DIR/bench_sweep_${seeds}x${jobs}.json"
    "$BUILD_DIR"/bench/scenario_e2e --jobs="$jobs" --seeds="$seeds" \
      --rounds=3 > "$out"
    SWEEP_RUNS+=("$seeds" "$jobs" "$out")
  done
done
python3 - "$BUILD_DIR/BENCH_sweep.json" "${SWEEP_RUNS[@]}" <<'PYEOF'
import json, sys
out, rest = sys.argv[1], sys.argv[2:]
runs = []
for seeds, jobs, path in zip(rest[0::3], rest[1::3], rest[2::3]):
    with open(path) as f:
        result = json.load(f)
    runs.append({"seeds": int(seeds), "jobs": int(jobs), "result": result})
with open(out, "w") as f:
    json.dump({"schema": "blab-bench-sweep-v1", "runs": runs}, f, indent=2)
    f.write("\n")
print(f"wrote {out} ({len(runs)} sweep points)")
PYEOF

python3 scripts/bench_gate.py \
  --baseline BENCH_core.json \
  --micro "$BUILD_DIR/bench_micro.json" \
  --e2e "$BUILD_DIR/bench_e2e.json" \
  --store "$BUILD_DIR/bench_store.json" \
  --persist "$BUILD_DIR/bench_persist.json" \
  --flame "$BUILD_DIR/bench_flame.json" \
  --health "$BUILD_DIR/bench_health.json" \
  --out "$BUILD_DIR/BENCH_core.json"

# Telemetry drift gate: the bench corpus is deterministic, so its merged
# counter snapshot only moves when the workload itself changes — --strict
# fails the lane on any counter drifting past the threshold. Series with a
# legitimate reason to move get an --allow prefix (with a comment saying
# why) instead of loosening the gate. The artifacts
# ($BUILD_DIR/BENCH_metrics.prom, $BUILD_DIR/BENCH_trace.json) upload
# alongside BENCH_core.json either way.
#
# Allowlist:
#   blab_sim_lazy_cancel_skips_total — lazy-cancel skip counts depend on
#     heap interleaving, which is sensitive to event arena sizing tweaks
#     that do not change the workload itself.
python3 scripts/metrics_diff.py \
  --baseline BENCH_metrics.prom \
  --current "$BUILD_DIR/BENCH_metrics.prom" \
  --threshold 10 \
  --strict \
  --allow blab_sim_lazy_cancel_skips_total
