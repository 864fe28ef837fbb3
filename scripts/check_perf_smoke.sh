#!/usr/bin/env bash
# Release-mode perf smoke (ISSUE 6 satellite): guards the replay hot path
# against silent regressions.
#
#   1. Builds Release (full -O3, the configuration the baseline was
#      recorded under).
#   2. Re-runs the bit-identity gates (PipelineEquivalenceTest.*, and
#      ExchangeInstantiationTest.*: lean vs full exchange) in that
#      build — a perf number from a build that changes results is
#      meaningless.
#   3. Runs BM_ReplayHotPath with repetitions and compares the *minimum*
#      CPU time per scheme against bench/perf_baseline.json, failing on a
#      regression beyond the tolerance (default 2%).
#
# Min-of-repetitions is the comparison statistic because it is the
# closest observable to the code's intrinsic cost: scheduling noise and
# cache pollution only ever add time, so the minimum converges while the
# mean wanders with host load.
#
# The baseline is host-calibrated: absolute ms differ machine to machine,
# so after an intentional hot-path change (or on a new reference host)
# regenerate it with --update-baseline and commit the result. On shared
# CI runners, widen the tolerance via CASCACHE_PERF_TOLERANCE instead of
# regenerating.
#
# Environment overrides:
#   CASCACHE_PERF_TOLERANCE   allowed fractional regression (default 0.02)
#   CASCACHE_PERF_REPS        benchmark repetitions          (default 7)
#   CASCACHE_PERF_BUILD_DIR   build directory                (default build-perf)
#   CASCACHE_PERF_BASELINE    baseline json path             (default bench/perf_baseline.json)
set -euo pipefail

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${CASCACHE_PERF_BUILD_DIR:-"$REPO_ROOT/build-perf"}
BASELINE=${CASCACHE_PERF_BASELINE:-"$REPO_ROOT/bench/perf_baseline.json"}
TOLERANCE=${CASCACHE_PERF_TOLERANCE:-0.02}
REPS=${CASCACHE_PERF_REPS:-7}

UPDATE=0
if [[ "${1:-}" == "--update-baseline" ]]; then
  UPDATE=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: $0 [--update-baseline]" >&2
  exit 2
fi

echo "== perf smoke: configure + build (Release) =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target cascache_tests micro_caches >/dev/null

echo "== perf smoke: bit-identity gates (PipelineEquivalence, ExchangeInstantiation) =="
"$BUILD_DIR/tests/cascache_tests" \
    --gtest_filter='PipelineEquivalenceTest.*:*ExchangeInstantiationTest.*' \
    --gtest_brief=1

echo "== perf smoke: BM_ReplayHotPath ($REPS repetitions) =="
BENCH_JSON="$BUILD_DIR/perf_smoke_bench.json"
"$BUILD_DIR/bench/micro_caches" \
    --benchmark_filter='^BM_ReplayHotPath/' \
    --benchmark_repetitions="$REPS" \
    --benchmark_min_time=0.2 \
    --benchmark_format=json > "$BENCH_JSON"

UPDATE="$UPDATE" BASELINE="$BASELINE" TOLERANCE="$TOLERANCE" \
python3 - "$BENCH_JSON" <<'PYEOF'
import json
import os
import sys

bench_path = sys.argv[1]
baseline_path = os.environ["BASELINE"]
tolerance = float(os.environ["TOLERANCE"])
update = os.environ["UPDATE"] == "1"

with open(bench_path) as f:
    report = json.load(f)

# Min CPU time across the plain (non-aggregate) repetitions, per benchmark.
mins = {}
for b in report["benchmarks"]:
    if b.get("run_type") != "iteration":
        continue
    name = b["run_name"]
    cpu = float(b["cpu_time"])  # unit: ms (benchmark::kMillisecond)
    if name not in mins or cpu < mins[name]:
        mins[name] = cpu

if not mins:
    sys.exit("perf smoke: benchmark produced no iteration records")

if update:
    baseline = {
        "_comment": (
            "Host-calibrated BM_ReplayHotPath baseline for "
            "scripts/check_perf_smoke.sh: min CPU ms over repetitions in a "
            "Release build. Regenerate with --update-baseline after an "
            "intentional hot-path change; on foreign hosts widen "
            "CASCACHE_PERF_TOLERANCE instead."
        ),
        "benchmarks": {name: {"min_cpu_ms": round(v, 4)} for name, v in sorted(mins.items())},
    }
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"perf smoke: baseline written to {baseline_path}")
    for name, v in sorted(mins.items()):
        print(f"  {name}: {v:.2f} ms")
    sys.exit(0)

try:
    with open(baseline_path) as f:
        baseline = json.load(f)["benchmarks"]
except FileNotFoundError:
    sys.exit(
        f"perf smoke: no baseline at {baseline_path}; "
        "run with --update-baseline to record one"
    )

failed = False
for name, entry in sorted(baseline.items()):
    base = float(entry["min_cpu_ms"])
    if name not in mins:
        print(f"FAIL {name}: present in baseline but not in benchmark output")
        failed = True
        continue
    cur = mins[name]
    delta = (cur - base) / base
    verdict = "ok"
    if delta > tolerance:
        verdict = f"REGRESSION (> {tolerance:.0%} budget)"
        failed = True
    print(f"  {name}: {cur:.2f} ms vs baseline {base:.2f} ms "
          f"({delta:+.1%}) {verdict}")

for name in sorted(set(mins) - set(baseline)):
    print(f"  note: {name} has no baseline entry (new benchmark?); "
          "regenerate with --update-baseline")

if failed:
    sys.exit("perf smoke: hot-path regression beyond tolerance")
print("perf smoke: within budget")
PYEOF
