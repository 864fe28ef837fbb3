#!/usr/bin/env bash
# Builds the canonical benchmark program out of tree (in .bench_build/ at
# the repository root) and runs it.
#
#   bench/canonical/run.sh                      # all workloads, untraced
#   bench/canonical/run.sh --traced             # all workloads, per-layer
#   bench/canonical/run.sh --smoke              # all workloads, 1/50 scale
#   bench/canonical/run.sh --workload hier_lru --seed 7 --seconds 20 --trace 0
#   bench/canonical/run.sh --out runs/change    # also save each record
#
# Each workload prints a full record line (provenance, digest, samples)
# and then the summary line {"correct", "attempted", "failed", "metrics"}.
# Exits non-zero if the build fails or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/canonical"

workloads=()
seed=20030305
seconds=20
trace=0
scale=1
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --smoke) scale=0.02; seconds=0; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: simulator sources not found under $root/src" >&2
  exit 2
fi

# Configure once, then an incremental build on every run; the lock keeps
# concurrent runs in one checkout from building over each other.
mkdir -p "$build/scratch"
(
  flock 9
  if [ ! -f "$build/Makefile" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" -j "$(nproc)" >&2
) 9>"$build.lock"

rev=unknown
dirty=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
  rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
  if git -C "$root" diff --quiet HEAD 2>/dev/null; then dirty=0; else dirty=1; fi
fi

if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <("$build/canonical" --list)
fi
[ -n "$out" ] && mkdir -p "$out"

status=0
for w in "${workloads[@]}"; do
  rc=0
  result="$("$build/canonical" --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --scale "$scale" \
    --scratch "$build/scratch" --git-rev "$rev" --git-dirty "$dirty" \
    --expected "$here/expected_digests.json")" || rc=$?
  [ -n "$result" ] && printf '%s\n' "$result"
  if [ -n "$out" ] && [ -n "$result" ]; then
    printf '%s\n' "$result" | head -n 1 \
      >"$out/$w.trace$trace.seed$seed.$(date +%s%N).json"
  fi
  [ "$rc" -ne 0 ] && status=$rc
done
exit "$status"
