#!/usr/bin/env bash
# Interleaved A/B of the canonical benchmark: a base revision against this
# checkout. It is the repository's performance gate.
#
#   scripts/ab.sh BASE [run.sh args...]
#   scripts/ab.sh HEAD~1                      # full scale
#   scripts/ab.sh origin/main --smoke --seconds 1   # as CI runs it
#   scripts/ab.sh HEAD~1 --workload hier_lru  # one workload
#
# Checks BASE out into a git worktree under .bench_build/, removed on exit.
# Runs 10 pairs of bench/canonical/run.sh --out, one run of the base and
# one of this checkout per pair, alternating which side goes first. Pairs
# alternate, two at a time, between the canonical seed and a fixed second
# seed. Arguments after BASE go to run.sh unchanged.
#
# Prints bench/canonical/compare.py's table and exits with its status:
# non-zero on any "worse" verdict, changed digest or failed output check.
set -euo pipefail

readonly pairs=10
readonly seeds=(20030305 4099)

if [ $# -lt 1 ]; then
  echo "usage: $0 BASE [run.sh args...]" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="$(git -C "$root" rev-parse --verify "$1^{commit}")"
shift

mkdir -p "$root/.bench_build"
work="$(mktemp -d "$root/.bench_build/ab.XXXXXX")"
cleanup() {
  local rc=$?
  git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
  rm -rf "$work" || true
  git -C "$root" worktree prune || true
  exit "$rc"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$work/base" "$base"

# Both sides run through paths of one length, $work/base and $work/head.
# run.sh passes paths inside its checkout to the benchmark, and their length
# moves its speed (presumably through heap layout): identical code read 1.7x
# apart on enroute_coordinated at --smoke when only the paths differed. The checkout's
# build is configured through its real path, so that it never records the
# link.
ln -s "$root" "$work/head"
build="$root/.bench_build/canonical"
if [ ! -f "$build/Makefile" ]; then
  cmake -S "$root/bench/canonical" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi

# side NAME SEED: one run.sh pass of one side, records into runs/NAME.
side() {
  echo "ab: $1, seed $2" >&2
  "$work/$1/bench/canonical/run.sh" "${@:3}" --seed "$2" \
    --out "$work/runs/$1" >/dev/null
}

for ((i = 0; i < pairs; i++)); do
  seed="${seeds[$(((i / 2) % 2))]}"
  echo "ab: pair $((i + 1))/$pairs" >&2
  if ((i % 2 == 0)); then
    side base "$seed" "$@"
    side head "$seed" "$@"
  else
    side head "$seed" "$@"
    side base "$seed" "$@"
  fi
done

echo "ab: base $base against $(git -C "$root" rev-parse HEAD)" \
  "($(git -C "$root" diff --quiet HEAD && echo clean || echo dirty))"
python3 "$root/bench/canonical/compare.py" \
  --benchmark "$root/BENCHMARK.json" "$work/runs/base" "$work/runs/head"
