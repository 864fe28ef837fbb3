#!/usr/bin/env bash
# Verifies that EXPERIMENTS.md carries what the claims driver prints, so
# its numbers and verdicts cannot drift from the code:
#
#  - every block between `<!-- claims:<id> -->` and `<!-- /claims:<id> -->`
#    in EXPERIMENTS.md equals the block `claims` prints for that id;
#  - every block the driver prints has its markers in EXPERIMENTS.md;
#  - the driver exits 0: no claim contradicts its recorded verdict.
#
# Usage:
#   scripts/check_experiments.sh <path-to-claims>            # check
#   scripts/check_experiments.sh <path-to-claims> --update   # rewrite
#
# The driver runs every row at the default scale (CASCACHE_BENCH_SCALE is
# unset for it), which takes about 40 s. --update rewrites the blocks
# between the markers and nothing else.
set -u

binary="${1:?usage: $0 <path-to-claims> [--update]}"
mode="${2:-check}"
root="$(dirname "$0")/.."
doc="$root/EXPERIMENTS.md"
out=$(mktemp)
spliced=$(mktemp)
trap 'rm -f "$out" "$spliced"' EXIT

env -u CASCACHE_BENCH_SCALE "$binary" >"$out"
driver_status=$?
if [ "$driver_status" -ne 0 ]; then
  echo "$binary exited $driver_status: a claim contradicts its verdict"
  echo "(see the **FAILS** / **PASSES** rows it printed), or it failed."
  exit 1
fi

# EXPERIMENTS.md with each marked block replaced by the driver's.
awk -v out="$out" '
  function id_of(line) { return substr(line, 13, length(line) - 16) }
  BEGIN {
    while ((getline line < out) > 0) {
      if (line ~ /^<!-- claims:[^ ]+ -->$/) {
        cur = id_of(line); block[cur] = line; ids[++n] = cur
      } else if (cur != "") {
        block[cur] = block[cur] "\n" line
        if (line == "<!-- /claims:" cur " -->") cur = ""
      }
    }
  }
  skip { if ($0 == "<!-- /claims:" skip " -->") skip = ""; next }
  /^<!-- claims:[^ ]+ -->$/ {
    id = id_of($0)
    if (id in block) { print block[id]; used[id] = 1; skip = id; next }
    print "EXPERIMENTS.md: the driver prints no block " id > "/dev/stderr"
    bad = 1
  }
  { print }
  END {
    for (i = 1; i <= n; i++) {
      if (!(ids[i] in used)) {
        print "EXPERIMENTS.md: no markers for block " ids[i] > "/dev/stderr"
        bad = 1
      }
    }
    exit bad
  }
' "$doc" >"$spliced" || exit 1

if [ "$mode" = "--update" ]; then
  cp "$spliced" "$doc"
  echo "EXPERIMENTS.md claims blocks regenerated"
  exit 0
fi

if ! diff_out=$(diff "$doc" "$spliced"); then
  echo "EXPERIMENTS.md is out of date vs $binary ('<' file, '>' driver):"
  echo "$diff_out"
  echo
  echo "Regenerate with: $0 $binary --update"
  exit 1
fi
echo "EXPERIMENTS.md matches the claims driver"
