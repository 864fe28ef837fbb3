#!/usr/bin/env bash
# Verifies that README.md documents exactly the settings the code reads,
# so the two cannot drift:
#
#  - README's flag listing matches `cascache_sim --help`. The block sits
#    between `<!-- BEGIN cascache_sim --help -->` and `<!-- END ... -->`
#    markers; only the indented flag lines are compared (the usage line
#    carries the invocation path, which varies).
#  - README's "Environment variables" table has one row per variable the
#    code reads: every `CASCACHE_*` row appears as a `getenv("...")`
#    literal under src/, tools/, bench/ or tests/, and every such literal
#    has a row.
#
# Usage:
#   scripts/check_readme_flags.sh <path-to-cascache_sim>            # check
#   scripts/check_readme_flags.sh <path-to-cascache_sim> --update   # rewrite
#
# --update regenerates the flag listing only; the table is written by hand.
set -u

binary="${1:?usage: $0 <path-to-cascache_sim> [--update]}"
mode="${2:-check}"
root="$(dirname "$0")/.."
readme="$root/README.md"
begin='<!-- BEGIN cascache_sim --help -->'
end='<!-- END cascache_sim --help -->'

help_flags=$("$binary" --help 2>&1 | grep -v '^usage:') || {
  echo "failed to run $binary --help"
  exit 2
}

if [ "$mode" = "--update" ]; then
  tmp=$(mktemp)
  awk -v begin="$begin" -v end="$end" -v help="$help_flags" '
    index($0, begin) { print; print "```"; print help; print "```"; skip = 1; next }
    index($0, end)   { skip = 0 }
    !skip            { print }
  ' "$readme" >"$tmp" && mv "$tmp" "$readme"
  echo "README flag listing regenerated"
  exit 0
fi

status=0

readme_flags=$(awk -v begin="$begin" -v end="$end" '
  index($0, begin) { inside = 1; next }
  index($0, end)   { inside = 0 }
  inside && !/^```/ { print }
' "$readme")

if [ -z "$readme_flags" ]; then
  echo "README.md: flag listing markers not found"
  status=1
elif ! diff_out=$(diff <(printf '%s\n' "$readme_flags") \
                       <(printf '%s\n' "$help_flags")); then
  echo "README.md flag listing is out of date vs $binary --help:"
  echo "$diff_out"
  echo
  echo "Regenerate with: $0 $binary --update"
  status=1
else
  echo "README flag listing matches --help"
fi

# The first cell of each row of the table under "### Environment
# variables", up to the next heading.
table_vars=$(awk '
  /^#+ / { inside = ($0 ~ /^### Environment variables/); next }
  inside && /^\| `CASCACHE_/ { split($0, cell, "`"); print cell[2] }
' "$readme" | sort -u)
code_vars=$(grep -rhoE 'getenv\("CASCACHE_[A-Za-z0-9_]*"\)' \
              "$root/src" "$root/tools" "$root/bench" "$root/tests" |
            sed -E 's/getenv\("(.*)"\)/\1/' | sort -u)

if [ -z "$table_vars" ]; then
  echo "README.md: no CASCACHE_* rows under \"### Environment variables\""
  status=1
elif ! diff_out=$(diff <(printf '%s\n' "$table_vars") \
                       <(printf '%s\n' "$code_vars")); then
  echo "README.md environment table is out of date vs the getenv(\"CASCACHE_*\")"
  echo "literals under src/ tools/ bench/ tests/ ('<' README only, '>' code only):"
  echo "$diff_out"
  status=1
else
  echo "README environment table matches the variables the code reads"
fi

exit "$status"
