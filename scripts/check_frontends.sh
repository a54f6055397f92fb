#!/bin/sh
# Golden gate for the grid front-ends. `sweep` and `suite` are slices
# of `grid` and run through the same batch path; their printed tables
# and JSON must stay byte-identical to the recorded outputs under
# scripts/golden/, at every -j:
#
#   1. sweep fibcall --sets 8 --ways 2 (stdout + --json), -j 1 and -j 2
#   2. suite --sets 4 --ways 2 (stdout), -j 1 and -j 2
#   3. grid fibcall bs --geometries 8x2x16,4x4x16 (stdout + --json),
#      -j 1 and -j 2
#   4. the default suite's rows (paper geometry)  -> equal to
#      perfbench/ref/fig4.txt
#
# Any deviation exits non-zero, failing `make check`.
set -eu

TOOL=${1:?usage: check_frontends.sh path/to/pwcet_tool.exe}
case "$TOOL" in /*) ;; *) TOOL="$PWD/$TOOL" ;; esac
GOLDEN="$(cd "$(dirname "$0")" && pwd)/golden"
FIG4="$(cd "$(dirname "$0")/.." && pwd)/perfbench/ref/fig4.txt"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

fail() { echo "check_frontends: FAIL: $*" >&2; exit 1; }

# --json paths are relative to $WORK, so the "wrote FILE" lines match.
cd "$WORK"
for jobs in 1 2; do
  "$TOOL" sweep fibcall --sets 8 --ways 2 -j "$jobs" --json sweep.json > sweep.out \
    || fail "sweep -j $jobs failed"
  cmp -s sweep.out "$GOLDEN/sweep.out" || fail "sweep -j $jobs stdout differs"
  cmp -s sweep.json "$GOLDEN/sweep.json" || fail "sweep -j $jobs JSON differs"

  "$TOOL" suite --sets 4 --ways 2 -j "$jobs" > suite.out || fail "suite -j $jobs failed"
  cmp -s suite.out "$GOLDEN/suite.out" || fail "suite -j $jobs stdout differs"

  "$TOOL" grid fibcall bs --geometries 8x2x16,4x4x16 -j "$jobs" --json grid.json > grid.out \
    || fail "grid -j $jobs failed"
  cmp -s grid.out "$GOLDEN/grid.out" || fail "grid -j $jobs stdout differs"
  cmp -s grid.json "$GOLDEN/grid.json" || fail "grid -j $jobs JSON differs"
done

"$TOOL" suite > fig4.out || fail "default suite failed"
awk 'NF == 11 && $2 ~ /^[0-9]+$/ { print $1, $2, $3, $4, $5 }' fig4.out > fig4.rows
grep -v '^#' "$FIG4" > fig4.ref
[ -s fig4.rows ] || fail "no rows parsed from the default suite"
cmp -s fig4.rows fig4.ref || fail "default suite rows differ from perfbench/ref/fig4.txt"

echo "check_frontends: OK (sweep/suite/grid byte-identical at -j 1 and -j 2, Fig. 4 rows)"
