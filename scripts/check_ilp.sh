#!/bin/sh
# End-to-end gate for the paper's own bounding engine: the exact
# integer IPET ILP in the fault-free WCET and in every Fault Miss Map
# cell (`analyze --engine ilp --exact`), on jfdctint at the default
# 16x4 geometry, store bypassed:
#
#   1. -j 1 and -j 2                  -> byte-identical output
#   2. fault-free WCET                -> 42351 cycles
#   3. pWCET(1e-15) none / SRB / RW   -> 923055 / 276882 / 47202 cycles,
#                                        the values perfbench/ref/paper_ilp.txt
#                                        records
#
# Any deviation exits non-zero, failing `make check`.
set -eu

TOOL=${1:?usage: check_ilp.sh path/to/pwcet_tool.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

fail() { echo "check_ilp: FAIL: $*" >&2; exit 1; }

for jobs in 1 2; do
  "$TOOL" analyze jfdctint --engine ilp --exact --no-cache -j "$jobs" > "$WORK/j$jobs.out" \
    || fail "analyze -j $jobs failed"
done
cmp -s "$WORK/j1.out" "$WORK/j2.out" || fail "-j 1 and -j 2 outputs differ"

grep -q '^fault-free WCET: 42351 cycles$' "$WORK/j1.out" || fail "fault-free WCET is not 42351"
expect() {
  grep -q "^$1  *pWCET(1e-15) = $2 cycles\$" "$WORK/j1.out" \
    || fail "$1: pWCET(1e-15) is not $2"
}
expect "no protection" 923055
expect "shared reliable buffer (SRB)" 276882
expect "reliable way (RW)" 47202

echo "check_ilp: OK (jfdctint exact ILP: -j 1 = -j 2, WCET and pWCET match the reference)"
