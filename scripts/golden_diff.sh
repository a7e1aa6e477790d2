#!/usr/bin/env bash
# Byte-for-byte diff of every bench's stdout, in quick mode and in full
# mode, and of every example's stdout, <base-ref> vs the working tree: the
# check behind a "stdout unchanged" claim.
#
# Usage: scripts/golden_diff.sh <base-ref>
#
# Exports <base-ref> into a temporary directory (git archive: the committed
# files only, and nothing registered in .git to clean up), builds it and
# the working tree (RelWithDebInfo, each in a fresh build directory), and
# runs each side's scripts/bench_suite.sh cold (NIMBUS_CACHE=off) twice:
# once in quick mode and once with NIMBUS_BENCH_FULL=1 (the only place
# fig08's Compound and nimbus-copa, fig09's and fig11's full scheme lists
# and fig19's full path set run).  NIMBUS_SUITE_OUTDIR puts every bench's
# stdout in <side>/<bench>.out (quick) or full-<side>/<bench>.out (full),
# with stderr kept out.  Each example then runs from its side's source root
# (elasticity_probe once per cross-traffic kind: it prints the detector's
# spectrum) into <side>/examples/<example>[-<arg>].out.  Then diffs the
# quick and the full output directories.
#
# Exits 0 iff every bench and example ran on both sides and printed the
# same bytes, both quick suites passed, and no bench fails the full suite
# on the head side only.
# A difference (or a bench present on one side only) prints the diff and
# exits 1; a failed build, a side whose quick suite failed or an example
# that failed exits 1 too.  A bench that fails strict shape checks in full
# mode on both sides is a known gap, not a regression: it is named on a
# "fails strict on both sides" line and does not fail the run (its stdout
# is still diffed).
# NIMBUS_JOBS and NIMBUS_BENCH_TIMEOUT pass through to the suites.  Uses
# mktemp -d; set TMPDIR to keep the build directories somewhere specific.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
BASE_SHA=$(git rev-parse --verify "$1^{commit}")

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

build() {  # build <label> <source dir>
  echo "== building $1 =="
  if ! { cmake -S "$2" -B "$WORK/$1" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$WORK/$1" -j"$(nproc)"; } > "$WORK/$1.log" 2>&1; then
    tail -n 30 "$WORK/$1.log" >&2
    echo "error: building $1 failed" >&2
    exit 1
  fi
}

mkdir "$WORK/base-src"
git archive "$BASE_SHA" | tar -x -C "$WORK/base-src"
build base "$WORK/base-src"
build head .

status=0
suite() {  # suite <label> <source dir>
  echo "== cold quick suite ($1) =="
  if ! BUILD_DIR="$WORK/$1" NIMBUS_CACHE=off \
       NIMBUS_SUITE_OUTDIR="$WORK/out-$1" "$2/scripts/bench_suite.sh"; then
    echo "error: the $1 suite failed" >&2
    status=1
  fi
}
suite base "$WORK/base-src"
suite head .

full_suite() {  # full_suite <label> <source dir>; log in full-<label>.log
  echo "== cold full suite ($1) =="
  BUILD_DIR="$WORK/$1" NIMBUS_CACHE=off NIMBUS_BENCH_FULL=1 \
    NIMBUS_SUITE_OUTDIR="$WORK/full-$1" "$2/scripts/bench_suite.sh" |
    tee "$WORK/full-$1.log" || true
}
full_failures() {  # full_failures <label>: benches that failed, one a line
  sed -n -e 's/^FAIL  \([^ ]*\) .*/\1/p' -e 's/^TIMEOUT \([^ ]*\) .*/\1/p' \
    "$WORK/full-$1.log" | sort -u
}
full_suite base "$WORK/base-src"
full_suite head .
full_failures base > "$WORK/full-fail-base"
full_failures head > "$WORK/full-fail-head"
while read -r b; do
  echo "golden_diff: $b fails strict on both sides (full mode)"
done < <(comm -12 "$WORK/full-fail-base" "$WORK/full-fail-head")
while read -r b; do
  echo "error: $b fails strict in full mode on head only" >&2
  status=1
done < <(comm -13 "$WORK/full-fail-base" "$WORK/full-fail-head")

EXAMPLE_RUNS=("quickstart" "multiflow_fairness" "video_streaming"
              "wan_workload" "elasticity_probe elastic"
              "elasticity_probe inelastic" "elasticity_probe mixed")
examples() {  # examples <label> <source dir>
  echo "== examples ($1) =="
  mkdir -p "$WORK/out-$1/examples"
  local run cmd
  for run in "${EXAMPLE_RUNS[@]}"; do
    read -r -a cmd <<< "$run"
    if ! (cd "$2" && "$WORK/$1/examples/${cmd[0]}" "${cmd[@]:1}") \
         > "$WORK/out-$1/examples/${run// /-}.out" 2>/dev/null; then
      echo "error: example '$run' failed ($1)" >&2
      status=1
    fi
  done
}
examples base "$WORK/base-src"
examples head .

echo "== diff: base $1 ($(git rev-parse --short "$BASE_SHA")) vs head =="
same=1
if ! diff -r "$WORK/out-base" "$WORK/out-head"; then
  echo "golden_diff: quick-mode or example stdout differs from $1" >&2
  same=0
fi
if ! diff -r "$WORK/full-base" "$WORK/full-head"; then
  echo "golden_diff: full-mode bench stdout differs from $1" >&2
  same=0
fi
[ "$same" = 1 ] || exit 1
n=$(find "$WORK/out-head" -maxdepth 1 -name '*.out' | wc -l)
f=$(find "$WORK/full-head" -maxdepth 1 -name '*.out' | wc -l)
m=$(find "$WORK/out-head/examples" -name '*.out' | wc -l)
if [ "$status" != 0 ]; then
  echo "golden_diff: stdout identical on $n quick benches, $f full" \
       "benches and $m example runs, but a quick suite, a head-only full" \
       "failure or an example failed" >&2
  exit 1
fi
echo "golden_diff: all $n quick benches, $f full benches and $m example" \
     "runs print identical stdout"
