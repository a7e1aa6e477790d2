#!/usr/bin/env bash
# Byte-for-byte diff of every bench's quick-mode stdout and every example's
# stdout, <base-ref> vs the working tree: the check behind a "stdout
# unchanged" claim.
#
# Usage: scripts/golden_diff.sh <base-ref>
#
# Exports <base-ref> into a temporary directory (git archive: the committed
# files only, and nothing registered in .git to clean up), builds it and
# the working tree (RelWithDebInfo, each in a fresh build directory), and
# runs each side's scripts/bench_suite.sh cold (NIMBUS_CACHE=off) with
# NIMBUS_SUITE_OUTDIR, so every bench's stdout lands in <side>/<bench>.out
# with stderr kept out.  Each example then runs from its side's source root
# (elasticity_probe once per cross-traffic kind: it prints the detector's
# spectrum) into <side>/examples/<example>[-<arg>].out.  Then diffs the two
# output directories.
#
# Exits 0 iff every bench and example ran on both sides and printed the
# same bytes.
# A difference (or a bench present on one side only) prints the diff and
# exits 1; a failed build or a side whose suite failed exits 1 too.
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
if ! diff -r "$WORK/out-base" "$WORK/out-head"; then
  echo "golden_diff: bench stdout differs from $1" >&2
  exit 1
fi
n=$(find "$WORK/out-head" -maxdepth 1 -name '*.out' | wc -l)
m=$(find "$WORK/out-head/examples" -name '*.out' | wc -l)
if [ "$status" != 0 ]; then
  echo "golden_diff: stdout identical on $n benches and $m example runs," \
       "but a suite or an example failed" >&2
  exit 1
fi
echo "golden_diff: all $n benches and $m example runs print identical stdout"
