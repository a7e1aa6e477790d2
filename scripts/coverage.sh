#!/usr/bin/env bash
# Lists the src/ lines that no bench and no example runs: the reachability
# measurement behind "delete what no bench reaches".
#
# Usage: scripts/coverage.sh
#
# Builds the tree Debug with `-O1 --coverage` (passed through
# CMAKE_CXX_FLAGS) in a mktemp -d directory, then runs, twice:
#   1. with the result cache on (NIMBUS_CACHE=readwrite, a fresh cache
#      directory), and
#   2. with NIMBUS_OBS=trace (artifacts into a scratch NIMBUS_OBS_DIR),
# the quick suite, the full suite (NIMBUS_BENCH_FULL=1) and the seven
# example runs scripts/golden_diff.sh makes.  The tests do not run: a line
# only a test reaches counts as unreached.  gcov then merges the counts of
# every translation unit (a header line counts as run if any unit ran it)
# and this prints, per src/ file, the executable lines that never ran, as
# line ranges, followed by one total line:
#
#   coverage: <unreached> of <executable> executable src/ lines never ran
#
# A suite that fails strict shape checks (fig09 and fig15 do in full mode)
# or an example that fails is reported in a "failed runs" block but does
# not stop the listing; so is every bench whose "cache <bench> ..." row in
# the cache-on pass counts a corrupt entry (corrupt= above 0), named with
# its quick or full pass.  The script exits 0 once the listing is printed
# and nonzero only if the build fails.  Uses mktemp -d; set TMPDIR to choose
# where the build and the trace artifacts go.  NIMBUS_JOBS passes through.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$(pwd)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
BUILD="$WORK/build"

echo "== building (Debug, -O1 --coverage) =="
if ! { cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
         -DCMAKE_CXX_FLAGS="-O1 --coverage" &&
       cmake --build "$BUILD" -j"$(nproc)"; } > "$WORK/build.log" 2>&1; then
  tail -n 30 "$WORK/build.log" >&2
  echo "error: coverage build failed" >&2
  exit 1
fi

FAILED=()
EXAMPLE_RUNS=("quickstart" "multiflow_fairness" "video_streaming"
              "wan_workload" "elasticity_probe elastic"
              "elasticity_probe inelastic" "elasticity_probe mixed")
run_all() {  # run_all <label>; the caller sets the pass's NIMBUS_* knobs
  local full mode run cmd line
  for full in 0 1; do
    mode=quick; [ "$full" = 1 ] && mode=full
    echo "== $1: suite (NIMBUS_BENCH_FULL=$full) =="
    if ! BUILD_DIR="$BUILD" NIMBUS_BENCH_FULL=$full \
         scripts/bench_suite.sh > "$WORK/suite.log" 2>&1; then
      FAILED+=("$1: suite NIMBUS_BENCH_FULL=$full:")
      while IFS= read -r line; do FAILED+=("    $line"); done \
        < <(grep -E '^(FAIL|TIMEOUT)' "$WORK/suite.log" || true)
    fi
    # Keep the per-bench cache rows ("cache <bench> nimbus-cache: ...
    # corrupt=N ..."), which the next pass's suite.log would overwrite.
    grep '^cache ' "$WORK/suite.log" | sed "s/^/$1 ($mode pass): /" \
      >> "$WORK/cache-rows" || true
    tail -n 1 "$WORK/suite.log"
  done
  echo "== $1: examples =="
  for run in "${EXAMPLE_RUNS[@]}"; do
    read -r -a cmd <<< "$run"
    if ! "$BUILD/examples/${cmd[0]}" "${cmd[@]:1}" > /dev/null 2>&1; then
      FAILED+=("$1: example '$run'")
    fi
  done
}

NIMBUS_CACHE=readwrite NIMBUS_CACHE_DIR="$WORK/cache" run_all "cache on"
mkdir -p "$WORK/obs"
NIMBUS_OBS=trace NIMBUS_OBS_DIR="$WORK/obs" run_all "obs trace"
# A cell whose cache entry decoded as corrupt, by bench and pass.
while IFS= read -r line; do FAILED+=("$line"); done < <(
  awk -F': ' '{
    if (match($0, / corrupt=[0-9]+/) &&
        substr($0, RSTART + 9, RLENGTH - 9) + 0 > 0) {
      split($2, row, " ")
      print $1 ": corrupt cache read in " row[2] " (" \
            substr($0, RSTART + 1, RLENGTH - 1) ")"
    }
  }' "$WORK/cache-rows" 2>/dev/null)

echo "== gcov =="
find "$BUILD" -name '*.gcda' > "$WORK/gcda.list"
python3 - "$ROOT" "$WORK/gcda.list" <<'EOF'
import json, os, subprocess, sys
from collections import defaultdict

root, listing = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
# file -> line -> summed count over every translation unit.
counts = defaultdict(lambda: defaultdict(int))
for gcda in open(listing).read().split():
    out = subprocess.run(
        ["gcov", "--stdout", "--json-format", "-o", os.path.dirname(gcda),
         gcda], capture_output=True, check=True, cwd=os.path.dirname(gcda))
    for doc in out.stdout.decode().splitlines():
        if not doc.strip():
            continue
        for f in json.loads(doc)["files"]:
            path = os.path.normpath(os.path.join(root, f["file"]))
            if not path.startswith(src):
                continue
            for ln in f["lines"]:
                counts[path][ln["line_number"]] += ln["count"]

def ranges(lines):
    out, start, prev = [], None, None
    for n in lines:
        if start is None:
            start = prev = n
        elif n == prev + 1:
            prev = n
        else:
            out.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = prev = n
    if start is not None:
        out.append(f"{start}" if start == prev else f"{start}-{prev}")
    return ",".join(out)

total = unreached = 0
for path in sorted(counts):
    lines = counts[path]
    missed = sorted(n for n, c in lines.items() if c == 0)
    total += len(lines)
    unreached += len(missed)
    if missed:
        rel = os.path.relpath(path, root)
        print(f"{rel}: {len(missed)} of {len(lines)} unreached: "
              f"{ranges(missed)}")
print(f"coverage: {unreached} of {total} executable src/ lines never ran")
EOF

if [ "${#FAILED[@]}" != 0 ]; then
  echo "== failed runs (the listing above still counts them) =="
  printf '%s\n' "${FAILED[@]}"
fi
