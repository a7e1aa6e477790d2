#!/usr/bin/env bash
# Base-vs-head A/B of bench_micro: the kernel regression gate.
#
# Usage: scripts/bench_ab.sh <base-ref>
#
# Builds bench_micro at <base-ref> (checked out in a temporary git
# worktree) and at the working tree, both RelWithDebInfo, then runs the
# two binaries in 10 alternating pairs: base runs first in even pairs,
# head in odd ones.  Each run covers every benchmark head defines, at
# --benchmark_min_time=0.1.  Prints a per-benchmark table
# (median real time per iteration on each side, their ratio, the pairs
# head lost, the base runs' spread) and exits non-zero if any benchmark
# present on both sides regressed:
#
#   head is slower than base in all 10 pairs, AND
#   median(head) - median(base) exceeds the interquartile range of the
#   10 base runs.
#
# The rule is strict on purpose.  The same binary run against itself for
# 10 pairs on a 4-vCPU VM spreads 11-26% run to run (IQR/median), some
# benchmarks are bimodal per process, and one lost 9/10 pairs with a
# median gap above its IQR — so a 9/10 rule or a fixed 10% threshold
# would flake.  10/10 plus the IQR still catches a kernel that got ~25%
# slower.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
BASE_SHA=$(git rev-parse --verify "$1^{commit}")
PAIRS=10

WORK=$(mktemp -d)
cleanup() {
  git worktree remove --force "$WORK/base-src" > /dev/null 2>&1 || true
  git worktree prune
  rm -rf "$WORK"
}
trap cleanup EXIT

build() {  # build <label> <source dir>
  echo "== building bench_micro ($1) =="
  if ! { cmake -S "$2" -B "$WORK/$1" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$WORK/$1" --target bench_micro -j"$(nproc)"; } \
       > "$WORK/$1.log" 2>&1; then
    tail -n 30 "$WORK/$1.log" >&2
    echo "error: building bench_micro ($1) failed" >&2
    exit 1
  fi
}

git worktree add --quiet --detach "$WORK/base-src" "$BASE_SHA"
build base "$WORK/base-src"
build head .

# Restrict both sides to head's benchmarks: the comparison needs only the
# ones present on both, and base-only benchmarks would just cost time.
FILTER="^($("$WORK/head/bench/bench_micro" --benchmark_list_tests |
  paste -sd'|'))\$"

mkdir -p "$WORK/runs"
for ((i = 0; i < PAIRS; i++)); do
  if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
  echo "== pair $((i + 1))/$PAIRS ($order) =="
  for side in $order; do
    "$WORK/$side/bench/bench_micro" --benchmark_filter="$FILTER" \
      --benchmark_min_time=0.1 --benchmark_format=json \
      > "$WORK/runs/$side-$i.json"
  done
done

BASE="$1 ($(git rev-parse --short "$BASE_SHA"))" \
RUNS="$WORK/runs" PAIRS="$PAIRS" python3 - <<'EOF'
import json
import os
import statistics
import sys

runs, pairs = os.environ["RUNS"], int(os.environ["PAIRS"])
NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def load(side):
    """Per run: benchmark name -> real time per iteration in ns."""
    out = []
    for i in range(pairs):
        with open(f"{runs}/{side}-{i}.json") as f:
            data = json.load(f)
        out.append({b["name"]: b["real_time"] * NS[b["time_unit"]]
                    for b in data["benchmarks"]
                    if not b.get("error_occurred")})
    return out

def fmt(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"

base, head = load("base"), load("head")
print(f"\n== bench_ab: base {os.environ['BASE']} vs head (working tree), "
      f"{pairs} alternating pairs, real time per iteration ==")
print(f"{'benchmark':36} {'base':>10} {'head':>10} {'head/base':>9}"
      f" {'head slower':>11} {'base IQR':>8}  verdict")
regressions, compared = [], 0
for name in dict.fromkeys(n for r in head for n in r):
    h = [r.get(name) for r in head]
    b = [r.get(name) for r in base]
    if None in h or None in b:
        print(f"{name:36} {'-':>10} {'-':>10} {'-':>9} {'-':>11} {'-':>8}"
              f"  not on both sides")
        continue
    compared += 1
    b_med, h_med = statistics.median(b), statistics.median(h)
    q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive")
    lost = sum(hi > bi for hi, bi in zip(h, b))
    regressed = lost == pairs and h_med - b_med > q3 - q1
    if regressed:
        regressions.append(name)
    print(f"{name:36} {fmt(b_med):>10} {fmt(h_med):>10} {h_med / b_med:8.3f}x"
          f" {lost:>7}/{pairs:<3} {(q3 - q1) / b_med:7.1%}"
          f"  {'REGRESSION' if regressed else 'ok'}")

if regressions:
    print(f"\nbench_ab: REGRESSION (head slower in all {pairs} pairs by more "
          f"than the base IQR): {', '.join(regressions)}")
    sys.exit(1)
print(f"\nbench_ab: no regression over {compared} benchmarks")
EOF
