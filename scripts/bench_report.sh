#!/usr/bin/env bash
# Perf measurement layer: runs the event-loop, ACK-path, loss-detection,
# delivery-path, spectral-detector, sweep-cache, telemetry-overhead,
# trace-ingest and end-to-end microbenchmarks, times the full strict-shape
# quick bench suite cold (NIMBUS_CACHE=off; in total and bench by bench)
# and warm (result cache pre-populated), and emits a BENCH_*.json
# snapshot so every later PR can be compared against this one.
#
# Usage: scripts/bench_report.sh [--quick] [--compare BASELINE.json] [output.json]
#
#   --quick     shorter benchmark repetitions (CI smoke; timings noisier)
#   --compare   print a per-bench delta table against a previous BENCH_*.json
#               and gate: exit non-zero if either same-binary pair in the
#               current run falls under its floor — the warm-cache sweep
#               cell must stay >= 5x the cold one, and the steady-state
#               event loop with counters on must keep >= 0.90x the
#               events/sec of counters off.  (Absolute numbers drift 20%+
#               between runs days apart as VMs migrate between hosts, so
#               the cross-file table is printed for trajectory only; the
#               gate uses same-run, same-process pairs.  Kernel regressions
#               against an earlier commit are scripts/bench_ab.sh's job.)
#   output      defaults to BENCH_PR29.json in the repo root
#
# All micro numbers are medians of 3 repetitions.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
OUT=BENCH_PR29.json
COMPARE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --compare)
      shift
      COMPARE="${1:?--compare needs a baseline json}"
      ;;
    -*) echo "usage: $0 [--quick] [--compare BASELINE.json] [output.json]" >&2; exit 2 ;;
    *) OUT="$1" ;;
  esac
  shift
done

BUILD="${BUILD_DIR:-build}"
MICRO="$BUILD/bench/bench_micro"
FIG08="$BUILD/bench/bench_fig08"
if [ ! -x "$MICRO" ]; then
  echo "error: $MICRO not built (configure with google-benchmark installed)" >&2
  exit 1
fi

MIN_TIME=0.5
if [ "$QUICK" = 1 ]; then MIN_TIME=0.05; fi

MICRO_JSON=$(mktemp)
trap 'rm -f "$MICRO_JSON"' EXIT

echo "== bench_micro (min_time=${MIN_TIME}s, median of 3) =="
"$MICRO" \
  --benchmark_filter='EventLoop|Timer|SimulatedSecond|AckPath|LossDetect|Delivery|Spectral|SweepCell|TraceIngest' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$MICRO_JSON"

# All wall-clock timing passes pin NIMBUS_CACHE=off:
# the report's cold numbers must measure the simulator, not whatever
# result cache the environment happens to carry.  The warm suite pass
# below opts back in explicitly.
echo "== bench_fig08 quick mode (wall clock) =="
FIG08_START=$(date +%s.%N)
NIMBUS_CACHE=off "$FIG08" > /dev/null
FIG08_END=$(date +%s.%N)
FIG08_SECS=$(echo "$FIG08_END $FIG08_START" | awk '{printf "%.2f", $1 - $2}')
echo "bench_fig08 quick: ${FIG08_SECS}s"

VARLINK="$BUILD/bench/bench_varlink"
VARLINK_SECS=""
if [ -x "$VARLINK" ]; then
  echo "== bench_varlink quick mode (wall clock) =="
  VARLINK_START=$(date +%s.%N)
  NIMBUS_CACHE=off "$VARLINK" > /dev/null
  VARLINK_END=$(date +%s.%N)
  VARLINK_SECS=$(echo "$VARLINK_END $VARLINK_START" | awk '{printf "%.2f", $1 - $2}')
  echo "bench_varlink quick: ${VARLINK_SECS}s"
fi

# Full strict-shape quick suite (all figure/table benches, bench_micro
# excluded): the suite total is the "does the whole reproduction still run
# fast" number the ROADMAP tracks, and strict shape checking makes this a
# correctness gate at the same time (a WARNing bench fails the report).
echo "== bench_suite quick mode (strict shape checks, cold, total wall clock) =="
SUITE_LOG=$(mktemp)
trap 'rm -f "$MICRO_JSON" "$SUITE_LOG"' EXIT
SUITE_START=$(date +%s.%N)
NIMBUS_CACHE=off scripts/bench_suite.sh | tee "$SUITE_LOG"
SUITE_END=$(date +%s.%N)
SUITE_SECS=$(echo "$SUITE_END $SUITE_START" | awk '{printf "%.2f", $1 - $2}')
echo "bench_suite quick total (cold): ${SUITE_SECS}s"

# Warm pass (PR 7): populate a fresh result cache, then time the suite
# again served from it.  Informational — the warm wall and hit rate land
# in end_to_end but are not gated here (the gated warm-vs-cold pair is the
# same-binary BM_SweepCell pair above; CI additionally diffs cold-vs-warm
# stdout byte-for-byte).
CACHE_DIR=$(mktemp -d)
WARM_LOG=$(mktemp)
trap 'rm -f "$MICRO_JSON" "$SUITE_LOG" "$WARM_LOG"; rm -rf "$CACHE_DIR"' EXIT
echo "== bench_suite warm pass (populate + reread from result cache) =="
NIMBUS_CACHE=readwrite NIMBUS_CACHE_DIR="$CACHE_DIR" \
  scripts/bench_suite.sh > /dev/null
WARM_START=$(date +%s.%N)
NIMBUS_CACHE=read NIMBUS_CACHE_DIR="$CACHE_DIR" \
  scripts/bench_suite.sh > "$WARM_LOG"
WARM_END=$(date +%s.%N)
WARM_SECS=$(echo "$WARM_END $WARM_START" | awk '{printf "%.2f", $1 - $2}')
# Aggregate hit rate across the suite from the surfaced per-bench
# "cache <bench> nimbus-cache: ... hits=H misses=M ..." rows.
HIT_RATE=$(grep -o 'hits=[0-9]* misses=[0-9]*' "$WARM_LOG" | awk -F'[= ]' \
  '{h += $2; m += $4} END {if (h + m > 0) printf "%.4f", h / (h + m)}')
echo "bench_suite quick total (warm): ${WARM_SECS}s (hit rate ${HIT_RATE:-n/a})"

OUT="$OUT" MICRO_JSON="$MICRO_JSON" FIG08_SECS="$FIG08_SECS" QUICK="$QUICK" \
VARLINK_SECS="$VARLINK_SECS" SUITE_SECS="$SUITE_SECS" COMPARE="$COMPARE" \
SUITE_LOG="$SUITE_LOG" \
WARM_SECS="$WARM_SECS" HIT_RATE="$HIT_RATE" \
python3 - <<'EOF'
import json
import os
import re
import sys

micro = json.load(open(os.environ["MICRO_JSON"]))
# Keyed by run_name, keeping the median aggregate of the 3 repetitions.
by_name = {}
for b in micro["benchmarks"]:
    if b.get("aggregate_name", "median") == "median":
        by_name[b.get("run_name", b["name"])] = b

def items_per_sec(name):
    b = by_name.get(name)
    return b["items_per_second"] if b else None

def pair(current, baseline, min_speedup):
    """A same-binary pair: --compare fails when current/baseline items/sec
    falls under min_speedup."""
    after = items_per_sec(current)
    before = items_per_sec(baseline)
    out = {"before_events_per_sec": before, "after_events_per_sec": after,
           "min_speedup": min_speedup}
    if before and after:
        # Unrounded: the gate compares this value, so a ratio just under
        # its floor must not round up to it.  Displays format it.
        out["speedup"] = after / before
    return out

# Per-bench cold wall seconds from the suite's "ok|FAIL  <bench> (<s>s, ..."
# rows.
by_bench = {}
with open(os.environ["SUITE_LOG"]) as f:
    for line in f:
        m = re.match(r"(?:ok|FAIL)\s+(\S+) \((?:rc=\d+, )?([0-9.]+)s,", line)
        if m:
            by_bench[m.group(1)] = float(m.group(2))

cubic = by_name.get("BM_SimulatedSecondCubic")
scenario = by_name.get("BM_SimulatedSecondScenario")

report = {
    "pr": 29,
    "generated_by": "scripts/bench_report.sh"
                    + (" --quick" if os.environ["QUICK"] == "1" else ""),
    "host": micro.get("context", {}),
    # Items/sec of every benchmark above, each measuring current code.
    "microbench": {name: b.get("items_per_second")
                   for name, b in sorted(by_name.items())},
    # Warm = the same 4-cell scored grid served from a pre-populated
    # on-disk result cache (parse + checksum + CellResult decode per cell);
    # cold = full simulation of each cell, same binary, same process.  The
    # measured ratio is ~250x, so the 5x floor only trips if the cache path
    # breaks (e.g. silent misses falling through to simulation).
    "sweep_cache_microbench": {
        "warm_vs_cold_cell": pair("BM_SweepCellWarmCache",
                                  "BM_SweepCellColdCompute", 5.0),
    },
    # Telemetry overhead: the identical steady-state event-loop workload
    # with a MetricsRegistry attached (every fire bumps loop.events_fired,
    # every reschedule a wheel/heap insert counter) vs telemetry off, same
    # binary and process.  The "speedup" is counters-on / off, so the 0.90
    # floor holds counters to < 10% of events/sec.
    "obs_microbench": {
        "counters_on_vs_off": pair("BM_EventLoopSteadyStateCountersOn",
                                   "BM_EventLoopSteadyState", 0.90),
    },
    "end_to_end": {
        "simulated_second_cubic_sim_sec_per_wall_sec":
            cubic["items_per_second"] if cubic else None,
        "scenario_sim_sec_per_wall_sec":
            scenario["items_per_second"] if scenario else None,
        "scenario_events_per_sim_sec":
            scenario.get("events_per_sim_sec") if scenario else None,
        "bench_fig08_quick_wall_seconds": float(os.environ["FIG08_SECS"]),
        "bench_varlink_quick_wall_seconds":
            float(os.environ["VARLINK_SECS"])
            if os.environ.get("VARLINK_SECS") else None,
        # Total wall clock of scripts/bench_suite.sh (every figure/table
        # bench in quick mode under NIMBUS_SHAPE_STRICT=1).  New in PR 6.
        "bench_suite_quick_total_wall_seconds":
            float(os.environ["SUITE_SECS"])
            if os.environ.get("SUITE_SECS") else None,
        # PR 21: the same cold pass, bench by bench (wall seconds each, as
        # bench_suite.sh times them).
        "bench_suite_quick_cold_wall_seconds_by_bench": by_bench,
        # PR 7, informational: the same suite re-run from a result cache
        # populated moments earlier (NIMBUS_CACHE=read), and the aggregate
        # cache hit rate during that run.  Every bench sweeps through
        # run_scenarios_cached, so the warm wall is the non-sweep part of
        # each bench (process start, trace set-up, printing) plus cache
        # reads.
        "bench_suite_quick_warm_wall_seconds":
            float(os.environ["WARM_SECS"])
            if os.environ.get("WARM_SECS") else None,
        "bench_suite_warm_cache_hit_rate":
            float(os.environ["HIT_RATE"])
            if os.environ.get("HIT_RATE") else None,
        # Seed commit (80dcab9) measured on the PR-2 dev container for
        # reference; host-specific.
        "seed_baseline_dev_host": {
            "bench_fig08_quick_wall_seconds": 7.21,
            "simulated_second_cubic_sim_sec_per_wall_sec": 11.9,
        },
        # PR 2 HEAD measured on the PR-3 dev container (same session as
        # this report's numbers): quick-mode wall seconds before/after the
        # ACK-path rewrite, bit-identical output.
        "pr2_baseline_dev_host": {
            "bench_fig08_quick_wall_seconds": 4.73,
            "bench_fig09_quick_wall_seconds": 2.88,
            "bench_table1_quick_wall_seconds": 5.72,
        },
    },
}

out = os.environ["OUT"]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

def rows(rep):
    """Every items/sec figure of a report, for the cross-file table: the
    after side of each pair in any section (older reports carry more
    sections) and each single microbenchmark."""
    for s, sec in rep.items():
        if s == "microbench":
            for name, v in sec.items():
                if v:
                    yield f"microbench.{name}", {"after_events_per_sec": v}
        elif isinstance(sec, dict):
            for name, p in sec.items():
                if isinstance(p, dict) and p.get("after_events_per_sec"):
                    yield f"{s}.{name}", p

def ratio(p, digits=2):
    if p.get("speedup") is None:
        return f"{'-':>7}"
    return f"{p['speedup']:6.{digits}f}x"

sweep = report["sweep_cache_microbench"]["warm_vs_cold_cell"]
obs = report["obs_microbench"]["counters_on_vs_off"]
print(f"wrote {out}")
print(f"telemetry overhead, counters-on vs off events/sec: "
      f"{obs['before_events_per_sec']:.3g} -> "
      f"{obs['after_events_per_sec']:.3g} ({ratio(obs, 3).strip()}, "
      f"gate >= {obs['min_speedup']}x)")
print(f"sweep cells/sec, warm cache vs cold compute: "
      f"{sweep['before_events_per_sec']:.3g} -> "
      f"{sweep['after_events_per_sec']:.3g} ({ratio(sweep, 3).strip()}, "
      f"gate >= {sweep['min_speedup']}x)")
e2e = report["end_to_end"]
print(f"bench_suite quick total wall: "
      f"cold {e2e['bench_suite_quick_total_wall_seconds']}s, "
      f"warm {e2e['bench_suite_quick_warm_wall_seconds']}s "
      f"(hit rate {e2e['bench_suite_warm_cache_hit_rate']})")

# ---- --compare: cross-file delta table + same-run regression gate -------

baseline_path = os.environ["COMPARE"]
if baseline_path:
    base = json.load(open(baseline_path))
    prev = dict(rows(base))
    cur = dict(rows(report))

    print(f"\n== delta vs {baseline_path} (pr {base.get('pr', '?')}; "
          f"cross-session numbers drift with VM placement — informational) ==")
    print(f"{'bench':52} {'prev ev/s':>11} {'now ev/s':>11} {'abs':>8}"
          f" {'prev x':>7} {'now x':>7}")
    for name in sorted(set(cur) | set(prev)):
        c, p = cur.get(name), prev.get(name)
        if not p:
            print(f"{name:52} {'-':>11} {c['after_events_per_sec']:11.3g}"
                  f" {'new':>8} {'-':>7} {ratio(c)}")
            continue
        if not c:
            print(f"{name:52} {p['after_events_per_sec']:11.3g} {'-':>11}"
                  f" {'gone':>8}")
            continue
        abs_delta = (c["after_events_per_sec"] / p["after_events_per_sec"]
                     - 1.0) * 100.0
        print(f"{name:52} {p['after_events_per_sec']:11.3g}"
              f" {c['after_events_per_sec']:11.3g} {abs_delta:+7.1f}%"
              f" {ratio(p)} {ratio(c)}")

    e_prev = base.get("end_to_end", {})
    w_cur = report["end_to_end"].get("bench_fig08_quick_wall_seconds")
    w_prev = e_prev.get("bench_fig08_quick_wall_seconds")
    if w_cur and w_prev:
        print(f"{'fig08 quick wall (s)':52} {w_prev:11.2f} {w_cur:11.2f}"
              f" {(w_cur / w_prev - 1.0) * 100.0:+7.1f}%")
    b_prev = e_prev.get("bench_suite_quick_cold_wall_seconds_by_bench", {})
    for name, w in sorted(report["end_to_end"][
            "bench_suite_quick_cold_wall_seconds_by_bench"].items()):
        if b_prev.get(name):
            print(f"{name + ' quick cold wall (s)':52} {b_prev[name]:11.2f}"
                  f" {w:11.2f} {(w / b_prev[name] - 1.0) * 100.0:+7.1f}%")
    s_cur = report["end_to_end"].get("bench_suite_quick_total_wall_seconds")
    s_prev = e_prev.get("bench_suite_quick_total_wall_seconds")
    if s_cur and s_prev:
        print(f"{'bench_suite quick total wall (s)':52} {s_prev:11.2f}"
              f" {s_cur:11.2f} {(s_cur / s_prev - 1.0) * 100.0:+7.1f}%")

    # The gate: the current run's same-binary pairs, each against its
    # floor.  Both sides run in one process, so the ratio holds on
    # whichever physical host this run landed on.
    failures = []
    for sec in ("sweep_cache_microbench", "obs_microbench"):
        for name, p in report[sec].items():
            if p.get("speedup") is None or p["speedup"] < p["min_speedup"]:
                failures.append(f"{sec}.{name}: {ratio(p, 3).strip()} "
                                f"(floor {p['min_speedup']}x)")
    if failures:
        print("\nREGRESSIONS:")
        for f_ in failures:
            print(f"  {f_}")
        sys.exit(1)
    print("\ngate: both same-binary pairs above their floors")
EOF
