#!/usr/bin/env python3
"""Benchmark of the nimbus simulator: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds perfbench/driver.cc against the library sources in src/
(CMake, into .bench_build/ at the repository root), runs the driver for
--seconds of measurement, and prints as the last line of stdout one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the simulator's counters
are on and the metrics are the per-layer ones.  Build output and progress go
to stderr.  The exit code is nonzero, and no result is printed, when the
build or the driver fails.

Workloads (each a sweep of scenario cells; see driver.cc):
  classes     constant-rate link, one cross-traffic class per cell
  phases      cross traffic that alternates between elastic and inelastic
  varlink     time-varying link rate: sinusoids, random walk, traces
  impairment  bursty loss, ACK loss, jitter/reordering and link flaps

End-to-end metrics (--trace 0):
  sweep_s   CPU time of one sweep: the sum over cells of each cell's median
            (run, score, tear down), scaled to the reference host
  accuracy  share of scored mode decisions that match the truth (is elastic
            cross traffic present?), pooled over the cells: the paper's
            detection accuracy
  delay_ms  mean bottleneck queueing delay after warm-up, over the cells
  setup_s   median CPU time to build the sweep's specs and assemble every
            cell's network, scaled to the reference host

Per-layer metrics (--trace 1) are spans the driver records around its calls
into each layer (assembly, event loop, scoring, teardown, spec hashing, the
result cache, a detector replay), scaled the same way, and work counts from
the simulator's counters registry.

A run is correct when every cell reaches its end time, every repeat of a
cell reproduces the first outcome bit for bit, the result cache returns what
was stored (--trace 1), and the pooled accuracy clears the workload's floor.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("classes", "phases", "varlink", "impairment")

# Wall-clock limit on the driver: a whole run must end within 180 s.
DRIVER_TIMEOUT_S = 170

# Host speed on a shared machine drifts by tens of percent within seconds,
# so the driver times a fixed reference kernel around every cell and every
# set-up, and each reported time is (CPU time / kernel time) * REF_KERNEL_S:
# CPU seconds on a reference host where the kernel takes exactly
# REF_KERNEL_S (about its median on the 4-vCPU Xeon VM this benchmark was
# calibrated on).
REF_KERNEL_S = 0.004

# Lowest acceptable classification accuracy per workload.  Every workload
# stays inside the region where the paper's detector works; the measured
# accuracies sit at 0.9 and above, so a value below these floors is a broken
# detector, not noise.
ACCURACY_FLOOR = {
    "classes": 0.85,
    "phases": 0.75,
    "varlink": 0.85,
    "impairment": 0.85,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "scenario.h")):
        log("run.py: library sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_driver(args, work_dir):
    """Runs the driver; returns its raw JSON object, or None on failure."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NIMBUS_")}
    env["NIMBUS_JOBS"] = "1"
    env["NIMBUS_OBS"] = "counters" if args.trace else "off"
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: driver timed out")
        return None
    if proc.returncode != 0:
        log(f"run.py: driver exited with {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def scaled(samples, refs):
    """Median of samples/ref, in seconds on the reference host."""
    return REF_KERNEL_S * statistics.median(
        x / r for x, r in zip(samples, refs))


def sweep(per_cell, refs):
    """One sweep's time on the reference host: the sum over cells of each
    cell's scaled median, so a slow repeat of one cell does not count."""
    return sum(scaled(c, r) for c, r in zip(per_cell, refs) if c)


def outcomes(raw):
    """Per-cell outcome vectors: agree, scored, delay_ms, mode_switches,
    reports, events.  A cell that never finished has none (and is counted
    as failed by the driver)."""
    return [o for o in raw["outcomes"] if o] or [[0, 1, 0, 0, 0, 1]]


def end_to_end(raw):
    cells = outcomes(raw)
    return {
        "sweep_s": (sweep(raw["cpu_s"], raw["ref_s"]), "s"),
        "accuracy": (sum(o[0] for o in cells) / sum(o[1] for o in cells),
                     "frac"),
        "delay_ms": (statistics.mean(o[2] for o in cells), "ms"),
        "setup_s": (scaled(raw["setup_s"], raw["setup_ref_s"]), "s"),
    }


def per_layer(raw):
    spans, refs = raw["spans"], raw["ref_s"]
    counters = raw["counters"]
    cells = outcomes(raw)
    events = sum(o[5] for o in cells)
    simulate_s = sweep(spans["simulate_s"], refs)
    detector_s = statistics.median(
        scaled(c, r)
        for c, r in zip(spans["detector_s_per_sample"], refs) if c)

    def count(prefix):
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    return {
        "traced_sweep_s": (sweep(raw["cpu_s"], refs), "s"),
        "ref_kernel_ms": (1e3 * statistics.median(r for c in refs for r in c),
                          "ms"),
        "assemble_ms": (1e3 * sweep(spans["assemble_s"], refs), "ms"),
        "simulate_ms": (1e3 * simulate_s, "ms"),
        "score_ms": (1e3 * sweep(spans["score_s"], refs), "ms"),
        "teardown_ms": (1e3 * sweep(spans["teardown_s"], refs), "ms"),
        "loop_ns_per_event": (1e9 * simulate_s / events, "ns"),
        "detector_ns_per_sample": (1e9 * detector_s, "ns"),
        "canon_us": (1e6 * sweep(spans["canon_s"], refs), "us"),
        "cache_store_us": (1e6 * sweep(spans["cache_store_s"], refs), "us"),
        "cache_load_us": (1e6 * sweep(spans["cache_load_s"], refs), "us"),
        "events": (events, "count"),
        "far_heap_inserts": (count("loop.far_heap_inserts"), "count"),
        "link_enqueues": (count("link.enqueues"), "count"),
        "link_drops": (count("link.drops."), "count"),
        "transport_acks": (count("transport.acks"), "count"),
        "transport_retransmits": (count("transport.retransmits"), "count"),
        "detector_reports": (sum(o[4] for o in cells), "count"),
        "mode_switches": (sum(o[3] for o in cells), "count"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("run.py: build failed")
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        raw = run_driver(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if raw is None:
        return 1

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    accuracy = end_to_end(raw)["accuracy"][0]
    correct = (raw["failed"] == 0
               and accuracy >= ACCURACY_FLOOR[args.workload]
               and all(math.isfinite(v) for v, _ in metrics.values()))
    for why in raw["failures"]:
        log(f"run.py: failure: {why}")
    if accuracy < ACCURACY_FLOOR[args.workload]:
        log(f"run.py: accuracy {accuracy:.3f} below the "
            f"{ACCURACY_FLOOR[args.workload]} floor")
    log(f"run.py: {raw['sweeps']} sweeps of {raw['cells']} cells in "
        f"{raw['measured_s']:.2f} s")

    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
