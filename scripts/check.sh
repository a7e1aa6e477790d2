#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the test suite, then smoke-run three
# scenario-layer benches (quick mode) and fail unless they complete and
# print their SHAPE-CHECK lines.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

# Extra configure flags (CI passes -DNIMBUS_WERROR=ON here).
# shellcheck disable=SC2086
cmake -B build -S . ${NIMBUS_CMAKE_ARGS:-}
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

echo "== smoke: bench_ablation =="
./build/bench/bench_ablation | tee /tmp/nimbus_smoke_ablation.csv | tail -n 4
grep -q "SHAPE-CHECK" /tmp/nimbus_smoke_ablation.csv

echo "== smoke: bench_table1 =="
./build/bench/bench_table1 | tee /tmp/nimbus_smoke_table1.csv | tail -n 4
grep -q "SHAPE-CHECK" /tmp/nimbus_smoke_table1.csv

# A declared-RTT reader: its collect reads rtt_samples(1), so a spec path
# that stops recording the protagonist's RTT shows up here.
echo "== smoke: bench_fig09 =="
./build/bench/bench_fig09 | tee /tmp/nimbus_smoke_fig09.csv | tail -n 4
grep -q "SHAPE-CHECK" /tmp/nimbus_smoke_fig09.csv

echo "check.sh: OK"
