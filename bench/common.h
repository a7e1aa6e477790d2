// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints CSV-ish rows to stdout (prefix "<figid>,") followed by
// SHAPE-CHECK lines asserting the qualitative result the paper reports.
// NIMBUS_BENCH_FULL=1 switches to full-length runs; the default shortens
// durations/seeds so `for b in build/bench/*; do $b; done` stays tractable.
//
// Network assembly lives exclusively in the scenario layer: benches
// describe experiments declaratively as ScenarioSpecs (exp/scenario.h) and
// run every sweep through exp::run_scenarios_cached (exp/runner.h).  Each
// bench's collect reduces a run to the flat CellResult values it prints:
// fixed summaries at named indices, then any variable-length series.
//
// SHAPE-CHECK exit discipline: shape_check prints PASS/WARN exactly as
// before (bench stdout is golden-diffed), and every bench returns
// bench::shape_exit_code() from main.  Under NIMBUS_SHAPE_STRICT=1 any
// WARN — except those a bench explicitly registers via
// shape_check_known_warn — makes that exit code 1, so CI catches
// qualitative regressions instead of scrolling past them.
#pragma once

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cc/cubic.h"
#include "core/nimbus.h"
#include "exp/ground_truth.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/schemes.h"
#include "exp/summary.h"
#include "sim/network.h"
#include "traffic/flow_workload.h"
#include "traffic/raw_sources.h"
#include "util/csv.h"

namespace nimbus::bench {

inline bool full_run() { return exp::process_config().bench_full; }

/// Scales an experiment duration down in quick mode.
inline TimeNs dur(double full_sec, double quick_sec) {
  return from_sec(full_run() ? full_sec : quick_sec);
}

/// WARNs that should fail a strict run (shape_check minus known-warn).
inline int& shape_warn_count() {
  static int count = 0;
  return count;
}

/// The one SHAPE-CHECK row format: golden-diffed and grepped for
/// "SHAPE-CHECK,WARN" by scripts/bench_suite.sh.
inline void print_shape_row(const std::string& fig, bool ok,
                            const std::string& claim) {
  std::printf("%s,SHAPE-CHECK,%s,%s\n", fig.c_str(), ok ? "PASS" : "WARN",
              claim.c_str());
}

inline void shape_check(const std::string& fig, bool ok,
                        const std::string& claim) {
  print_shape_row(fig, ok, claim);
  if (!ok) ++shape_warn_count();
}

/// A shape check whose WARN is understood and accepted (known
/// reproduction gap, documented at the call site): prints the same
/// PASS/WARN row but never fails a NIMBUS_SHAPE_STRICT run.  Keep the
/// justification in a comment next to the call.
inline void shape_check_known_warn(const std::string& fig, bool ok,
                                   const std::string& claim) {
  print_shape_row(fig, ok, claim);
}

/// Process exit code for a finished bench: nonzero iff strict mode is on
/// and a non-known-warn shape check WARNed.  Also the one place every
/// bench passes through on exit, so the cache stats line prints
/// here — to stderr, keeping stdout byte-identical cold vs warm.
inline int shape_exit_code() {
  exp::print_cache_stats_if_active(stderr);
  if (exp::process_config().shape_strict && shape_warn_count() > 0) {
    std::fprintf(stderr,
                 "NIMBUS_SHAPE_STRICT: %d shape check(s) WARNed\n",
                 shape_warn_count());
    return 1;
  }
  return 0;
}

inline void row(const std::string& fig, const std::string& label,
                std::initializer_list<double> values) {
  std::printf("%s,%s", fig.c_str(), label.c_str());
  for (double v : values) std::printf(",%s", util::format_num(v).c_str());
  std::printf("\n");
}

}  // namespace nimbus::bench
