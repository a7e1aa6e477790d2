// Process run configuration: every NIMBUS_* runtime knob, in one value
// that the sweep runner, run_scenario, the process cache and the benches
// take their settings from.  A caller (or test) that wants other settings
// passes another value; only process_config() reads the environment.
//
// Parsing rules, for every knob: an empty value means unset.  Numbers are
// positive decimals starting with a digit ("1e6" and "2.5" parse; "four",
// "64k", "+4", " 4", "0x10" and "0" do not); booleans are exactly 0 or 1.
// Any other value, and any NIMBUS_* name that is neither a knob nor a
// script-level name listed in run_config.cc, CHECK-fails naming the
// variable, so a typo cannot silently run the default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/telemetry.h"

namespace nimbus::exp {

/// Result-cache mode (exp/result_cache.h).
enum class CacheMode { kOff, kRead, kReadWrite };

/// NIMBUS_SHARD: this process computes only the cells whose hash lands in
/// shard k of n (see result_cache.h).  1/1 is inactive.
struct ShardConfig {
  int k = 1;  // 1-based shard index
  int n = 1;  // shard count
  bool active() const { return n > 1; }
};

/// Watchdog limits for one scenario run (EventLoop::set_run_budget): stop
/// the event loop after `max_events` simulated events or `max_wall_seconds`
/// of real time, whichever trips first; 0 = unlimited.  A tripped run
/// returns normally with the loop short of spec.duration — callers detect
/// it via run.budget_stop() and must not score the truncated logs.
struct RunBudget {
  std::uint64_t max_events = 0;
  double max_wall_seconds = 0.0;

  bool limited() const { return max_events != 0 || max_wall_seconds > 0.0; }
};

/// Every knob, with its parsed default.  A default-constructed RunConfig
/// differs only in `jobs` (1): the serial, uncached, uninstrumented run.
struct RunConfig {
  int jobs = 1;  // NIMBUS_JOBS sweep workers (hardware concurrency)
  CacheMode cache = CacheMode::kOff;        // NIMBUS_CACHE off|read|readwrite
  std::string cache_dir = ".nimbus-cache";  // NIMBUS_CACHE_DIR
  ShardConfig shard;                        // NIMBUS_SHARD k/n
  RunBudget budget;  // NIMBUS_CELL_MAX_EVENTS, NIMBUS_CELL_WALL_SEC (seconds)
  obs::Mode obs = obs::Mode::kOff;  // NIMBUS_OBS off|counters|trace
  std::string obs_dir;  // NIMBUS_OBS_DIR trace/manifest artifacts (none)
  std::size_t obs_ring = obs::FlightRecorder::kDefaultCapacity;  // _OBS_RING
  bool bench_full = false;    // NIMBUS_BENCH_FULL: paper-length bench runs
  bool shape_strict = false;  // NIMBUS_SHAPE_STRICT: a WARN fails the bench
  std::string trace_dir = "data/traces";  // NIMBUS_TRACE_DIR (Mahimahi)
};

/// Parses a null-terminated "NAME=value" array; non-NIMBUS_* names pass.
RunConfig parse_run_config(const char* const* envp);

/// This process's configuration: parse_run_config(environ), parsed on
/// first use and fixed for the life of the process.
const RunConfig& process_config();

}  // namespace nimbus::exp
