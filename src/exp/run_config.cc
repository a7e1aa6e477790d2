// The one reader of the process environment: detlint R1 permits getenv
// and environ in this file and nowhere else under src/.
#include "exp/run_config.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"

extern char** environ;  // POSIX

namespace nimbus::exp {
namespace {

constexpr double kIntMax = INT_MAX;
constexpr double kExactMax = 0x1p53;  // past here doubles skip integers
constexpr double kBad = std::numeric_limits<double>::quiet_NaN();

struct Entry {
  std::string name;
  std::string value;
};

void reject(const Entry& e, const std::string& expected) {
  const std::string msg = e.name + "=\"" + e.value + "\": expected " + expected;
  NIMBUS_CHECK_MSG(false, msg.c_str());
}

/// The positive-decimal rule every numeric knob shares: starts with a
/// digit, only digits/point/exponent, consumed whole by strtod, finite and
/// > 0.  NaN when `s` breaks it (no sign, whitespace, hex, inf or suffix).
double positive_decimal(const std::string& s) {
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])) ||
      s.find_first_not_of("0123456789.eE+-") != std::string::npos) {
    return kBad;
  }
  char* end = nullptr;
  const double x = std::strtod(s.c_str(), &end);
  return *end == '\0' && std::isfinite(x) && x > 0.0 ? x : kBad;
}

double positive(const Entry& e) {
  const double x = positive_decimal(e.value);
  if (!(x > 0.0)) reject(e, "a positive number");
  return x;
}

double whole(const Entry& e, double max) {
  const double x = positive_decimal(e.value);
  if (!(x == std::floor(x) && x <= max)) {  // NaN fails, so rejects
    reject(e, "a positive whole number no larger than " +
                  std::to_string(static_cast<std::uint64_t>(max)));
  }
  return x;
}

bool boolean(const Entry& e) {
  if (e.value != "0" && e.value != "1") reject(e, "0 or 1");
  return e.value == "1";
}

CacheMode cache_mode(const Entry& e) {
  if (e.value == "read") return CacheMode::kRead;
  if (e.value == "readwrite") return CacheMode::kReadWrite;
  if (e.value != "off") reject(e, "off|read|readwrite");
  return CacheMode::kOff;
}

obs::Mode obs_mode(const Entry& e) {
  if (e.value == "counters") return obs::Mode::kCounters;
  if (e.value == "trace") return obs::Mode::kTrace;
  if (e.value != "off") reject(e, "off|counters|trace");
  return obs::Mode::kOff;
}

}  // namespace

RunConfig parse_run_config(const char* const* envp) {
  std::vector<Entry> env;  // every NIMBUS_* entry, in order
  for (; envp != nullptr && *envp != nullptr; ++envp) {
    const std::string kv = *envp;
    if (kv.rfind("NIMBUS_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    env.push_back({kv.substr(0, eq),
                   eq == std::string::npos ? "" : kv.substr(eq + 1)});
  }
  // Removes `name`'s entries from env; true, with the first in *e, when it
  // has a value (getenv's choice among duplicates).
  const auto take = [&env](const char* name, Entry* e) {
    const auto named = [name](const Entry& x) { return x.name == name; };
    const auto it = std::find_if(env.begin(), env.end(), named);
    if (it == env.end()) return false;
    *e = *it;
    env.erase(std::remove_if(it, env.end(), named), env.end());
    return !e->value.empty();
  };

  RunConfig c;
  const unsigned hw = std::thread::hardware_concurrency();
  c.jobs = hw > 0 ? static_cast<int>(hw) : 1;
  Entry e;
  if (take("NIMBUS_JOBS", &e)) c.jobs = static_cast<int>(whole(e, kIntMax));
  if (take("NIMBUS_CACHE", &e)) c.cache = cache_mode(e);
  if (take("NIMBUS_CACHE_DIR", &e)) c.cache_dir = e.value;
  if (take("NIMBUS_CELL_MAX_EVENTS", &e)) {
    c.budget.max_events = static_cast<std::uint64_t>(whole(e, kExactMax));
  }
  if (take("NIMBUS_CELL_WALL_SEC", &e)) c.budget.max_wall_seconds = positive(e);
  if (take("NIMBUS_OBS", &e)) c.obs = obs_mode(e);
  if (take("NIMBUS_OBS_DIR", &e)) c.obs_dir = e.value;
  if (take("NIMBUS_OBS_RING", &e)) {
    c.obs_ring = static_cast<std::size_t>(whole(e, kExactMax));
  }
  if (take("NIMBUS_BENCH_FULL", &e)) c.bench_full = boolean(e);
  if (take("NIMBUS_SHAPE_STRICT", &e)) c.shape_strict = boolean(e);
  if (take("NIMBUS_TRACE_DIR", &e)) c.trace_dir = e.value;
  // Script-level names: read by a script, inherited (and ignored) by the
  // binaries it launches.
  take("NIMBUS_CMAKE_ARGS", &e);     // scripts/check.sh
  take("NIMBUS_SUITE_OUTDIR", &e);   // scripts/bench_suite.sh
  take("NIMBUS_BENCH_TIMEOUT", &e);  // scripts/bench_suite.sh
  if (!env.empty()) {
    const std::string msg = env.front().name +
                            ": unknown NIMBUS_* variable (the knobs are "
                            "listed in exp/run_config.h)";
    NIMBUS_CHECK_MSG(false, msg.c_str());
  }
  return c;
}

const RunConfig& process_config() {
  static const RunConfig cfg = parse_run_config(environ);
  return cfg;
}

}  // namespace nimbus::exp
