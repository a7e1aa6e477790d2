// Tests for the deterministic telemetry layer (src/obs/ + its exp-layer
// wiring): allocation-free hot-path updates (counting operator-new hook,
// same idiom as event_loop_test), flight-recorder ring semantics,
// run-to-run telemetry determinism under a fixed seed, sweep-manifest
// equality between parallel and serial runs, watchdog post-mortems on
// budget-tripped cells, and Chrome-trace JSON well-formedness (accepted
// by the RFC 8259 validator, rejected once hand-corrupted).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "obs/flight_recorder.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

// --- counting operator-new hook (whole test binary) ---------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// noinline: see event_loop_test.cc — inlined hook bodies trip a spurious
// -Wmismatched-new-delete under -Werror on gcc 12.
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nimbus {
namespace {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- metrics registry ---------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameSlot) {
  obs::MetricsRegistry m;
  obs::Counter a = m.counter("link.drops");
  obs::Counter b = m.counter("link.drops");
  EXPECT_EQ(a.v, b.v);
  a.inc(3);
  b.inc(2);
  const auto snap = m.snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap[0].first, "link.drops");
  EXPECT_DOUBLE_EQ(snap[0].second, 5.0);
}

TEST(MetricsRegistryTest, NullHandlesAreInertBranches) {
  obs::Counter c;   // telemetry off: null pointer
  obs::Gauge g;
  obs::Histogram h;
  EXPECT_FALSE(c.active());
  c.inc();          // must be safe no-ops
  g.set(1.0);
  h.observe(42);
}

TEST(MetricsRegistryTest, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
  obs::MetricsRegistry m;
  obs::Histogram h = m.histogram("batch");
  h.observe(1);
  h.observe(3);
  h.observe(3);
  const auto snap = m.snapshot();
  // Flattened non-empty buckets plus the total count, in bucket order.
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "batch.p2_1");
  EXPECT_DOUBLE_EQ(snap[0].second, 1.0);
  EXPECT_EQ(snap[1].first, "batch.p2_2");
  EXPECT_DOUBLE_EQ(snap[1].second, 2.0);
  EXPECT_EQ(snap[2].first, "batch.count");
  EXPECT_DOUBLE_EQ(snap[2].second, 3.0);
}

TEST(MetricsRegistryTest, UpdatesDoNotAllocate) {
  obs::MetricsRegistry m;
  obs::Counter c = m.counter("c");
  obs::Gauge g = m.gauge("g");
  obs::Histogram h = m.histogram("h");
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 100000; ++i) {
    c.inc();
    g.set(static_cast<double>(i));
    h.observe(static_cast<std::uint64_t>(i & 1023));
  }
  EXPECT_EQ(alloc_count(), before)
      << "counter/gauge/histogram updates must be plain array writes";
}

// --- flight recorder ----------------------------------------------------

obs::TraceEvent make_event(TimeNs t, obs::TraceKind kind, std::uint32_t a) {
  obs::TraceEvent e;
  e.t = t;
  e.kind = static_cast<std::uint16_t>(kind);
  e.a = a;
  return e;
}

TEST(FlightRecorderTest, AppendsDoNotAllocate) {
  obs::FlightRecorder rec(1024);
  obs::Trace trace{&rec};
  const obs::TraceEvent e =
      make_event(from_ms(1), obs::TraceKind::kModeSwitch, 1);
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 100000; ++i) trace.emit(e);
  EXPECT_EQ(alloc_count(), before)
      << "ring appends (including overwrite past capacity) must not "
         "allocate";
  EXPECT_EQ(rec.size(), 1024u);
  EXPECT_EQ(rec.dropped(), 100000u - 1024u);
}

TEST(FlightRecorderTest, OverflowEvictsOldest) {
  obs::FlightRecorder rec(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    rec.append(make_event(from_ms(i), obs::TraceKind::kMuChange, i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (a = 0, 1) evicted; survivors in time order.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].a, i + 2);
}

TEST(FlightRecorderTest, InactiveTraceHandleDropsEvents) {
  obs::Trace trace;  // null recorder: telemetry off
  EXPECT_FALSE(trace.active());
  trace.emit(make_event(0, obs::TraceKind::kLossEpisode, 0));  // no-op
}

// --- chrome trace JSON --------------------------------------------------

TEST(ChromeTraceTest, ExportIsValidJsonAndCorruptionIsRejected) {
  obs::FlightRecorder rec(64);
  obs::TraceEvent e = make_event(from_ms(5), obs::TraceKind::kDetectorDecision, 1);
  e.v0 = 2.5;   // eta
  e.v2 = 2.0;   // threshold
  rec.append(e);
  rec.append(make_event(from_ms(6), obs::TraceKind::kModeSwitch, 1));
  const std::string path =
      std::filesystem::temp_directory_path() / "obs_test_trace.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  rec.write_chrome_trace(f);
  std::fclose(f);
  const std::string json = read_file(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("detector_decision"), std::string::npos);
  EXPECT_NE(json.find("mode_switch"), std::string::npos);
  // Hand-corrupted variants must be rejected, so the CI validation step
  // is demonstrably able to fail.
  EXPECT_FALSE(obs::json_valid(json.substr(0, json.size() / 2)));
  std::string bare_nan = json;
  bare_nan.replace(bare_nan.find("2.5"), 3, "nan");
  EXPECT_FALSE(obs::json_valid(bare_nan));
  EXPECT_FALSE(obs::json_valid(json + "{}"));
}

// --- scenario-level determinism ----------------------------------------

exp::ScenarioSpec obs_spec(std::uint64_t seed) {
  exp::ScenarioSpec spec;
  spec.name = "obs/test";
  spec.mu_bps = 24e6;
  spec.duration = from_sec(8);
  spec.protagonist.use_nimbus_config = true;
  spec.cross.push_back(exp::CrossSpec::flow("cubic", 2, from_sec(1)));
  return spec.with_seed(seed);
}

TEST(ObsScenarioTest, IdenticalSeedsEmitIdenticalTelemetry) {
  exp::RunConfig cfg;
  cfg.obs = obs::Mode::kTrace;
  exp::ScenarioRun a = exp::run_scenario(obs_spec(7), nullptr, cfg);
  exp::ScenarioRun b = exp::run_scenario(obs_spec(7), nullptr, cfg);
  ASSERT_NE(a.telemetry, nullptr);
  ASSERT_NE(b.telemetry, nullptr);
  EXPECT_EQ(a.telemetry->metrics.snapshot(), b.telemetry->metrics.snapshot());
  const auto ea = a.telemetry->recorder.snapshot();
  const auto eb = b.telemetry->recorder.snapshot();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_TRUE(ea[i] == eb[i]) << "trace event " << i << " differs";
  }
  // The run actually produced telemetry (not two vacuously empty logs).
  EXPECT_FALSE(ea.empty());
  bool decision = false;
  for (const auto& e : ea) {
    decision |= e.kind ==
                static_cast<std::uint16_t>(obs::TraceKind::kDetectorDecision);
  }
  EXPECT_TRUE(decision) << "a Nimbus run must trace detector decisions";
}

TEST(ObsScenarioTest, TelemetryOffLeavesRunUninstrumented) {
  exp::ScenarioRun run =
      exp::run_scenario(obs_spec(7), nullptr, exp::RunConfig{});
  EXPECT_EQ(run.telemetry, nullptr);
}

// --- sweep manifest -----------------------------------------------------

std::string manifest_in(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("manifest-", 0) == 0) return entry.path().string();
  }
  return "";
}

TEST(ObsSweepTest, ParallelManifestMatchesSerial) {
  std::vector<exp::ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    specs.push_back(obs_spec(exp::derive_seed(11, i)));
  }
  const exp::CellCollect collect = [](const exp::ScenarioSpec& spec,
                                      exp::ScenarioRun& run) {
    return exp::CellResult::scalar(exp::score_accuracy(run, spec));
  };
  const auto sweep = [&](const std::string& dir, int jobs) {
    exp::RunConfig cfg;  // unlimited budget
    cfg.jobs = jobs;
    cfg.obs = obs::Mode::kCounters;
    cfg.obs_dir = dir;
    exp::ResultCache cache("", exp::ResultCache::Mode::kOff);
    return exp::run_scenarios_cached(specs, collect, nullptr, nullptr, cfg,
                                     cache);
  };
  const std::string dir_s =
      std::filesystem::temp_directory_path() / "obs_manifest_serial";
  const std::string dir_p =
      std::filesystem::temp_directory_path() / "obs_manifest_parallel";
  std::filesystem::create_directories(dir_s);
  std::filesystem::create_directories(dir_p);
  const auto serial = sweep(dir_s, /*jobs=*/1);
  const auto parallel = sweep(dir_p, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].values, parallel[i].values);
    EXPECT_EQ(serial[i].obs_counters, parallel[i].obs_counters);
  }
  const std::string ms = manifest_in(dir_s);
  const std::string mp = manifest_in(dir_p);
  ASSERT_FALSE(ms.empty());
  ASSERT_FALSE(mp.empty());
  const std::string serial_manifest = read_file(ms);
  EXPECT_EQ(serial_manifest, read_file(mp))
      << "NIMBUS_JOBS must not change the sweep manifest";
  // Every row (and the trailing summary) is standalone JSON, and the
  // per-cell roll-ups made it in.
  std::istringstream lines(serial_manifest);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(obs::json_valid(line)) << line;
    ++rows;
  }
  EXPECT_EQ(rows, specs.size() + 1);
  EXPECT_NE(serial_manifest.find("run.events_processed"), std::string::npos);
  EXPECT_NE(serial_manifest.find("loop.events_fired"), std::string::npos);
  EXPECT_NE(serial_manifest.find("\"sweep\""), std::string::npos);
  std::filesystem::remove_all(dir_s);
  std::filesystem::remove_all(dir_p);
}

TEST(ObsSweepTest, BudgetTrippedCellCarriesPostMortem) {
  exp::RunConfig cfg;
  cfg.obs = obs::Mode::kTrace;
  cfg.budget.max_events = 20000;  // trips mid-run, well after traffic starts
  exp::ResultCache cache("", exp::ResultCache::Mode::kOff);
  const std::vector<exp::ScenarioSpec> specs = {obs_spec(7)};
  const auto results = exp::run_scenarios_cached(
      specs,
      [](const exp::ScenarioSpec&, exp::ScenarioRun&) {
        ADD_FAILURE() << "collect must not run on a truncated cell";
        return exp::CellResult::scalar(0.0);
      },
      nullptr, nullptr, cfg, cache);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].valid);
  EXPECT_STREQ(results[0].fail_label(), "EVENT-BUDGET");
  bool saw_events = false;
  for (const auto& [k, v] : results[0].obs_counters) {
    if (k == "run.events_processed") {
      saw_events = true;
      EXPECT_GT(v, 0.0);
    }
  }
  EXPECT_TRUE(saw_events)
      << "a watchdog-failed cell must carry its final counter snapshot";
}

}  // namespace
}  // namespace nimbus
