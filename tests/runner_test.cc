// Tests for the scenario layer (exp/scenario.h) and the parallel runner
// (exp/runner.h): spec assembly, run-to-run determinism of a fixed seed,
// and parallel == serial equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "exp/runner.h"
#include "exp/scenario.h"

namespace nimbus::exp {
namespace {

// ---------------------------------------------------------------------------
// ParallelRunner mechanics (no simulations).
// ---------------------------------------------------------------------------

TEST(ParallelRunnerTest, CoversAllIndicesOnce) {
  ParallelRunner runner({/*jobs=*/4, /*serial=*/false});
  std::vector<std::atomic<int>> hits(64);
  runner.for_each(hits.size(),
                  [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunnerTest, MapPreservesInputOrder) {
  ParallelRunner runner({/*jobs=*/4, /*serial=*/false});
  const auto out = runner.map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunnerTest, OnDoneFiresInIndexOrder) {
  ParallelRunner runner({/*jobs=*/4, /*serial=*/false});
  std::vector<std::size_t> order;
  runner.for_each(
      32, [](std::size_t) {},
      [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelRunnerTest, SerialPathMatchesParallel) {
  const auto fn = [](std::size_t i) { return 3.5 * static_cast<double>(i); };
  ParallelRunner parallel({/*jobs=*/4, /*serial=*/false});
  ParallelRunner serial({/*jobs=*/4, /*serial=*/true});
  EXPECT_EQ(parallel.map<double>(40, fn), serial.map<double>(40, fn));
}

TEST(ParallelRunnerTest, TaskExceptionPropagates) {
  ParallelRunner runner({/*jobs=*/4, /*serial=*/false});
  EXPECT_THROW(runner.for_each(16,
                               [](std::size_t i) {
                                 if (i == 7) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
}

TEST(ParallelRunnerTest, CompletedPrefixReportedBeforeErrorRethrow) {
  // Serial semantics: tasks before the throwing index still report.
  ParallelRunner runner({/*jobs=*/2, /*serial=*/false});
  std::atomic<bool> zero_reported{false};
  std::vector<std::size_t> reported;
  EXPECT_THROW(
      runner.for_each(
          2,
          [&](std::size_t i) {
            if (i == 1) {
              // Let task 0 complete and report first, then fail.
              while (!zero_reported.load()) std::this_thread::yield();
              throw std::runtime_error("task 1 boom");
            }
          },
          [&](std::size_t i) {
            reported.push_back(i);
            if (i == 0) zero_reported.store(true);
          }),
      std::runtime_error);
  EXPECT_EQ(reported, (std::vector<std::size_t>{0}));
}

TEST(ParallelRunnerTest, CallbackExceptionPropagatesLikeSerial) {
  // on_done errors must reach the caller from the parallel path too, not
  // std::terminate a worker thread.
  ParallelRunner runner({/*jobs=*/4, /*serial=*/false});
  EXPECT_THROW(runner.for_each(
                   16, [](std::size_t) {},
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("cb boom");
                   }),
               std::runtime_error);
}

TEST(ParallelRunnerTest, JobsResolution) {
  EXPECT_EQ(ParallelRunner({/*jobs=*/3, /*serial=*/false}).jobs(), 3);
  ::setenv("NIMBUS_JOBS", "5", 1);
  EXPECT_EQ(ParallelRunner().jobs(), 5);
  ::unsetenv("NIMBUS_JOBS");
  EXPECT_GE(ParallelRunner().jobs(), 1);
}

// ---------------------------------------------------------------------------
// Numeric env knobs: whole-string positive numbers or a loud failure.
// ---------------------------------------------------------------------------

TEST(EnvKnobTest, PositiveNumbersParseWholeString) {
  ::setenv("NIMBUS_CELL_MAX_EVENTS", "1e6", 1);
  ::setenv("NIMBUS_CELL_WALL_SEC", "2.5", 1);
  const RunBudget b = cell_budget_from_env();
  EXPECT_EQ(b.max_events, 1000000u);
  EXPECT_EQ(b.max_wall_seconds, 2.5);
  ::setenv("NIMBUS_CELL_MAX_EVENTS", "", 1);  // empty = unset
  ::unsetenv("NIMBUS_CELL_WALL_SEC");
  EXPECT_FALSE(cell_budget_from_env().limited());
  ::unsetenv("NIMBUS_CELL_MAX_EVENTS");
  ::setenv("NIMBUS_OBS_RING", "64", 1);
  EXPECT_EQ(obs_ring_capacity_from_env(), 64u);
  ::unsetenv("NIMBUS_OBS_RING");
}

TEST(EnvKnobDeathTest, GarbageNumbersFailNamingTheVariable) {
  const auto fails = [](const char* name, const char* value) {
    ::setenv(name, value, 1);
    (void)resolve_jobs();
    (void)cell_budget_from_env();
    (void)obs_ring_capacity_from_env();
  };
  EXPECT_DEATH(fails("NIMBUS_JOBS", "four"), "NIMBUS_JOBS=\"four\"");
  EXPECT_DEATH(fails("NIMBUS_JOBS", "0"), "NIMBUS_JOBS");
  EXPECT_DEATH(fails("NIMBUS_JOBS", "2.5"), "positive whole number");
  EXPECT_DEATH(fails("NIMBUS_CELL_MAX_EVENTS", "1e6x"),
               "NIMBUS_CELL_MAX_EVENTS");
  EXPECT_DEATH(fails("NIMBUS_CELL_MAX_EVENTS", "-5"),
               "NIMBUS_CELL_MAX_EVENTS");
  EXPECT_DEATH(fails("NIMBUS_CELL_WALL_SEC", "abc"), "NIMBUS_CELL_WALL_SEC");
  EXPECT_DEATH(fails("NIMBUS_CELL_WALL_SEC", "nan"), "positive number");
  EXPECT_DEATH(fails("NIMBUS_OBS_RING", "64k"), "NIMBUS_OBS_RING");
}

TEST(ParallelRunnerTest, DerivedSeedsAreDeterministicAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t s = derive_seed(42, i);
    EXPECT_EQ(s, derive_seed(42, i));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

// ---------------------------------------------------------------------------
// Scenario assembly.
// ---------------------------------------------------------------------------

ScenarioSpec small_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "test/small";
  spec.mu_bps = 24e6;
  spec.duration = from_sec(8);
  spec.protagonist.use_nimbus_config = true;
  spec.cross.push_back(CrossSpec::flow("cubic", 2, from_sec(1)));
  spec.cross.push_back(CrossSpec::poisson(4e6, 3, from_sec(2), from_sec(6)));
  return spec.with_seed(seed);
}

TEST(ScenarioTest, BuildNetworkWiresProtagonistAndCross) {
  const ScenarioSpec spec = small_spec(kDefaultBaseSeed);
  BuiltScenario built = build_network(spec);
  ASSERT_NE(built.net, nullptr);
  ASSERT_NE(built.protagonist, nullptr);
  EXPECT_EQ(built.protagonist->id(), 1);
  EXPECT_NE(built.nimbus, nullptr);  // use_nimbus_config protagonist
  EXPECT_DOUBLE_EQ(built.nimbus->config().known_mu_bps, 24e6);
  EXPECT_EQ(built.net->flows().size(), 2u);  // protagonist + cubic cross
  EXPECT_NE(built.net->flow_by_id(2), nullptr);
}

TEST(ScenarioTest, SchemeProtagonistExposesNimbusPointer) {
  ScenarioSpec spec;
  spec.protagonist.scheme = "nimbus";
  EXPECT_NE(build_network(spec).nimbus, nullptr);
  spec.protagonist.scheme = "cubic";
  EXPECT_EQ(build_network(spec).nimbus, nullptr);
}

TEST(ScenarioTest, WorkloadEnabledBuildsWorkload) {
  ScenarioSpec spec;
  spec.workload_enabled = true;
  spec.workload.seed = 7;
  BuiltScenario built = build_network(spec);
  ASSERT_NE(built.workload, nullptr);
}

TEST(ScenarioTest, CrossCountReplicatesFlows) {
  ScenarioSpec spec;
  CrossSpec c = CrossSpec::flow("cubic", 10);
  c.count = 3;
  spec.cross.push_back(c);
  BuiltScenario built = build_network(spec);
  EXPECT_NE(built.net->flow_by_id(10), nullptr);
  EXPECT_NE(built.net->flow_by_id(11), nullptr);
  EXPECT_NE(built.net->flow_by_id(12), nullptr);
}

TEST(ScenarioTest, ReplicasNeverShareRngStreams) {
  // Explicit seed with count > 1: replica k gets seed + k, not k copies of
  // the same stream.  Derived seeds vary through the id / replica index.
  ScenarioSpec spec;
  CrossSpec explicit_seed = CrossSpec::flow("cubic", 10);
  explicit_seed.count = 3;
  explicit_seed.seed = 42;
  spec.cross.push_back(explicit_seed);
  CrossSpec derived;
  derived.kind = CrossSpec::Kind::kConstWindow;
  derived.id = 20;
  derived.count = 2;
  spec.cross.push_back(derived);
  BuiltScenario built = build_network(spec);
  EXPECT_EQ(built.net->flow_by_id(10)->config().seed, 42u);
  EXPECT_EQ(built.net->flow_by_id(11)->config().seed, 43u);
  EXPECT_EQ(built.net->flow_by_id(12)->config().seed, 44u);
  EXPECT_NE(built.net->flow_by_id(20)->config().seed,
            built.net->flow_by_id(21)->config().seed);
}

TEST(ScenarioTest, VideoHonorsExplicitFlowId) {
  ScenarioSpec spec;
  CrossSpec c;
  c.kind = CrossSpec::Kind::kVideo;
  c.id = 7;
  c.rate_bps = 2e6;
  spec.cross.push_back(c);
  BuiltScenario built = build_network(spec);
  EXPECT_NE(built.net->flow_by_id(7), nullptr);
}

TEST(ScenarioTest, DerivedIdIndependentSeedsDecorrelateUnderSweptBase) {
  // Const-window / video legacy seeds carry no id term; under a non-default
  // base the derivation must still separate distinct flows.
  ScenarioSpec spec;
  spec.seed = 5;
  for (sim::FlowId id : {20, 30}) {
    CrossSpec c;
    c.kind = CrossSpec::Kind::kConstWindow;
    c.id = id;
    spec.cross.push_back(c);
  }
  BuiltScenario built = build_network(spec);
  EXPECT_NE(built.net->flow_by_id(20)->config().seed,
            built.net->flow_by_id(30)->config().seed);
}

TEST(ScenarioTest, BaseSeedVariesWorkload) {
  ScenarioSpec spec;
  spec.mu_bps = 12e6;
  spec.duration = from_sec(5);
  spec.workload_enabled = true;
  EXPECT_EQ(spec.workload.seed, 0u);  // default = derive from base seed
  const auto digest = [](const ScenarioSpec& s) {
    const ScenarioRun run = run_scenario(s);
    return run.built.net->recorder().probed_queue_delay().values_in(
        0, s.duration);
  };
  // Different base seeds produce different workload traces...
  EXPECT_NE(digest(spec.with_seed(2)), digest(spec.with_seed(3)));
  // ...and the default base keeps the legacy 1234 stream.
  ScenarioSpec legacy = spec;
  legacy.workload.seed = 1234;
  EXPECT_EQ(digest(spec), digest(legacy));
}

TEST(ScenarioTest, AutoIdsSkipExplicitSourceIds) {
  // Sources register ids outside Network::add_flow; auto-allocated flow
  // ids must still skip them instead of silently merging recorder streams.
  ScenarioSpec spec;
  spec.cross.push_back(CrossSpec::poisson(1e6, /*id=*/2));
  spec.cross.push_back(CrossSpec::flow("cubic", /*id=*/0));  // auto id
  BuiltScenario built = build_network(spec);
  ASSERT_EQ(built.net->flows().size(), 2u);  // protagonist + cubic
  EXPECT_EQ(built.net->flows()[0]->id(), 1);
  EXPECT_EQ(built.net->flows()[1]->id(), 3);  // 2 is taken by the source
}

TEST(ScenarioTest, BaseSeedVariesProtagonistStream) {
  // BBR draws its pacing-cycle phase from the flow RNG, so the scenario
  // base seed must reach the protagonist's seed for sweeps to sample.
  ScenarioSpec spec;
  spec.mu_bps = 24e6;
  spec.duration = from_sec(4);
  spec.protagonist.scheme = "bbr";
  const auto digest = [](const ScenarioSpec& s) {
    const ScenarioRun run = run_scenario(s);
    return run.built.net->recorder().rtt_samples(1).values_in(0, s.duration);
  };
  EXPECT_NE(digest(spec.with_seed(2)), digest(spec.with_seed(3)));
  EXPECT_EQ(digest(spec.with_seed(2)), digest(spec.with_seed(2)));
}

TEST(ScenarioTest, FlowSeedKeepsLegacyFormulaUnderDefaultBase) {
  EXPECT_EQ(flow_seed(kDefaultBaseSeed, 31), 31u);
  EXPECT_NE(flow_seed(2, 31), 31u);
  EXPECT_NE(flow_seed(2, 31), flow_seed(3, 31));
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical recorder output.
// ---------------------------------------------------------------------------

// Full-precision signature of a finished run's recorder state.
std::vector<double> recorder_digest(const ScenarioSpec& spec,
                                    const ScenarioRun& run) {
  const auto& rec = run.built.net->recorder();
  std::vector<double> d;
  for (double v :
       rec.delivered(1).bucket_rates_bps(0, spec.duration, from_ms(100))) {
    d.push_back(v);
  }
  for (double v : rec.rtt_samples(1).values_in(0, spec.duration)) {
    d.push_back(v);
  }
  for (double v : rec.probed_queue_delay().values_in(0, spec.duration)) {
    d.push_back(v);
  }
  d.push_back(static_cast<double>(rec.total_drops()));
  if (run.mode_log != nullptr) {
    for (double v : run.mode_log->series().values()) d.push_back(v);
  }
  return d;
}

TEST(ScenarioTest, SameSpecAndSeedIsBitIdenticalAcrossRuns) {
  const ScenarioSpec spec = small_spec(/*seed=*/99);
  const ScenarioRun a = run_scenario(spec);
  const ScenarioRun b = run_scenario(spec);
  const auto da = recorder_digest(spec, a);
  const auto db = recorder_digest(spec, b);
  ASSERT_FALSE(da.empty());
  EXPECT_EQ(da, db);  // exact double equality: bit-identical histories
}

TEST(ScenarioTest, DifferentSeedsDiverge) {
  const ScenarioSpec a_spec = small_spec(5);
  const ScenarioSpec b_spec = small_spec(6);
  const auto da = recorder_digest(a_spec, run_scenario(a_spec));
  const auto db = recorder_digest(b_spec, run_scenario(b_spec));
  EXPECT_NE(da, db);
}

// ---------------------------------------------------------------------------
// Parallel == serial.
// ---------------------------------------------------------------------------

// The cache is pinned off and sharding to 1/1, so every cell computes
// here whatever the test environment sets.
std::vector<CellResult> run_uncached(
    const std::vector<ScenarioSpec>& specs, const CellCollect& collect,
    ParallelRunner::Options opts,
    const std::function<void(std::size_t, CellResult&)>& on_result =
        nullptr) {
  ResultCache off("", ResultCache::Mode::kOff);
  const ShardConfig no_shard;
  return run_scenarios_cached(specs, collect, opts, on_result, nullptr, &off,
                              &no_shard);
}

TEST(RunnerScenarioTest, ParallelMatchesSerialExactly) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    specs.push_back(small_spec(derive_seed(/*base=*/7, i)));
  }
  const CellCollect collect = [](const ScenarioSpec& spec, ScenarioRun& run) {
    return CellResult::vec(recorder_digest(spec, run));
  };
  const auto parallel =
      run_uncached(specs, collect, {/*jobs=*/4, /*serial=*/false});
  const auto serial =
      run_uncached(specs, collect, {/*jobs=*/4, /*serial=*/true});
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_FALSE(parallel[i].from_cache);
    EXPECT_FALSE(parallel[i].values.empty());
    EXPECT_EQ(parallel[i].values, serial[i].values) << "scenario " << i;
  }
}

TEST(RunnerScenarioTest, ResultCallbackInSpecOrderWithResults) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    specs.push_back(small_spec(derive_seed(11, i)));
  }
  std::vector<std::size_t> order;
  run_uncached(
      specs,
      [](const ScenarioSpec&, ScenarioRun& run) {
        return CellResult::scalar(static_cast<double>(
            run.built.net->recorder().delivered(1).total()));
      },
      {/*jobs=*/3, /*serial=*/false},
      [&](std::size_t i, CellResult& r) {
        order.push_back(i);
        EXPECT_GT(r.value(), 0.0);
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace nimbus::exp
