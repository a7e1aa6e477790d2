// Tests for the scenario layer (exp/scenario.h) and the parallel runner
// (exp/runner.h): spec assembly, run-to-run determinism of a fixed seed,
// and parallel == serial equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/summary.h"

namespace nimbus::exp {
namespace {

// ---------------------------------------------------------------------------
// ParallelRunner mechanics (no simulations).
// ---------------------------------------------------------------------------

TEST(ParallelRunnerTest, CoversAllIndicesOnce) {
  ParallelRunner runner(/*jobs=*/4);
  std::vector<std::atomic<int>> hits(64);
  runner.for_each(hits.size(),
                  [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunnerTest, OnDoneFiresInIndexOrder) {
  ParallelRunner runner(/*jobs=*/4);
  std::vector<std::size_t> order;
  runner.for_each(
      32, [](std::size_t) {},
      [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelRunnerTest, SerialPathMatchesParallel) {
  // Each task writes its own slot, the way run_scenarios_cached does.
  const auto fill = [](int jobs) {
    std::vector<double> out(40);
    ParallelRunner(jobs).for_each(out.size(), [&](std::size_t i) {
      out[i] = 3.5 * static_cast<double>(i);
    });
    return out;
  };
  EXPECT_EQ(fill(/*jobs=*/4), fill(/*jobs=*/1));
}

TEST(ParallelRunnerTest, TaskExceptionPropagates) {
  ParallelRunner runner(/*jobs=*/4);
  EXPECT_THROW(runner.for_each(16,
                               [](std::size_t i) {
                                 if (i == 7) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
}

TEST(ParallelRunnerTest, CompletedPrefixReportedBeforeErrorRethrow) {
  // Serial semantics: tasks before the throwing index still report.
  ParallelRunner runner(/*jobs=*/2);
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
  ParallelRunner runner(/*jobs=*/4);
  EXPECT_THROW(runner.for_each(
                   16, [](std::size_t) {},
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("cb boom");
                   }),
               std::runtime_error);
}

TEST(ParallelRunnerTest, JobsResolution) {
  EXPECT_EQ(ParallelRunner(/*jobs=*/3).jobs(), 3);
  const char* jobs5[] = {"NIMBUS_JOBS=5", nullptr};
  EXPECT_EQ(ParallelRunner(parse_run_config(jobs5).jobs).jobs(), 5);
  const char* unset[] = {nullptr};
  EXPECT_GE(ParallelRunner(parse_run_config(unset).jobs).jobs(), 1);
  EXPECT_EQ(ParallelRunner(RunConfig{}.jobs).jobs(), 1);
}

TEST(ParallelRunnerDeathTest, NeedsAtLeastOneJob) {
  EXPECT_DEATH(ParallelRunner(0), "at least one job");
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
  spec.protagonist.record_rtt = true;  // recorder_digest reads the RTTs
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
  spec.protagonist.record_rtt = true;
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

TEST(ScenarioTest, RecordRttChangesOnlyTheRttSeries) {
  // The RTT series is a pure observer: turning it on must not move one
  // simulated event, byte, drop, probe sample or mode decision.
  ScenarioSpec off_spec = small_spec(99);
  off_spec.protagonist.record_rtt = false;
  const ScenarioSpec on_spec = small_spec(99);
  const ScenarioRun off = run_scenario(off_spec);
  const ScenarioRun on = run_scenario(on_spec);
  const sim::Recorder& a = off.built.net->recorder();
  const sim::Recorder& b = on.built.net->recorder();
  EXPECT_TRUE(a.rtt_samples(1).empty());
  EXPECT_FALSE(b.rtt_samples(1).empty());
  EXPECT_EQ(off.built.net->loop().processed_events(),
            on.built.net->loop().processed_events());
  const TimeNs d = on_spec.duration;
  EXPECT_EQ(a.delivered(1).bucket_rates_bps(0, d, from_ms(100)),
            b.delivered(1).bucket_rates_bps(0, d, from_ms(100)));
  EXPECT_EQ(a.probed_queue_delay().values(), b.probed_queue_delay().values());
  EXPECT_EQ(a.total_drops(), b.total_drops());
  EXPECT_EQ(off.mode_log->series().values(), on.mode_log->series().values());
}

TEST(ScenarioDeathTest, RecordRttOffHasNoRttSeriesToSummarize) {
  ScenarioSpec spec = small_spec(99);
  spec.protagonist.record_rtt = false;
  spec.duration = from_sec(3);
  const ScenarioRun run = run_scenario(spec);
  const sim::Recorder& rec = run.built.net->recorder();
  EXPECT_FALSE(rec.is_tracked(1));
  EXPECT_TRUE(rec.rtt_samples(1).empty());
  EXPECT_GT(rec.delivered(1).total(), 0);  // byte counters still recorded
  EXPECT_DEATH(summarize_flow(rec, 1, 0, spec.duration),
               "summarize_flow: flow is untracked");
  // The default is off, and only the protagonist is ever tracked.
  EXPECT_FALSE(ProtagonistSpec{}.record_rtt);
  spec.protagonist.record_rtt = true;
  const BuiltScenario built = build_network(spec);
  EXPECT_TRUE(built.net->recorder().is_tracked(1));
  EXPECT_FALSE(built.net->recorder().is_tracked(2));
}

TEST(ScenarioDeathTest, NonFiniteBufferSizingFailsBeforeTheLink) {
  // make_bottleneck sizes the buffer before the link checks its rate, so
  // the buffer check is the one that must name the problem.
  ScenarioSpec spec = small_spec(1);
  spec.buffer_bdp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(build_network(spec), "buffer_bytes_for_bdp");
  spec = small_spec(1);
  spec.mu_bps = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(build_network(spec), "buffer_bytes_for_bdp");
}

// ---------------------------------------------------------------------------
// Parallel == serial.
// ---------------------------------------------------------------------------

// The cache is pinned off, so every cell computes here whatever the test
// environment sets.
std::vector<CellResult> run_uncached(
    const std::vector<ScenarioSpec>& specs, const CellCollect& collect,
    int jobs,
    const std::function<void(std::size_t, CellResult&)>& on_result =
        nullptr) {
  RunConfig cfg;
  cfg.jobs = jobs;
  ResultCache off("", ResultCache::Mode::kOff);
  return run_scenarios_cached(specs, collect, on_result, nullptr, cfg, off);
}

TEST(RunnerScenarioTest, ParallelMatchesSerialExactly) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    specs.push_back(small_spec(derive_seed(/*base=*/7, i)));
  }
  const CellCollect collect = [](const ScenarioSpec& spec, ScenarioRun& run) {
    return CellResult::vec(recorder_digest(spec, run));
  };
  const auto parallel = run_uncached(specs, collect, /*jobs=*/4);
  const auto serial = run_uncached(specs, collect, /*jobs=*/1);
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
      /*jobs=*/3,
      [&](std::size_t i, CellResult& r) {
        order.push_back(i);
        EXPECT_GT(r.value(), 0.0);
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace nimbus::exp
