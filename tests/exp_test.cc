// Tests for the experiment harness helpers: ground truth, mode logs,
// accuracy scoring, scheme factory, summaries, and the path catalog.
#include <gtest/gtest.h>

#include "exp/ground_truth.h"
#include "exp/path_catalog.h"
#include "exp/schemes.h"
#include "exp/summary.h"
#include "sim/network.h"

namespace nimbus::exp {
namespace {

TEST(GroundTruthTest, IntervalLookup) {
  GroundTruth gt;
  gt.add_interval(from_sec(10), from_sec(20), true);
  gt.add_interval(from_sec(20), from_sec(30), false);
  EXPECT_FALSE(gt.elastic_at(from_sec(5)));
  EXPECT_TRUE(gt.elastic_at(from_sec(10)));
  EXPECT_TRUE(gt.elastic_at(from_sec(19)));
  EXPECT_FALSE(gt.elastic_at(from_sec(20)));
  EXPECT_FALSE(gt.elastic_at(from_sec(25)));
  EXPECT_FALSE(gt.elastic_at(from_sec(35)));
}

TEST(ModeLogTest, AccuracyScoring) {
  GroundTruth gt;
  gt.add_interval(0, from_sec(10), true);
  gt.add_interval(from_sec(10), from_sec(20), false);
  ModeLog log;
  // Correct for the first 10 s, wrong for half the second interval.
  for (int i = 0; i < 100; ++i) log.add(from_ms(100) * i, true);
  for (int i = 100; i < 150; ++i) log.add(from_ms(100) * i, true);
  for (int i = 150; i < 200; ++i) log.add(from_ms(100) * i, false);
  EXPECT_NEAR(log.accuracy(gt, 0, from_sec(20)), 0.75, 0.01);
  EXPECT_NEAR(log.accuracy(gt, 0, from_sec(10)), 1.0, 0.01);
  EXPECT_NEAR(log.fraction_competitive(from_sec(10), from_sec(20)), 0.5,
              0.01);
}

TEST(SchemesTest, AllNamesConstruct) {
  for (const auto& name : all_scheme_names()) {
    auto scheme = make_scheme(name, 96e6);
    ASSERT_NE(scheme, nullptr) << name;
    EXPECT_FALSE(scheme->name().empty());
  }
}

TEST(SchemesTest, NimbusVariantsDiffer) {
  auto a = make_scheme("nimbus");
  auto b = make_scheme("nimbus-copa");
  auto c = make_scheme("nimbus-vegas");
  auto* na = dynamic_cast<core::Nimbus*>(a.get());
  auto* nb = dynamic_cast<core::Nimbus*>(b.get());
  auto* nc = dynamic_cast<core::Nimbus*>(c.get());
  ASSERT_TRUE(na && nb && nc);
  EXPECT_EQ(na->config().delay_algo, core::Nimbus::DelayAlgo::kBasicDelay);
  EXPECT_EQ(nb->config().delay_algo, core::Nimbus::DelayAlgo::kCopa);
  EXPECT_EQ(nc->config().delay_algo, core::Nimbus::DelayAlgo::kVegas);
}

TEST(SummaryTest, FlowSummaryFields) {
  sim::Network net(48e6, sim::buffer_bytes_for_bdp(48e6, from_ms(40), 2.0));
  sim::TransportFlow::Config fc;
  fc.id = 1;
  fc.rtt_prop = from_ms(40);
  net.recorder().track_flow(1);
  net.add_flow(fc, make_scheme("cubic"));
  net.run_until(from_sec(20));
  const auto s = summarize_flow(net.recorder(), 1, from_sec(5), from_sec(20));
  EXPECT_GT(s.mean_rate_mbps, 40.0);
  EXPECT_GT(s.mean_rtt_ms, 40.0);
  EXPECT_GE(s.p95_rtt_ms, s.median_rtt_ms);
}

TEST(PathCatalogTest, TwentyTwoPathsSpanningRegimes) {
  const auto paths = internet_paths();
  ASSERT_EQ(paths.size(), 22u);
  int deep = 0, lossy = 0, shared = 0;
  for (const auto& p : paths) {
    if (p.random_loss > 0) ++lossy;
    if (p.elastic_flows > 0) ++shared;
    if (p.buffer_bdp >= 2.0 && p.random_loss == 0) ++deep;
  }
  EXPECT_GE(deep, 8);
  EXPECT_GE(lossy, 3);
  EXPECT_GE(shared, 6);
}

// Runs `scheme` on the path and summarizes it past a 10 s warmup.
FlowSummary summarize_path(const std::string& scheme, const PathConfig& path,
                           TimeNs duration, std::uint64_t seed) {
  ScenarioSpec spec = path_scenario(scheme, path, duration, seed);
  spec.protagonist.record_rtt = true;
  const ScenarioRun run = run_scenario(spec);
  return summarize_flow(run.built.net->recorder(), 1, from_sec(10),
                        duration);
}

TEST(PathCatalogTest, PathRunProducesSummaries) {
  const auto paths = internet_paths();
  const auto s = summarize_path("cubic", paths[0], from_sec(25), 1);
  EXPECT_GT(s.mean_rate_mbps, 1.0);
  EXPECT_GT(s.mean_rtt_ms, to_ms(paths[0].rtt) - 1);
}

TEST(PathCatalogTest, CubicCollapsesOnLossyPathBbrDoesNot) {
  // The Fig. 18c regime: random loss caps Cubic far below the link rate
  // while a rate/model-based scheme keeps most of it.
  PathConfig lossy;
  lossy.rate_bps = 50e6;
  lossy.rtt = from_ms(60);
  lossy.buffer_bdp = 1.0;
  lossy.random_loss = 0.01;
  lossy.inelastic_load = 0.0;
  const auto cubic = summarize_path("cubic", lossy, from_sec(40), 3);
  const auto bbr = summarize_path("bbr", lossy, from_sec(40), 3);
  EXPECT_LT(cubic.mean_rate_mbps, 0.5 * 50.0);
  EXPECT_GT(bbr.mean_rate_mbps, cubic.mean_rate_mbps);
}

}  // namespace
}  // namespace nimbus::exp
