// Tests for the traffic generators: CBR/Poisson sources, the heavy-tailed
// flow workload, and the DASH video model.
#include <gtest/gtest.h>

#include "exp/schemes.h"
#include "sim/network.h"
#include "traffic/flow_size_dist.h"
#include "traffic/flow_workload.h"
#include "traffic/raw_sources.h"
#include "traffic/video_source.h"

namespace nimbus::traffic {
namespace {

TEST(CbrSourceTest, ExactRate) {
  sim::Network net(96e6, 1 << 22);
  CbrSource::Config cfg;
  cfg.id = net.next_flow_id();
  cfg.rate_bps = 24e6;
  net.add_source(
      std::make_unique<CbrSource>(&net.loop(), &net.link(), cfg));
  net.run_until(from_sec(10));
  EXPECT_NEAR(net.recorder().delivered(cfg.id).rate_bps(0, from_sec(10)),
              24e6, 0.3e6);
}

TEST(CbrSourceTest, StartStopRespected) {
  sim::Network net(96e6, 1 << 22);
  CbrSource::Config cfg;
  cfg.id = net.next_flow_id();
  cfg.rate_bps = 24e6;
  cfg.start_time = from_sec(2);
  cfg.stop_time = from_sec(4);
  net.add_source(
      std::make_unique<CbrSource>(&net.loop(), &net.link(), cfg));
  net.run_until(from_sec(6));
  EXPECT_EQ(net.recorder().delivered(cfg.id).bytes_in(0, from_sec(2)), 0);
  EXPECT_GT(net.recorder().delivered(cfg.id).bytes_in(from_sec(2),
                                                      from_sec(4)),
            0);
  EXPECT_EQ(net.recorder().delivered(cfg.id).bytes_in(from_sec(4) + from_ms(10),
                                                      from_sec(6)),
            0);
}

TEST(PoissonSourceTest, MeanRateAndVariability) {
  sim::Network net(96e6, 1 << 24);
  PoissonSource::Config cfg;
  cfg.id = net.next_flow_id();
  cfg.mean_rate_bps = 24e6;
  cfg.seed = 7;
  net.add_source(
      std::make_unique<PoissonSource>(&net.loop(), &net.link(), cfg));
  net.run_until(from_sec(20));
  EXPECT_NEAR(net.recorder().delivered(cfg.id).rate_bps(0, from_sec(20)),
              24e6, 1e6);
  // Poisson arrivals: 100 ms bucket counts should vary (CV of counts
  // = 1/sqrt(lambda*dt), here ~0.07); CBR would give near-zero variance.
  const auto buckets = net.recorder()
                           .delivered(cfg.id)
                           .bucket_rates_bps(0, from_sec(20), from_ms(100));
  util::OnlineStats s;
  for (double b : buckets) s.add(b);
  EXPECT_GT(s.stddev() / s.mean(), 0.03);
}

TEST(FlowSizeDistTest, WanMeanMatchesAnalytic) {
  const auto d = FlowSizeDist::wan();
  util::Rng rng(3);
  util::OnlineStats s;
  for (int i = 0; i < 200000; ++i) {
    s.add(static_cast<double>(d.sample(rng)));
  }
  EXPECT_NEAR(s.mean() / d.mean_bytes(), 1.0, 0.15);
}

TEST(FlowSizeDistTest, WanIsHeavyTailed) {
  const auto d = FlowSizeDist::wan();
  util::Rng rng(5);
  int small = 0, large = 0;
  const int n = 100000;
  std::int64_t small_bytes = 0, total_bytes = 0;
  for (int i = 0; i < n; ++i) {
    const auto sz = d.sample(rng);
    total_bytes += sz;
    if (sz <= 15000) {
      ++small;
      small_bytes += sz;
    }
    if (sz > 10e6) ++large;
  }
  // Most flows are small...
  EXPECT_GT(small, n / 2);
  // ...but they carry a tiny fraction of the bytes.
  EXPECT_LT(static_cast<double>(small_bytes) / total_bytes, 0.05);
  // A small fraction of elephants exists.
  EXPECT_GT(large, 0);
  EXPECT_LT(large, n / 20);
}

TEST(FlowSizeDistTest, BoundedParetoWithinBounds) {
  const auto d = FlowSizeDist::bounded_pareto(1.2, 1000, 1e8);
  util::Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const auto sz = d.sample(rng);
    EXPECT_GE(sz, 1000);
    EXPECT_LE(sz, static_cast<std::int64_t>(1e8));
  }
}

TEST(FlowWorkloadTest, OfferedLoadApproximatesTarget) {
  sim::Network net(96e6, sim::buffer_bytes_for_bdp(96e6, from_ms(50), 2.0));
  FlowWorkload::Config cfg;
  cfg.offered_load_fraction = 0.5;
  cfg.seed = 21;
  FlowWorkload wl(&net, cfg);
  net.run_until(from_sec(120));
  std::int64_t bytes = 0;
  for (auto id : wl.flow_ids()) {
    bytes += net.recorder().delivered(id).bytes_in(0, from_sec(120));
  }
  const double rate = static_cast<double>(bytes) * 8 / 120.0;
  // Heavy tails make short-run delivered load very noisy (a single
  // elephant is seconds of link time); only bound it loosely.
  EXPECT_GT(rate / 48e6, 0.3);
  EXPECT_LT(rate / 48e6, 1.6);
  // The *offered* byte rate (arrival sizes over time) is the Poisson
  // target; with a bounded distribution it concentrates tightly.
  sim::Network net2(96e6, 1 << 22);
  FlowWorkload::Config cfg2;
  cfg2.offered_load_fraction = 0.5;
  cfg2.dist = FlowSizeDist::bounded_pareto(1.2, 4000, 2e6);
  cfg2.seed = 77;
  FlowWorkload wl2(&net2, cfg2);
  net2.run_until(from_sec(120));
  std::int64_t offered = 0;
  for (const auto& a : wl2.arrivals()) offered += a.size_bytes;
  EXPECT_NEAR(static_cast<double>(offered) * 8 / 120.0 / 48e6, 1.0, 0.2);
}

TEST(FlowWorkloadTest, ElasticGroundTruthTracksLargeFlows) {
  sim::Network net(96e6, sim::buffer_bytes_for_bdp(96e6, from_ms(50), 2.0));
  FlowWorkload::Config cfg;
  cfg.offered_load_fraction = 0.5;
  cfg.seed = 22;
  FlowWorkload wl(&net, cfg);
  net.run_until(from_sec(60));
  // There are both elastic and inelastic arrivals in a minute of load.
  int elastic = 0, inelastic = 0;
  for (const auto& a : wl.arrivals()) {
    (a.elastic ? elastic : inelastic)++;
  }
  EXPECT_GT(elastic, 0);
  EXPECT_GT(inelastic, 0);
  // Byte-weighted elastic fraction is high (tail carries the bytes).
  const double frac =
      wl.elastic_byte_fraction(net.recorder(), 0, from_sec(60));
  EXPECT_GT(frac, 0.5);
}

TEST(FlowWorkloadTest, CompletionsRecorded) {
  sim::Network net(96e6, sim::buffer_bytes_for_bdp(96e6, from_ms(50), 2.0));
  FlowWorkload::Config cfg;
  cfg.offered_load_fraction = 0.3;
  cfg.seed = 23;
  FlowWorkload wl(&net, cfg);
  net.run_until(from_sec(60));
  EXPECT_GT(net.recorder().completions().size(), 10u);
  for (const auto& c : net.recorder().completions()) {
    EXPECT_GT(c.fct, 0);
    EXPECT_GT(c.bytes, 0);
  }
}

TEST(VideoSourceTest, LowBitrateIsAppLimited) {
  // 1080p-like: 6 Mbit/s stream on a 48 Mbit/s link downloads each chunk
  // quickly and idles: delivered rate == encoding rate, flow app-limited.
  sim::Network net(48e6, sim::buffer_bytes_for_bdp(48e6, from_ms(50), 2.0));
  VideoSource::Config cfg;
  cfg.bitrate_bps = 6e6;
  auto src = std::make_unique<VideoSource>(&net, cfg);
  const sim::FlowId id = src->id();
  const auto* flow = &src->flow();
  const std::int64_t chunk_bytes = src->chunk_bytes();
  net.add_source(std::move(src));
  net.run_until(from_sec(40));
  EXPECT_NEAR(net.recorder().delivered(id).rate_bps(from_sec(15),
                                                    from_sec(40)),
              6e6, 1.5e6);
  // No backlog accumulates: at most one chunk awaits transmission (the
  // instantaneous app-limited flag flickers right as chunks arrive).
  EXPECT_LT(flow->app_bytes_remaining(), chunk_bytes);
}

TEST(VideoSourceTest, HighBitrateIsNetworkLimited) {
  // 4K-like: 30 Mbit/s stream against a competitor on a 48 Mbit/s link
  // cannot keep up -> permanently backlogged (elastic).
  sim::Network net(48e6, sim::buffer_bytes_for_bdp(48e6, from_ms(50), 2.0));
  VideoSource::Config cfg;
  cfg.bitrate_bps = 30e6;
  auto src = std::make_unique<VideoSource>(&net, cfg);
  const auto* flow = &src->flow();
  const sim::FlowId vid = src->id();
  net.add_source(std::move(src));
  sim::TransportFlow::Config fb;
  fb.id = net.next_flow_id();
  fb.rtt_prop = from_ms(50);
  net.add_flow(fb, exp::make_scheme("cubic"));
  net.run_until(from_sec(40));
  EXPECT_FALSE(flow->is_app_limited());
  EXPECT_GT(flow->app_bytes_remaining(), 0);
  EXPECT_GT(net.recorder().delivered(vid).rate_bps(from_sec(10),
                                                   from_sec(40)),
            10e6);
}

}  // namespace
}  // namespace nimbus::traffic
