// Tests for the reliable transport: ACK clocking, RTT measurement, loss
// detection and retransmission, RTO recovery, pacing, app-limited flows,
// flow completion, report-less flows, and the recorder's tracked-only RTT
// series.
#include <cstring>
#include <initializer_list>
#include <memory>

#include <gtest/gtest.h>

#include "cc/const_window.h"
#include "cc/cubic.h"
#include "cc/reno.h"
#include "sim/network.h"

namespace nimbus::sim {
namespace {

constexpr double kRate = 12e6;  // 1500 B = 1 ms serialization

TEST(TransportTest, RttMeasurementMatchesPath) {
  // One packet in an empty network: RTT = serialization + propagation.
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(50);
  cfg.app_bytes = 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(10));
  net.run_until(from_sec(2));
  EXPECT_TRUE(flow->completed());
  EXPECT_EQ(flow->latest_rtt(), from_ms(51));
  EXPECT_EQ(flow->min_rtt(), from_ms(51));
}

TEST(TransportTest, WindowLimitedThroughput) {
  // cwnd = 10 pkts, RTT ~= 50 ms -> ~10*1500*8/0.05 = 2.4 Mbit/s,
  // well under the 12 Mbit/s link.
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(50);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(10));
  net.run_until(from_sec(10));
  const double rate =
      net.recorder().delivered(1).rate_bps(from_sec(2), from_sec(10));
  EXPECT_NEAR(rate, 10 * 1500 * 8 / 0.051, 0.1e6);
}

TEST(TransportTest, LargeWindowSaturatesLink) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(500));
  net.run_until(from_sec(10));
  const double rate =
      net.recorder().delivered(1).rate_bps(from_sec(2), from_sec(10));
  EXPECT_NEAR(rate, kRate, 0.05 * kRate);
}

TEST(TransportTest, AckClockingAdaptsToCrossTraffic) {
  // A fixed-window flow shares the link with another fixed-window flow;
  // both are ACK-clocked and the link stays fully utilized.
  Network net(kRate, 1 << 20);
  for (FlowId id : {1u, 2u}) {
    TransportFlow::Config cfg;
    cfg.id = id;
    cfg.rtt_prop = from_ms(20);
    net.add_flow(cfg, std::make_unique<cc::ConstWindow>(200));
  }
  net.run_until(from_sec(10));
  const double r1 =
      net.recorder().delivered(1).rate_bps(from_sec(2), from_sec(10));
  const double r2 =
      net.recorder().delivered(2).rate_bps(from_sec(2), from_sec(10));
  EXPECT_NEAR(r1 + r2, kRate, 0.05 * kRate);
  EXPECT_NEAR(r1, r2, 0.15 * kRate);  // equal windows -> equal shares
}

TEST(TransportTest, FiniteFlowCompletesReliablyDespiteDrops) {
  // Tiny buffer forces drops; the flow must still complete exactly.
  Network net(kRate, 8 * 1500);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 3000 * 1500;  // 3000 packets
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  bool completed = false;
  TimeNs fct = 0;
  flow->set_completion_handler(
      [&](FlowId, TimeNs, TimeNs t) {
        completed = true;
        fct = t;
      });
  net.run_until(from_sec(60));
  EXPECT_TRUE(completed);
  EXPECT_GT(flow->lost_packets(), 0u);  // drops did happen
  EXPECT_GT(fct, from_sec(1));
  // Acked bytes cover the app data exactly (no phantom bytes).
  EXPECT_GE(flow->acked_bytes(), cfg.app_bytes);
}

TEST(TransportTest, DupackLossDetectionNoRto) {
  // With a healthy window and isolated drops, fast retransmit should
  // recover without any RTO.
  Network net(kRate, 20 * 1500);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 2000 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  net.run_until(from_sec(60));
  EXPECT_TRUE(flow->completed());
  EXPECT_GT(flow->lost_packets(), 0u);
  EXPECT_EQ(flow->rto_count(), 0u);
}

TEST(TransportTest, RtoRecoversFromTotalLoss) {
  // Random loss so aggressive that whole windows vanish occasionally.
  Network net(kRate, 1 << 20);
  net.link().set_random_loss(0.4, 17);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 50 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  net.run_until(from_sec(120));
  EXPECT_TRUE(flow->completed());
}

TEST(TransportTest, PacedFlowRespectsRate) {
  // A rate-based CC that paces at 4 Mbit/s on a 12 Mbit/s link.
  class FixedRate final : public CcAlgorithm {
   public:
    std::string name() const override { return "fixed-rate"; }
    void init(CcContext& ctx) override {
      ctx.set_pacing_rate_bps(4e6);
      ctx.set_cwnd_bytes(1e9);
    }
    void on_ack(CcContext&, const AckInfo&) override {}
  };
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  net.add_flow(cfg, std::make_unique<FixedRate>());
  net.run_until(from_sec(10));
  const double rate =
      net.recorder().delivered(1).rate_bps(from_sec(1), from_sec(10));
  EXPECT_NEAR(rate, 4e6, 0.2e6);
}

TEST(TransportTest, StopTimeDrainsFlow) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.stop_time = from_sec(2);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(100));
  net.run_until(from_sec(10));
  const double early =
      net.recorder().delivered(1).rate_bps(from_sec(1), from_sec(2));
  const double late =
      net.recorder().delivered(1).rate_bps(from_sec(3), from_sec(10));
  EXPECT_GT(early, 1e6);
  EXPECT_NEAR(late, 0.0, 1e3);
}

TEST(TransportTest, AppLimitedFlowIdlesBetweenBursts) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 0;  // app-driven
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(100));
  // Offer 30 KB every 500 ms = ~480 kbit/s average.
  for (int i = 0; i < 10; ++i) {
    net.loop().schedule(from_ms(500 * i),
                        [flow]() { flow->add_app_bytes(30000); });
  }
  net.run_until(from_sec(6));
  const double rate = net.recorder().delivered(1).rate_bps(0, from_sec(5));
  EXPECT_NEAR(rate, 480e3, 60e3);
  EXPECT_TRUE(flow->is_app_limited());
}

TEST(TransportTest, StartTimeHonored) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.start_time = from_sec(3);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(50));
  net.run_until(from_sec(6));
  EXPECT_EQ(net.recorder().delivered(1).bytes_in(0, from_sec(3)), 0);
  EXPECT_GT(net.recorder().delivered(1).bytes_in(from_sec(3), from_sec(6)),
            0);
}

TEST(TransportTest, SrttConvergesToPathRtt) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(40);
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(5));
  net.run_until(from_sec(5));
  // Light load: no queueing, sRTT ~= prop + serialization.
  EXPECT_NEAR(to_ms(flow->srtt()), 41.0, 1.0);
}

TEST(TransportTest, ReportsCarryRates) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(400));
  net.run_until(from_sec(5));
  EXPECT_TRUE(flow->rates_valid());
  // Link-saturating flow: S ~= R ~= link rate.
  EXPECT_NEAR(flow->send_rate_bps(), kRate, 0.1 * kRate);
  EXPECT_NEAR(flow->recv_rate_bps(), kRate, 0.1 * kRate);
}

// --- report-less flows (CcAlgorithm::reads_reports) ---------------------

// Cubic behind the default reads_reports() == true: the twin that still
// ticks reports and samples Eq. 2, against which a plain Cubic flow is
// compared.
class ReportingCubic final : public CcAlgorithm {
 public:
  std::string name() const override { return "reporting-cubic"; }
  void init(CcContext& ctx) override { inner_.init(ctx); }
  void on_ack(CcContext& ctx, const AckInfo& ack) override {
    inner_.on_ack(ctx, ack);
  }
  void on_loss(CcContext& ctx, const LossInfo& loss) override {
    inner_.on_loss(ctx, loss);
  }
  void on_rto(CcContext& ctx) override { inner_.on_rto(ctx); }

 private:
  cc::Cubic inner_;
};

struct LoneFlowRun {
  std::uint64_t events = 0;
  std::int64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  TimeNs srtt = 0;
};

// One flow alone on a 30-packet buffer for `seconds`: Cubic overflows it,
// so the run covers losses and retransmissions as well as the ACK clock.
LoneFlowRun run_lone_flow(std::unique_ptr<CcAlgorithm> cc, int seconds) {
  Network net(kRate, 30 * 1500);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  auto* flow = net.add_flow(cfg, std::move(cc));
  net.run_until(from_sec(seconds));
  return {net.loop().processed_events(), net.recorder().delivered(1).total(),
          net.recorder().total_drops(),  flow->sent_packets(),
          flow->lost_packets(),          flow->srtt()};
}

TEST(TransportTest, ReportLessFlowFiresNoReportEvents) {
  constexpr int kSeconds = 5;
  ASSERT_FALSE(cc::Cubic().reads_reports());
  const LoneFlowRun plain = run_lone_flow(std::make_unique<cc::Cubic>(),
                                          kSeconds);
  const LoneFlowRun ticking =
      run_lone_flow(std::make_unique<ReportingCubic>(), kSeconds);
  // The report tick is the only event the plain flow drops: one every
  // kReportInterval from the flow's start (t = 0) through the end.
  EXPECT_EQ(ticking.events - plain.events,
            static_cast<std::uint64_t>(from_sec(kSeconds) / kReportInterval));
  // ...and dropping it changes nothing the flow does.
  EXPECT_EQ(plain.delivered, ticking.delivered);
  EXPECT_EQ(plain.drops, ticking.drops);
  EXPECT_EQ(plain.sent, ticking.sent);
  EXPECT_EQ(plain.lost, ticking.lost);
  EXPECT_EQ(plain.srtt, ticking.srtt);
  EXPECT_GT(plain.lost, 0u);  // the buffer overflowed: losses were covered
}

TEST(TransportTest, ReportLessFlowRejectsPacing) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  flow->set_pacing_rate_bps(0);  // ACK clocking stays allowed
  EXPECT_DEATH(flow->set_pacing_rate_bps(1e6), "opted out of reports");
}

TEST(TransportTest, ReportLessFlowRejectsRateReads) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Cubic>());
  net.run_until(from_sec(1));
  EXPECT_DEATH(flow->send_rate_bps(), "opted out of reports");
  EXPECT_DEATH(flow->recv_rate_bps(), "opted out of reports");
  EXPECT_DEATH(flow->rates_valid(), "opted out of reports");
}

// --- recorder RTT series: tracked flows only ---------------------------

// Two Reno flows share the link; `tracked` lists the flows registered with
// the recorder before they are added.
std::unique_ptr<Network> two_flow_net(std::initializer_list<FlowId> tracked) {
  auto net = std::make_unique<Network>(kRate, 40 * 1500);
  for (FlowId id : tracked) net->recorder().track_flow(id);
  for (FlowId id : {FlowId{1}, FlowId{2}}) {
    TransportFlow::Config cfg;
    cfg.id = id;
    cfg.rtt_prop = from_ms(20 + 15 * id);
    net->add_flow(cfg, std::make_unique<cc::Reno>());
  }
  net->run_until(from_sec(4));
  return net;
}

std::uint64_t series_hash(const util::TimeSeries& s) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    mix(static_cast<std::uint64_t>(s.times()[i]));
    std::uint64_t bits;
    std::memcpy(&bits, &s.values()[i], sizeof bits);
    mix(bits);
  }
  return h;
}

TEST(RecorderRttTest, UntrackedFlowRecordsNoRttSeries) {
  const auto both = two_flow_net({1, 2});
  const auto one = two_flow_net({1});
  const util::TimeSeries& tracked = one->recorder().rtt_samples(1);
  EXPECT_TRUE(one->recorder().rtt_samples(2).empty());
  EXPECT_FALSE(both->recorder().rtt_samples(2).empty());
  // Flow 1's series does not depend on whether flow 2 is recorded, and
  // matches the series recorded when every flow kept one.
  EXPECT_EQ(tracked.times(), both->recorder().rtt_samples(1).times());
  EXPECT_EQ(tracked.values(), both->recorder().rtt_samples(1).values());
  // Captured when every flow recorded an RTT series.
  EXPECT_EQ(tracked.size(), 2270u);
  EXPECT_EQ(series_hash(tracked), 10001060662958231116ULL);
}

TEST(RecorderRttTest, TrackingAfterAddFlowFailsLoudly) {
  Network net(kRate, 1 << 20);
  TransportFlow::Config cfg;
  cfg.id = 1;
  net.add_flow(cfg, std::make_unique<cc::Reno>());
  EXPECT_DEATH(net.recorder().track_flow(1), "track it before adding it");
  // Re-registering a flow that was tracked in time is harmless.
  net.recorder().track_flow(2);
  cfg.id = 2;
  net.add_flow(cfg, std::make_unique<cc::Reno>());
  net.recorder().track_flow(2);
  net.run_until(from_sec(1));
  EXPECT_FALSE(net.recorder().rtt_samples(2).empty());
  EXPECT_TRUE(net.recorder().rtt_samples(1).empty());
}

}  // namespace
}  // namespace nimbus::sim
