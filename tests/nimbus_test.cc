// End-to-end tests of the Nimbus system: elasticity detection accuracy,
// mode switching latency, throughput fairness, and delay behaviour —
// the paper's headline claims at test scale.
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cc/cubic.h"
#include "core/nimbus.h"
#include "exp/ground_truth.h"
#include "exp/schemes.h"
#include "sim/network.h"
#include "traffic/raw_sources.h"

namespace nimbus::core {
namespace {

constexpr double kMu = 96e6;
constexpr TimeNs kRtt = from_ms(50);

struct Harness {
  explicit Harness(double mu = kMu, double buf_bdp = 2.0)
      : net(mu, sim::buffer_bytes_for_bdp(mu, kRtt, buf_bdp)) {
    Nimbus::Config cfg;
    cfg.known_mu_bps = mu;
    auto algo = std::make_unique<Nimbus>(cfg);
    nimbus = algo.get();
    sim::TransportFlow::Config fc;
    fc.id = 1;
    fc.rtt_prop = kRtt;
    net.recorder().track_flow(1);
    flow = net.add_flow(fc, std::move(algo));
    exp::attach_nimbus_logger(nimbus, &mode_log, &eta_log, &z_log);
  }

  void add_cubic(sim::FlowId id, TimeNs start = 0,
                 TimeNs stop = std::numeric_limits<TimeNs>::max()) {
    sim::TransportFlow::Config fc;
    fc.id = id;
    fc.rtt_prop = kRtt;
    fc.start_time = start;
    fc.stop_time = stop;
    fc.seed = id;
    net.add_flow(fc, std::make_unique<cc::Cubic>());
  }

  void add_poisson(sim::FlowId id, double rate,
                   TimeNs start = 0) {
    traffic::PoissonSource::Config pc;
    pc.id = id;
    pc.mean_rate_bps = rate;
    pc.start_time = start;
    pc.seed = id * 31;
    net.add_source(std::make_unique<traffic::PoissonSource>(
        &net.loop(), &net.link(), pc));
  }

  double rate_mbps(sim::FlowId id, TimeNs t0, TimeNs t1) {
    return net.recorder().delivered(id).rate_bps(t0, t1) / 1e6;
  }

  sim::Network net;
  Nimbus* nimbus = nullptr;
  sim::TransportFlow* flow = nullptr;
  exp::ModeLog mode_log;
  util::TimeSeries eta_log, z_log;
};

TEST(NimbusTest, SoloStaysInDelayModeWithLowDelay) {
  Harness h;
  h.net.run_until(from_sec(40));
  // After warmup, almost never competitive.
  EXPECT_LT(h.mode_log.fraction_competitive(from_sec(10), from_sec(40)),
            0.05);
  EXPECT_GT(h.rate_mbps(1, from_sec(10), from_sec(40)), 85.0);
  EXPECT_LT(h.net.recorder().probed_queue_delay().mean_in(from_sec(10),
                                                          from_sec(40))
                .value(),
            20.0);
}

TEST(NimbusTest, InelasticCrossKeepsDelayModeAtTarget) {
  Harness h;
  h.add_poisson(2, 48e6);
  h.net.run_until(from_sec(40));
  EXPECT_LT(h.mode_log.fraction_competitive(from_sec(10), from_sec(40)),
            0.1);
  // Fair share of the remaining capacity, at the BasicDelay target delay.
  EXPECT_NEAR(h.rate_mbps(1, from_sec(10), from_sec(40)), 47.0, 4.0);
  const double qd = h.net.recorder().probed_queue_delay().mean_in(
      from_sec(10), from_sec(40)).value();
  EXPECT_GT(qd, 5.0);
  EXPECT_LT(qd, 25.0);
}

TEST(NimbusTest, ElasticCrossTriggersCompetitiveMode) {
  Harness h;
  h.add_cubic(2);
  h.net.run_until(from_sec(60));
  // Competitive is the right call for most of the run.
  EXPECT_GT(h.mode_log.fraction_competitive(from_sec(15), from_sec(60)),
            0.6);
  // Rough fair sharing (within 2.2x of the cross flow).
  const double mine = h.rate_mbps(1, from_sec(20), from_sec(60));
  const double theirs = h.rate_mbps(2, from_sec(20), from_sec(60));
  EXPECT_GT(mine, 20.0);
  EXPECT_GT(theirs, 20.0);
  EXPECT_GT(util::jain_fairness({mine, theirs}), 0.8);
}

TEST(NimbusTest, DetectsElasticArrivalWithinDetectionBudget) {
  // Elastic flow arrives at t=20; Nimbus should be mostly competitive in
  // (27, 35) — within ~a detection window plus smoothing.
  Harness h;
  h.add_cubic(2, from_sec(20));
  h.net.run_until(from_sec(35));
  EXPECT_LT(h.mode_log.fraction_competitive(from_sec(10), from_sec(20)),
            0.05);
  EXPECT_GT(h.mode_log.fraction_competitive(from_sec(27), from_sec(35)),
            0.5);
}

TEST(NimbusTest, RevertsToDelayModeAfterElasticLeaves) {
  Harness h;
  h.add_cubic(2, from_sec(10), from_sec(40));
  h.net.run_until(from_sec(70));
  EXPECT_GT(h.mode_log.fraction_competitive(from_sec(20), from_sec(40)),
            0.5);
  // Within ~10 s of the cubic leaving, delay mode resumes and delays drop.
  EXPECT_LT(h.mode_log.fraction_competitive(from_sec(52), from_sec(70)),
            0.15);
  EXPECT_LT(h.net.recorder().probed_queue_delay().mean_in(from_sec(55),
                                                          from_sec(70))
                .value(),
            25.0);
}

TEST(NimbusTest, EtaSeparatesTrafficClasses) {
  Harness elastic;
  elastic.add_cubic(2);
  elastic.net.run_until(from_sec(40));
  Harness inelastic;
  inelastic.add_poisson(2, 48e6);
  inelastic.net.run_until(from_sec(40));
  const double eta_e =
      elastic.eta_log.mean_in(from_sec(10), from_sec(40)).value();
  const double eta_i =
      inelastic.eta_log.mean_in(from_sec(10), from_sec(40)).value();
  EXPECT_GT(eta_e, 2.0);
  EXPECT_LT(eta_i, 2.0);
}

TEST(NimbusTest, CrossRateEstimateTracksTruth) {
  // Inelastic cross at 48 of 96: z-hat mean should be within ~10%.
  Harness h;
  h.add_poisson(2, 48e6);
  h.net.run_until(from_sec(30));
  const double z = h.z_log.mean_in(from_sec(10), from_sec(30)).value();
  EXPECT_NEAR(z, 48e6, 5e6);
}

TEST(NimbusTest, EstimatesMuWhenUnknown) {
  sim::Network net(kMu, sim::buffer_bytes_for_bdp(kMu, kRtt, 2.0));
  Nimbus::Config cfg;  // known_mu_bps = 0: estimate online
  auto algo = std::make_unique<Nimbus>(cfg);
  Nimbus* nptr = algo.get();
  sim::TransportFlow::Config fc;
  fc.id = 1;
  fc.rtt_prop = kRtt;
  net.add_flow(fc, std::move(algo));
  net.run_until(from_sec(20));
  EXPECT_NEAR(nptr->mu_bps(), kMu, 0.15 * kMu);
}

TEST(NimbusTest, DelayAlgoVariantsHoldLowDelayVsInelastic) {
  for (auto algo : {Nimbus::DelayAlgo::kBasicDelay,
                    Nimbus::DelayAlgo::kVegas, Nimbus::DelayAlgo::kCopa}) {
    sim::Network net(kMu, sim::buffer_bytes_for_bdp(kMu, kRtt, 2.0));
    Nimbus::Config cfg;
    cfg.known_mu_bps = kMu;
    cfg.delay_algo = algo;
    sim::TransportFlow::Config fc;
    fc.id = 1;
    fc.rtt_prop = kRtt;
    net.add_flow(fc, std::make_unique<Nimbus>(cfg));
    traffic::PoissonSource::Config pc;
    pc.id = 2;
    pc.mean_rate_bps = 24e6;
    net.add_source(std::make_unique<traffic::PoissonSource>(
        &net.loop(), &net.link(), pc));
    net.run_until(from_sec(30));
    EXPECT_LT(net.recorder().probed_queue_delay().mean_in(from_sec(10),
                                                          from_sec(30))
                  .value(),
              40.0)
        << "delay algo " << static_cast<int>(algo);
    EXPECT_GT(net.recorder().delivered(1).rate_bps(from_sec(10),
                                                   from_sec(30)) /
                  1e6,
              50.0)
        << "delay algo " << static_cast<int>(algo);
  }
}

TEST(NimbusTest, RateResetRestoresThroughputOnSwitch) {
  // With the 5 s rate reset disabled, the first seconds of competitive
  // mode start from the collapsed delay-mode rate; with it enabled, the
  // switch restores the pre-collapse rate.  Compare early competitive
  // throughput.
  auto run = [](bool enable_reset) {
    sim::Network net(kMu, sim::buffer_bytes_for_bdp(kMu, kRtt, 2.0));
    Nimbus::Config cfg;
    cfg.known_mu_bps = kMu;
    cfg.enable_rate_reset = enable_reset;
    sim::TransportFlow::Config fc;
    fc.id = 1;
    fc.rtt_prop = kRtt;
    net.add_flow(fc, std::make_unique<Nimbus>(cfg));
    sim::TransportFlow::Config fb;
    fb.id = 2;
    fb.rtt_prop = kRtt;
    fb.start_time = from_sec(15);
    net.add_flow(fb, std::make_unique<cc::Cubic>());
    net.run_until(from_sec(40));
    return net.recorder().delivered(1).rate_bps(from_sec(20), from_sec(40));
  };
  // Not a strict dominance claim (stochastic), but reset must not be
  // catastrophically worse, and typically helps.
  EXPECT_GT(run(true), 0.5 * run(false));
}

TEST(NimbusTest, StatusHandlerStreamsState) {
  Harness h;
  int count = 0;
  bool saw_mu = false;
  h.nimbus->set_status_handler([&](const Nimbus::Status& s) {
    ++count;
    if (s.mu_bps > 0) saw_mu = true;
  });
  h.net.run_until(from_sec(5));
  EXPECT_GT(count, 400);  // ~100 Hz reports
  EXPECT_TRUE(saw_mu);
}

// One report cadence drives both layers: the transport calls on_report
// (which streams the status) every sim::kReportInterval, and the detector
// window is sized at that same rate.
TEST(NimbusTest, OneReportCadenceFeedsTransportAndDetector) {
  Harness h;
  std::vector<TimeNs> at;
  h.nimbus->set_status_handler(
      [&](const Nimbus::Status& s) { at.push_back(s.now); });
  h.net.run_until(from_sec(2));
  ASSERT_GT(at.size(), 100u);
  EXPECT_EQ(at.front(), sim::kReportInterval);
  for (std::size_t i = 1; i < at.size(); ++i) {
    ASSERT_EQ(at[i] - at[i - 1], sim::kReportInterval) << "report " << i;
  }
  const Nimbus::Config cfg;
  EXPECT_EQ(h.nimbus->detector().window_samples(),
            static_cast<std::size_t>(
                cfg.fft_duration_sec / to_sec(sim::kReportInterval) + 0.5));
  EXPECT_EQ(h.nimbus->detector().window_samples(), 500u);
}

// Every knob value a bench runs with constructs.
TEST(NimbusConfigTest, AcceptsEveryBenchValue) {
  for (double amp : {0.0625, 0.125, 0.25, 0.5, 1.0}) {
    Nimbus::Config cfg;
    cfg.pulse_amplitude_frac = amp;
    EXPECT_EQ(Nimbus(cfg).config().pulse_amplitude_frac, amp);
  }
  for (double fp : {2.0, 5.0}) {  // fig26: delay frequency f_p + 1
    Nimbus::Config cfg;
    cfg.fp_competitive_hz = fp;
    cfg.fp_delay_hz = fp + 1.0;
    EXPECT_EQ(Nimbus(cfg).config().fp_delay_hz, fp + 1.0);
  }
  for (double d : {1.0, 2.0, 5.0, 10.0}) {  // ablation FFT windows
    Nimbus::Config cfg;
    cfg.fft_duration_sec = d;
    EXPECT_EQ(Nimbus(cfg).config().fft_duration_sec, d);
  }
  Nimbus::Config cfg;
  cfg.eta_threshold = 1e9;  // the "hold delay mode" sentinel
  cfg.known_mu_bps = 96e6;
  EXPECT_EQ(Nimbus(cfg).config().eta_threshold, 1e9);
}

// Builds a Nimbus from the default config with one knob changed by `set`.
template <typename Set>
void construct_with(Set set) {
  Nimbus::Config cfg;
  set(cfg);
  Nimbus n(cfg);
}

TEST(NimbusConfigDeathTest, RejectsInvalidKnobs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {-1.0, nan, inf}) {
    EXPECT_DEATH(construct_with([v](auto& c) { c.known_mu_bps = v; }),
                 "known_mu_bps");
  }
  for (double v : {0.0, -0.25, 1.5, nan}) {
    EXPECT_DEATH(construct_with([v](auto& c) { c.pulse_amplitude_frac = v; }),
                 "pulse_amplitude_frac");
  }
  // 2 f_p must stay below the 50 Hz Nyquist limit of 100 Hz reports.
  for (double v : {0.0, -5.0, 25.0, 30.0, nan, inf}) {
    EXPECT_DEATH(construct_with([v](auto& c) { c.fp_competitive_hz = v; }),
                 "pulse frequencies");
    EXPECT_DEATH(construct_with([v](auto& c) { c.fp_delay_hz = v; }),
                 "pulse frequencies");
  }
  EXPECT_DEATH(construct_with([](auto& c) { c.fp_delay_hz = 5.0; }),
               "must differ");
  for (double v : {0.0, -5.0, nan, inf}) {
    EXPECT_DEATH(construct_with([v](auto& c) { c.fft_duration_sec = v; }),
                 "fft_duration_sec");
    EXPECT_DEATH(construct_with([v](auto& c) { c.eta_threshold = v; }),
                 "eta_threshold");
  }
}

}  // namespace
}  // namespace nimbus::core
