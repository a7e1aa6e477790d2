// Unreliable (inelastic) traffic sources: constant bit-rate and Poisson.
//
// These model the paper's inelastic cross traffic: fire-and-forget packet
// streams whose sending rate is independent of network feedback.
#pragma once

#include <cstdint>

#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/network.h"
#include "util/rng.h"

namespace nimbus::traffic {

/// Constant bit-rate stream: one sim::kMss packet every kMss*8/rate seconds.
class CbrSource final : public sim::TrafficSource {
 public:
  struct Config {
    sim::FlowId id = 0;
    double rate_bps = 1e6;
    TimeNs start_time = 0;
    TimeNs stop_time = std::numeric_limits<TimeNs>::max();
  };

  CbrSource(sim::EventLoop* loop, sim::BottleneckLink* link, Config cfg);
  void start() override;
  sim::FlowId id() const override { return cfg_.id; }

 private:
  void send_next();

  sim::EventLoop* loop_;
  sim::BottleneckLink* link_;
  Config cfg_;
  std::uint64_t seq_ = 0;
};

/// Poisson arrivals of sim::kMss packets at a mean rate (exponential
/// inter-packet gaps).
/// The paper generates inelastic cross traffic this way (section 5).
class PoissonSource final : public sim::TrafficSource {
 public:
  struct Config {
    sim::FlowId id = 0;
    double mean_rate_bps = 1e6;
    TimeNs start_time = 0;
    TimeNs stop_time = std::numeric_limits<TimeNs>::max();
    std::uint64_t seed = 99;
  };

  PoissonSource(sim::EventLoop* loop, sim::BottleneckLink* link, Config cfg);
  void start() override;
  sim::FlowId id() const override { return cfg_.id; }

 private:
  void send_next();

  sim::EventLoop* loop_;
  sim::BottleneckLink* link_;
  Config cfg_;
  util::Rng rng_;
  std::uint64_t seq_ = 0;
};

}  // namespace nimbus::traffic
