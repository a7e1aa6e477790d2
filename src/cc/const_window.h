// Fixed-window congestion "control": sends a constant window, ACK-clocked.
//
// Table 1 of the paper lists a fixed-window flow as elastic — its rate
// tracks the bottleneck's ACK clock even though the window never changes.
// Used in classification experiments and as a simple test fixture.
#pragma once

#include "sim/cc_interface.h"

namespace nimbus::cc {

class ConstWindow final : public sim::CcAlgorithm {
 public:
  explicit ConstWindow(double window_pkts) : window_pkts_(window_pkts) {}

  std::string name() const override { return "const-window"; }

  void init(sim::CcContext& ctx) override {
    ctx.set_cwnd_bytes(window_pkts_ * sim::kMss);
    ctx.set_pacing_rate_bps(0);
  }
  void on_ack(sim::CcContext& ctx, const sim::AckInfo&) override {
    ctx.set_cwnd_bytes(window_pkts_ * sim::kMss);
  }

 private:
  double window_pkts_;
};

}  // namespace nimbus::cc
