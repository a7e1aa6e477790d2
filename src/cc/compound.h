// Compound TCP (Tan et al., INFOCOM 2006): the sum of a loss window (Reno)
// and a delay window.  A baseline in Fig. 8 — it ramps quickly when delays
// are low but degenerates to Reno against buffer-filling cross traffic.
#pragma once

#include "cc/reno.h"
#include "sim/cc_interface.h"
#include "util/time.h"

namespace nimbus::cc {

class Compound final : public sim::CcAlgorithm {
 public:
  std::string name() const override { return "compound"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override;
  void on_rto(sim::CcContext& ctx) override;
  /// ACK-clocked: no report, no Eq. 2 rates, no pacing.
  bool reads_reports() const override { return false; }

 private:
  void push_window(sim::CcContext& ctx);

  RenoCore loss_window_;
  double dwnd_ = 0;           // delay window (packets)
  TimeNs next_update_ = 0;    // per-RTT delay-window update
};

}  // namespace nimbus::cc
