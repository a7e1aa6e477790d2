// TCP NewReno congestion control.
//
// The window arithmetic lives in RenoCore so Nimbus can embed it as its
// TCP-competitive inner algorithm (section 4.1 supports Cubic and NewReno);
// the Reno class adapts the core to the transport's CcAlgorithm interface.
#pragma once

#include <cstdint>

#include "sim/cc_interface.h"

namespace nimbus::cc {

/// Window arithmetic for NewReno, in units of packets (double so sub-packet
/// increments accumulate).
class RenoCore {
 public:
  void init(double initial_cwnd_pkts);
  void on_ack(double acked_pkts);
  /// Multiplicative decrease; call once per congestion event.
  void on_congestion_event();
  void on_rto();

  double cwnd_pkts() const { return cwnd_; }
  double ssthresh_pkts() const { return ssthresh_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }

 private:
  double cwnd_ = 10;
  double ssthresh_ = 1e9;
};

class Reno final : public sim::CcAlgorithm {
 public:
  std::string name() const override { return "newreno"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override;
  void on_rto(sim::CcContext& ctx) override;
  /// ACK-clocked: no report, no Eq. 2 rates, no pacing.
  bool reads_reports() const override { return false; }

 private:
  RenoCore core_;
};

}  // namespace nimbus::cc
