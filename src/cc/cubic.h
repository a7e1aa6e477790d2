// TCP Cubic (RFC 8312): the paper's default TCP-competitive algorithm and
// its canonical elastic cross traffic.
//
// CubicCore holds the window arithmetic so Nimbus can drive a virtual Cubic
// window in competitive mode; the Cubic class adapts it to the transport.
#pragma once

#include <cstdint>

#include "sim/cc_interface.h"
#include "util/time.h"

namespace nimbus::cc {

/// Cubic window arithmetic in packets.
class CubicCore {
 public:
  void init(double initial_cwnd_pkts);
  /// Per-ACK update; `srtt` feeds the target-window lookahead and the
  /// TCP-friendly (Reno-tracking) estimate.
  void on_ack(TimeNs now, TimeNs srtt, double acked_pkts);
  void on_congestion_event(TimeNs now);
  void on_rto();

  double cwnd_pkts() const { return cwnd_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }
  double w_max() const { return w_max_; }

  /// Forces the window (Nimbus rate reset when entering competitive mode).
  void set_cwnd_pkts(double cwnd);

 private:
  double cubic_window(double t_sec) const;

  double cwnd_ = 10;
  double ssthresh_ = 1e9;
  double w_max_ = 0;
  double k_ = 0;             // time to return to w_max (seconds)
  TimeNs epoch_start_ = -1;  // -1: no epoch in progress
  double ack_count_ = 0;     // acked packets since epoch start (friendliness)
  double w_est_ = 0;         // Reno-equivalent window estimate
};

class Cubic final : public sim::CcAlgorithm {
 public:
  std::string name() const override { return "cubic"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override;
  void on_rto(sim::CcContext& ctx) override;
  /// ACK-clocked: no report, no Eq. 2 rates, no pacing.
  bool reads_reports() const override { return false; }

 private:
  CubicCore core_;
};

}  // namespace nimbus::cc
