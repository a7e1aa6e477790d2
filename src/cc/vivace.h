// PCC-Vivace (Dong et al., NSDI 2018), simplified.
//
// Online-learning rate control: the sender tests its rate in paired monitor
// intervals (r*(1+eps) then r*(1-eps)), scores each interval with the
// Vivace utility
//
//   u(x) = x^0.9 - b * x * max(dRTT/dt, 0) - c * x * loss_rate   (x in Mbps)
//
// and moves the rate in the direction of higher utility, with confidence
// amplification (consecutive same-direction decisions take larger steps).
//
// The property the paper depends on (section 7, App. F): Vivace adapts over
// multiple monitor intervals (several RTTs), so it does not track Nimbus's
// 5 Hz pulses (classified inelastic) but does track 2 Hz pulses (classified
// elastic when the detector lowers its pulse frequency).
#pragma once

#include <cstdint>

#include "sim/cc_interface.h"
#include "util/time.h"

namespace nimbus::cc {

class Vivace final : public sim::CcAlgorithm {
 public:
  std::string name() const override { return "vivace"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override;
  void on_rto(sim::CcContext& ctx) override;

  double rate_bps() const { return rate_bps_; }

 private:
  struct MiStats {
    TimeNs start = 0;
    TimeNs end = 0;
    std::int64_t acked_bytes = 0;
    std::uint32_t acked_packets = 0;
    std::uint32_t lost_packets = 0;
    // Least-squares RTT-slope accumulators (t in seconds since MI start,
    // rtt in seconds): dRTT/dt from a regression over every sample is far
    // more noise-robust than a first/last difference.
    double sum_t = 0, sum_r = 0, sum_tt = 0, sum_tr = 0;
    std::uint32_t rtt_samples = 0;
  };

  void start_mi(sim::CcContext& ctx, TimeNs now, int phase);
  double utility(const MiStats& mi) const;
  void decide(sim::CcContext& ctx, TimeNs now);
  void apply_rate(sim::CcContext& ctx, double probe_rate);

  double rate_bps_ = 0;  // set by init
  int phase_ = 0;  // 0: sending high probe, 1: sending low, 2: draining
  MiStats high_;
  MiStats low_;
  int amplifier_ = 1;
  int last_direction_ = 0;
};

}  // namespace nimbus::cc
