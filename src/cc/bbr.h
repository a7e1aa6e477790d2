// BBR v1 (Cardwell et al., ACM Queue 2016), simplified.
//
// Model-based control: estimate the bottleneck bandwidth (windowed max of
// the delivery rate) and the round-trip propagation time (windowed min RTT),
// pace at gain*btl_bw and cap inflight at cwnd_gain*BDP.  The state machine
// keeps STARTUP / DRAIN / PROBE_BW (8-phase gain cycling) / PROBE_RTT.
//
// Simplifications: rounds are approximated by sRTT-long intervals rather
// than delivered-sequence round tracking.  The behaviours the paper's
// experiments rely on are preserved: ProbeBW rate pulsing, the 2*BDP
// inflight cap (which makes BBR ACK-clocked in deep buffers, App. C), and
// aggression against loss-based flows in shallow buffers.
#pragma once

#include <cstdint>

#include "sim/cc_interface.h"
#include "util/time.h"
#include "util/windowed_filter.h"

namespace nimbus::cc {

class Bbr final : public sim::CcAlgorithm {
 public:
  std::string name() const override { return "bbr"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override;
  void on_rto(sim::CcContext& ctx) override;

  enum class State { kStartup, kDrain, kProbeBw, kProbeRtt };
  State state() const { return state_; }
  double btl_bw_bps() const { return btl_bw_.get_unexpired(); }

 private:
  void enter_probe_bw(sim::CcContext& ctx);
  void check_probe_rtt(sim::CcContext& ctx, TimeNs now);
  void advance_cycle(TimeNs now);
  void apply_control(sim::CcContext& ctx);
  double bdp_bytes() const;

  State state_ = State::kStartup;
  util::WindowedMax btl_bw_{0};   // window set from RTT at runtime
  util::WindowedMin rt_prop_{0};
  double pacing_gain_ = 0;  // init() sets the startup gain
  int cycle_index_ = 0;
  TimeNs cycle_stamp_ = 0;

  // Startup full-pipe detection.
  double full_bw_ = 0;
  int full_bw_count_ = 0;
  TimeNs round_start_ = 0;

  // ProbeRTT bookkeeping.
  TimeNs min_rtt_stamp_ = 0;
  TimeNs probe_rtt_done_ = 0;
  double latest_min_rtt_sec_ = 0;
};

}  // namespace nimbus::cc
