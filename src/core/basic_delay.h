// BasicDelay (paper Eq. 4): a simple delay-controlling algorithm built on
// the cross-traffic estimator.
//
//   rate <- S + alpha*(mu - S - z) + beta*(mu/x)*(x_min + d_t - x)
//
// where S is the measured send rate, z the estimated cross-traffic rate,
// x the current RTT, x_min the minimum RTT and d_t the target queueing
// delay.  The alpha term claims a fraction of the spare capacity; the beta
// term servos the queue toward d_t, keeping it non-empty (the z estimator
// requires a busy bottleneck) but small.
#pragma once

#include <memory>

#include "core/estimators.h"
#include "sim/cc_interface.h"
#include "util/time.h"

namespace nimbus::core {

/// The rate rule itself, reusable inside Nimbus's delay mode.
class BasicDelayCore {
 public:
  static constexpr double kAlpha = 0.8;
  static constexpr double kBeta = 0.5;
  static constexpr TimeNs kTargetDelay = from_ms(12.5);  // d_t (section 8.1)
  static constexpr double kMinRateBps = 0.1e6;

  void init(double initial_rate_bps);

  /// One update step (Eq. 4); returns the new rate.
  double update(double send_rate_bps, double cross_rate_bps, double mu_bps,
                TimeNs rtt, TimeNs min_rtt);

  double rate_bps() const { return rate_bps_; }
  void set_rate_bps(double r) { rate_bps_ = r; }

 private:
  double rate_bps_ = 1e6;
};

/// Standalone delay-control algorithm ("Nimbus delay" in Appendix A):
/// BasicDelay driven by the CCP report loop, without mode switching or
/// pulsing.
class BasicDelayCc final : public sim::CcAlgorithm {
 public:
  struct Config {
    double known_mu_bps = 0.0;  // 0: estimate from max receive rate
  };

  BasicDelayCc();
  explicit BasicDelayCc(const Config& config);
  std::string name() const override { return "basic-delay"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_report(sim::CcContext& ctx, const sim::CcReport& report) override;

  double rate_bps() const { return core_.rate_bps(); }
  double last_z_bps() const { return last_z_; }

 private:
  Config cfg_;
  BasicDelayCore core_;
  MuEstimator mu_est_;
  double last_z_ = 0.0;
};

}  // namespace nimbus::core
