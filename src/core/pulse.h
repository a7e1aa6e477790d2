// Asymmetric sinusoidal pulse (paper Fig. 7).
//
// Over each period T = 1/f_p the sender adds to its base rate:
//   * a positive half-sine of amplitude A for the first T/4,
//   * a negative half-sine of amplitude A/3 for the remaining 3T/4.
// The two halves integrate to zero, so the mean rate is unchanged.
//
// The asymmetry lets senders with low base rates pulse: the deepest trough
// is only A/3 below the base rate, so any S(t) >= A/3 (µ/12 at the default
// A = µ/4) can emit the pulse, where a symmetric pulse would need S >= A.
#pragma once

#include "util/time.h"

namespace nimbus::core {

class AsymmetricPulse {
 public:
  struct Config {
    double frequency_hz = 5.0;
    double amplitude_frac = 0.25;  // A as a fraction of the link rate µ
  };

  AsymmetricPulse();
  explicit AsymmetricPulse(const Config& config);

  /// Additive rate offset (bits/s) at absolute time t for link rate µ.
  /// The phase is anchored to t = 0.
  double offset_bps(TimeNs t, double mu_bps) const;

  /// Largest rate subtracted from the base rate (A/3); the base rate must
  /// stay at or above this for the pulse to be emittable.
  double min_base_rate(double mu_bps) const;

  /// Bytes sent above the mean during the positive quarter-period:
  /// integral of the positive half-sine = A * (T/4) * (2/pi) / 8 bytes.
  double burst_bytes(double mu_bps) const;

  double frequency_hz() const { return cfg_.frequency_hz; }
  void set_frequency_hz(double f);
  TimeNs period() const { return period_; }
  double amplitude_frac() const { return cfg_.amplitude_frac; }
  void set_amplitude_frac(double a) { cfg_.amplitude_frac = a; }

 private:
  Config cfg_;
  TimeNs period_;
};

}  // namespace nimbus::core
