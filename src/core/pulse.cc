#include "core/pulse.h"

#include <cmath>

#include "util/check.h"

namespace nimbus::core {

AsymmetricPulse::AsymmetricPulse() : AsymmetricPulse(Config()) {}

AsymmetricPulse::AsymmetricPulse(const Config& config) : cfg_(config) {
  NIMBUS_CHECK(cfg_.frequency_hz > 0);
  NIMBUS_CHECK(cfg_.amplitude_frac > 0 && cfg_.amplitude_frac <= 1.0);
  period_ = from_sec(1.0 / cfg_.frequency_hz);
}

void AsymmetricPulse::set_frequency_hz(double f) {
  NIMBUS_CHECK(f > 0);
  cfg_.frequency_hz = f;
  period_ = from_sec(1.0 / f);
}

double AsymmetricPulse::offset_bps(TimeNs t, double mu_bps) const {
  const double amplitude = cfg_.amplitude_frac * mu_bps;
  const TimeNs phase_ns = ((t % period_) + period_) % period_;
  const double phase = to_sec(phase_ns);
  const double period = to_sec(period_);
  const double quarter = period / 4.0;

  if (phase < quarter) {
    // Positive half-sine over [0, T/4): sin(pi * phase / (T/4)).
    return amplitude * std::sin(M_PI * phase / quarter);
  }
  // Negative half-sine over [T/4, T) with a third of the amplitude.
  const double rest = phase - quarter;
  return -(amplitude / 3.0) * std::sin(M_PI * rest / (3.0 * quarter));
}

double AsymmetricPulse::min_base_rate(double mu_bps) const {
  return cfg_.amplitude_frac * mu_bps / 3.0;
}

double AsymmetricPulse::burst_bytes(double mu_bps) const {
  const double amplitude = cfg_.amplitude_frac * mu_bps;
  const double quarter = to_sec(period_) / 4.0;
  return amplitude * quarter * (2.0 / M_PI) / 8.0;
}

}  // namespace nimbus::core
