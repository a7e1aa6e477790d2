#include "core/elasticity.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace nimbus::core {

namespace {

constexpr double kFs = kDetectorSampleRateHz;
constexpr double kTol = kDetectorToleranceHz;

/// The bins evaluate(f) scans: numerator max(center-2, 1)..center+2,
/// denominator frequency_bin(f+tol)..frequency_bin(2f).  Bin 0 is never
/// *queried* (the numerator starts at 1 and the denominator's strict
/// f > f_p + tol test rejects DC), so lo is clamped to 1.
struct BinSpan {
  std::size_t lo, hi;
};

BinSpan evaluate_span(double f_hz, std::size_t n) {
  const std::size_t center = spectral::frequency_bin(f_hz, n, kFs);
  const std::size_t num_lo = center > 2 ? center - 2 : 1;
  const std::size_t num_hi = center + 2;
  const std::size_t den_lo =
      std::max<std::size_t>(spectral::frequency_bin(f_hz + kTol, n, kFs), 1);
  const std::size_t den_hi = spectral::frequency_bin(2.0 * f_hz, n, kFs);
  return {std::min(num_lo, den_lo), std::max(num_hi, den_hi)};
}

/// Running max of the engine's bin magnitudes that pays for a bin's
/// magnitude (a hypot) only when the bin's squared-magnitude proxy
/// (hann_power) comes within a relative 1e-9 of the held bin's.  The proxy
/// and the magnitude each carry a few ulps of rounding, so a bin further
/// below cannot reach the held magnitude: skipping it leaves the max, its
/// bin and the winner of a tie exactly as a scan that takes every
/// magnitude.  A held proxy that is not a normal number (zero or
/// subnormal) disables the skip.
struct BandMax {
  double mag = 0.0;
  double power = 0.0;  // proxy of the bin that holds mag

  /// Offers bin k; true when its magnitude strictly exceeds the held one.
  bool offer(const spectral::SlidingDft& dft, std::size_t k) {
    const double bin_power = dft.hann_power(k);
    if (std::isnormal(power) && bin_power < power * (1.0 - 1e-9)) {
      return false;
    }
    const double m = dft.hann_magnitude(k);
    if (!(m > mag)) return false;
    mag = m;
    power = bin_power;
    return true;
  }
};

/// Eq. (3) band scan over the engine's O(1) per-bin magnitudes.
DetectorResult evaluate_band(const spectral::SlidingDft& dft,
                             double eta_threshold, double f_pulse_hz) {
  const std::size_t n = dft.window_size();
  DetectorResult r;
  r.valid = true;
  auto bin_freq = [&](std::size_t k) {
    return spectral::bin_frequency(k, n, kFs);
  };

  // Numerator: strongest bin within tolerance of f_p.
  const std::size_t center = spectral::frequency_bin(f_pulse_hz, n, kFs);
  BandMax num;
  for (std::size_t k = (center > 2 ? center - 2 : 1); k <= center + 2; ++k) {
    if (std::abs(bin_freq(k) - f_pulse_hz) <= kTol + 1e-9) num.offer(dft, k);
  }
  r.pulse_magnitude = num.mag;

  // Denominator: peak strictly inside (f_p + tol, 2 f_p).
  const std::size_t lo = spectral::frequency_bin(f_pulse_hz + kTol, n, kFs);
  const std::size_t hi = spectral::frequency_bin(2.0 * f_pulse_hz, n, kFs);
  BandMax den;
  for (std::size_t k = std::max<std::size_t>(lo, 1); k <= hi; ++k) {
    const double f = bin_freq(k);
    if (f > f_pulse_hz + kTol && f < 2.0 * f_pulse_hz && den.offer(dft, k)) {
      r.band_max_bin = k;
    }
  }
  r.band_max_magnitude = den.mag;

  r.eta = den.mag > 0.0 ? num.mag / den.mag : (num.mag > 0.0 ? 1e9 : 0.0);
  r.elastic = r.eta >= eta_threshold;
  return r;
}

double magnitude_near_band(const spectral::SlidingDft& dft, double f_hz) {
  const std::size_t center =
      spectral::frequency_bin(f_hz, dft.window_size(), kFs);
  BandMax best;
  for (std::size_t k = (center > 1 ? center - 1 : 1); k <= center + 1; ++k) {
    best.offer(dft, k);
  }
  return best.mag;
}

/// An engine over the union of the tracked frequencies' evaluate spans,
/// clamped to the window.
spectral::SlidingDft make_engine(const DetectorConfig& cfg) {
  NIMBUS_CHECK(cfg.duration_sec > 0);
  const auto n = static_cast<std::size_t>(kFs * cfg.duration_sec);
  std::size_t lo = n, hi = 0;
  for (double f : cfg.tracked_freqs_hz) {
    if (f <= 0.0) continue;
    const BinSpan s = evaluate_span(f, n);
    lo = std::min(lo, s.lo);
    hi = std::max(hi, s.hi);
  }
  NIMBUS_CHECK_MSG(lo <= hi,
                   "ElasticityDetector needs a positive tracked frequency "
                   "(DetectorConfig::tracked_freqs_hz)");
  return spectral::SlidingDft(n, lo, std::min(hi, n - 1));
}

/// CHECK-fails unless the engine maintains bins [lo, hi].
void check_tracked(const spectral::SlidingDft& dft, std::size_t lo,
                   std::size_t hi) {
  NIMBUS_CHECK_MSG(lo >= dft.bin_lo() && hi <= dft.bin_hi(),
                   "ElasticityDetector: query outside the tracked bands "
                   "(DetectorConfig::tracked_freqs_hz)");
}

}  // namespace

ElasticityDetector::ElasticityDetector() : ElasticityDetector(Config()) {}

ElasticityDetector::ElasticityDetector(const Config& config)
    : cfg_(config), dft_(make_engine(config)) {}

ElasticityDetector::Result ElasticityDetector::evaluate(
    double f_pulse_hz) const {
  const std::size_t n = window_samples();
  const BinSpan s = evaluate_span(f_pulse_hz, n);
  check_tracked(dft_, s.lo, std::min(s.hi, n - 1));
  if (!ready()) return Result();
  return evaluate_band(dft_, cfg_.eta_threshold, f_pulse_hz);
}

double ElasticityDetector::magnitude_near(double f_hz) const {
  const std::size_t center =
      spectral::frequency_bin(f_hz, window_samples(), kFs);
  check_tracked(dft_, center > 1 ? center - 1 : 1, center + 1);
  if (!ready()) return 0.0;
  return magnitude_near_band(dft_, f_hz);
}

spectral::Spectrum ElasticityDetector::full_spectrum() const {
  // Every bin 1..m/2 of the held samples: one engine over the whole band,
  // filled and then resynced so each bin is a direct DFT sum.
  std::vector<double> x;
  dft_.copy_to(x);
  const std::size_t m = x.size();
  spectral::Spectrum spec;
  spec.sample_rate_hz = kFs;
  spec.magnitude.assign(m / 2 + 1, 0.0);
  if (m < 2) return spec;
  spectral::SlidingDft all(m, 1, m / 2);
  for (double v : x) all.add_sample(v);
  all.force_resync();
  for (std::size_t k = 1; k <= m / 2; ++k) {
    spec.magnitude[k] = all.hann_magnitude(k);
  }
  return spec;
}

}  // namespace nimbus::core
