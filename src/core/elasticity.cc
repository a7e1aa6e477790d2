#include "core/elasticity.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "spectral/fft.h"
#include "spectral/goertzel.h"
#include "util/check.h"

namespace nimbus::core {

SlidingSignal::SlidingSignal(std::size_t capacity)
    : capacity_(capacity), buf_(capacity) {
  NIMBUS_CHECK(capacity_ > 0);
}

void SlidingSignal::add(double v) {
  if (size_ == capacity_) {
    buf_[head_] = v;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  } else {
    std::size_t pos = head_ + size_;
    if (pos >= capacity_) pos -= capacity_;
    buf_[pos] = v;
    ++size_;
  }
}

void SlidingSignal::copy_to(std::vector<double>& out) const {
  out.resize(size_);
  const std::size_t tail_len = std::min(size_, capacity_ - head_);
  std::copy_n(buf_.begin() + static_cast<std::ptrdiff_t>(head_), tail_len,
              out.begin());
  std::copy_n(buf_.begin(), size_ - tail_len,
              out.begin() + static_cast<std::ptrdiff_t>(tail_len));
}

std::vector<double> SlidingSignal::snapshot() const {
  std::vector<double> out;
  copy_to(out);
  return out;
}

namespace {

std::size_t window_length(const DetectorConfig& cfg) {
  return static_cast<std::size_t>(cfg.sample_rate_hz * cfg.duration_sec);
}

/// The bins evaluate(f) scans: numerator max(center-2, 1)..center+2,
/// denominator frequency_bin(f+tol)..frequency_bin(2f).  Bin 0 is never
/// *queried* (the numerator starts at 1 and the denominator's strict
/// f > f_p + tol test rejects DC), so lo is clamped to 1.
struct BinSpan {
  std::size_t lo, hi;
};

BinSpan evaluate_span(double f_hz, std::size_t n, double fs, double tol) {
  const std::size_t center = spectral::frequency_bin(f_hz, n, fs);
  const std::size_t num_lo = center > 2 ? center - 2 : 1;
  const std::size_t num_hi = center + 2;
  const std::size_t den_lo =
      std::max<std::size_t>(spectral::frequency_bin(f_hz + tol, n, fs), 1);
  const std::size_t den_hi = spectral::frequency_bin(2.0 * f_hz, n, fs);
  return {std::min(num_lo, den_lo), std::max(num_hi, den_hi)};
}

/// Squared-magnitude proxy of a source that has no cheap one: an infinite
/// square never lets BandMax skip a bin.
constexpr auto kNoPower = [](std::size_t) {
  return std::numeric_limits<double>::infinity();
};

/// Running max of bin magnitudes that pays for a bin's magnitude (a hypot
/// or a Goertzel sweep) only when the bin's squared-magnitude proxy comes
/// within a relative 1e-9 of the held bin's.  The proxy and the magnitude
/// each carry a few ulps of rounding, so a bin further below cannot reach
/// the held magnitude: skipping it leaves the max, its bin and the winner
/// of a tie exactly as a scan that takes every magnitude.  A held proxy
/// that is not a normal number (zero, subnormal, or kNoPower's infinity)
/// disables the skip.
struct BandMax {
  double mag = 0.0;
  double power = 0.0;  // proxy of the bin that holds mag

  /// Offers a bin; true when its magnitude strictly exceeds the held one.
  template <typename MagFn>
  bool offer(double bin_power, MagFn&& bin_mag) {
    if (std::isnormal(power) && bin_power < power * (1.0 - 1e-9)) {
      return false;
    }
    const double m = bin_mag();
    if (!(m > mag)) return false;
    mag = m;
    power = bin_power;
    return true;
  }
};

/// Eq. (3) band scan over any per-bin magnitude source.  The scan shape —
/// loop bounds, tolerance tests, tie-breaking by max — is shared verbatim
/// by the reference recompute (mag = Goertzel over the windowed snapshot,
/// no proxy) and the incremental engine (mag = O(1) sliding-DFT band
/// lookup, power = its hypot-free square), so the two paths can only
/// differ in per-bin floating-point error, never in which bins they
/// consider.
template <typename PowerFn, typename MagFn>
DetectorResult evaluate_band(const DetectorConfig& cfg, std::size_t n,
                             double f_pulse_hz, PowerFn&& power, MagFn&& mag) {
  DetectorResult r;
  r.valid = true;
  const double fs = cfg.sample_rate_hz;
  auto bin_freq = [&](std::size_t k) {
    return spectral::bin_frequency(k, n, fs);
  };

  // Numerator: strongest bin within tolerance of f_p.
  const std::size_t center = spectral::frequency_bin(f_pulse_hz, n, fs);
  BandMax num;
  for (std::size_t k = (center > 2 ? center - 2 : 1); k <= center + 2; ++k) {
    if (std::abs(bin_freq(k) - f_pulse_hz) <= cfg.tolerance_hz + 1e-9) {
      num.offer(power(k), [&] { return mag(k); });
    }
  }
  r.pulse_magnitude = num.mag;

  // Denominator: peak strictly inside (f_p + tol, 2 f_p).
  const std::size_t lo =
      spectral::frequency_bin(f_pulse_hz + cfg.tolerance_hz, n, fs);
  const std::size_t hi = spectral::frequency_bin(2.0 * f_pulse_hz, n, fs);
  BandMax den;
  for (std::size_t k = std::max<std::size_t>(lo, 1); k <= hi; ++k) {
    const double f = bin_freq(k);
    if (f > f_pulse_hz + cfg.tolerance_hz && f < 2.0 * f_pulse_hz &&
        den.offer(power(k), [&] { return mag(k); })) {
      r.band_max_bin = k;
    }
  }
  r.band_max_magnitude = den.mag;

  r.eta = den.mag > 0.0 ? num.mag / den.mag : (num.mag > 0.0 ? 1e9 : 0.0);
  r.elastic = r.eta >= cfg.eta_threshold;
  return r;
}

template <typename PowerFn, typename MagFn>
double magnitude_near_band(std::size_t n, double fs, double f_hz,
                           PowerFn&& power, MagFn&& mag) {
  const std::size_t center = spectral::frequency_bin(f_hz, n, fs);
  BandMax best;
  for (std::size_t k = (center > 1 ? center - 1 : 1); k <= center + 1; ++k) {
    best.offer(power(k), [&] { return mag(k); });
  }
  return best.mag;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReferenceElasticityDetector: the recompute pipeline (executable spec).

ReferenceElasticityDetector::ReferenceElasticityDetector()
    : ReferenceElasticityDetector(Config()) {}

ReferenceElasticityDetector::ReferenceElasticityDetector(const Config& config)
    : cfg_(config), signal_(window_length(config)) {
  NIMBUS_CHECK(cfg_.sample_rate_hz > 0 && cfg_.duration_sec > 0);
}

void ReferenceElasticityDetector::add_sample(double value) {
  signal_.add(value);
}

const std::vector<double>& ReferenceElasticityDetector::windowed_snapshot()
    const {
  signal_.copy_to(scratch_);
  spectral::remove_mean(scratch_);
  if (window_.size() != scratch_.size()) {
    window_ = spectral::make_window(cfg_.window, scratch_.size());
  }
  spectral::apply_window(scratch_, window_);
  return scratch_;
}

ReferenceElasticityDetector::Result ReferenceElasticityDetector::evaluate(
    double f_pulse_hz) const {
  if (!ready()) return Result();
  const std::vector<double>& x = windowed_snapshot();
  return evaluate_band(cfg_, x.size(), f_pulse_hz, kNoPower,
                       [&x](std::size_t k) {
                         return spectral::goertzel_magnitude(x, k);
                       });
}

double ReferenceElasticityDetector::magnitude_near(double f_hz) const {
  if (!ready()) return 0.0;
  const std::vector<double>& x = windowed_snapshot();
  return magnitude_near_band(x.size(), cfg_.sample_rate_hz, f_hz, kNoPower,
                             [&x](std::size_t k) {
                               return spectral::goertzel_magnitude(x, k);
                             });
}

spectral::Spectrum ReferenceElasticityDetector::full_spectrum() const {
  return spectral::analyze(signal_.snapshot(), cfg_.sample_rate_hz,
                           cfg_.window);
}

// ---------------------------------------------------------------------------
// ElasticityDetector: incremental engine + reference fallback.

ElasticityDetector::ElasticityDetector() : ElasticityDetector(Config()) {}

ElasticityDetector::ElasticityDetector(const Config& config)
    : cfg_(config), ref_(config) {
  // The engine applies Hann as a 3-bin frequency-domain convolution, which
  // is exact only for the periodic window; any other window type keeps the
  // detector on the reference recompute.
  if (cfg_.window != spectral::WindowType::kHannPeriodic) return;
  const std::size_t n = window_length(cfg_);
  std::size_t lo = n, hi = 0;
  for (double f : cfg_.tracked_freqs_hz) {
    if (f <= 0.0) continue;
    const BinSpan s =
        evaluate_span(f, n, cfg_.sample_rate_hz, cfg_.tolerance_hz);
    lo = std::min(lo, s.lo);
    hi = std::max(hi, s.hi);
  }
  if (lo > hi) return;  // no tracked frequencies
  hi = std::min(hi, n - 1);
  dft_ = std::make_unique<spectral::SlidingDft>(n, lo, hi);
}

void ElasticityDetector::add_sample(double value) {
  ref_.add_sample(value);
  if (dft_) dft_->add_sample(value);
}

void ElasticityDetector::reset() {
  ref_.reset();
  if (dft_) dft_->reset();
}

bool ElasticityDetector::engine_covers(std::size_t lo, std::size_t hi) const {
  return dft_ && lo >= dft_->bin_lo() && hi <= dft_->bin_hi();
}

ElasticityDetector::Result ElasticityDetector::evaluate(
    double f_pulse_hz) const {
  if (!ready()) return Result();
  const std::size_t n = window_samples();
  const BinSpan s =
      evaluate_span(f_pulse_hz, n, cfg_.sample_rate_hz, cfg_.tolerance_hz);
  if (!engine_covers(s.lo, std::min(s.hi, n - 1))) {
    return ref_.evaluate(f_pulse_hz);
  }
  const spectral::SlidingDft& dft = *dft_;
  return evaluate_band(
      cfg_, n, f_pulse_hz,
      [&dft](std::size_t k) { return dft.hann_power(k); },
      [&dft](std::size_t k) { return dft.hann_magnitude(k); });
}

double ElasticityDetector::magnitude_near(double f_hz) const {
  if (!ready()) return 0.0;
  const std::size_t n = window_samples();
  const std::size_t center =
      spectral::frequency_bin(f_hz, n, cfg_.sample_rate_hz);
  const std::size_t lo = center > 1 ? center - 1 : 1;
  if (!engine_covers(lo, center + 1)) return ref_.magnitude_near(f_hz);
  const spectral::SlidingDft& dft = *dft_;
  return magnitude_near_band(
      n, cfg_.sample_rate_hz, f_hz,
      [&dft](std::size_t k) { return dft.hann_power(k); },
      [&dft](std::size_t k) { return dft.hann_magnitude(k); });
}

}  // namespace nimbus::core
