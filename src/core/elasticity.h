// The elasticity detector (paper sections 3.3-3.4).
//
// The sender samples the cross-traffic estimate z(t) every report interval
// (10 ms), keeps the last FFT-duration (5 s) of samples, and computes the
// elasticity metric
//
//   eta = |FFT_z(f_p)| / max_{f in (f_p, 2 f_p)} |FFT_z(f)|      (Eq. 3)
//
// Cross traffic is declared elastic iff eta >= eta_threshold (2).
//
// The same machinery, pointed at a watcher's receive rate R(t), detects
// which frequency a concurrent pulser is using (section 6).
//
// Implementation notes: with a 5 s window at 100 Hz, N = 500 and both pulse
// frequencies (5 and 6 Hz) land on exact bins (25 and 30).  The band query
// only needs ~40 bins, and those bins are maintained *incrementally* by a
// sliding DFT (spectral/sliding_dft.h): O(tracked_bins) per add_sample and
// O(1) per bin per evaluate, instead of an O(n) snapshot plus one O(n)
// Goertzel sweep per bin per report.  The detector holds only that engine
// and always applies the periodic Hann window, the one window the engine
// can apply exactly; a query outside the tracked bands is a programming
// error and CHECK-fails.  full_spectrum() runs the same engine once over
// every bin of the held samples (a direct DFT) for diagnostics and
// figure reproduction.  The test suite checks the engine against an
// independent from-scratch recompute (tests/sliding_dft_test.cc).
#pragma once

#include <array>
#include <cstddef>

#include "spectral/sliding_dft.h"
#include "spectral/spectrum.h"

namespace nimbus::core {

/// z (or R) is sampled once per 10 ms report; core/nimbus.cc asserts that
/// this matches the report cadence.
inline constexpr double kDetectorSampleRateHz = 100.0;

/// Bins within this distance of f_p count toward the Eq.-3 numerator peak
/// (windowing spreads an exact-bin tone into its neighbours), and the
/// denominator band starts above f_p + this.
inline constexpr double kDetectorToleranceHz = 0.25;

struct DetectorConfig {
  double duration_sec = 5.0;   // FFT window (paper: 5 s)
  double eta_threshold = 2.0;  // paper section 3.4
  /// Pulse frequencies whose Eq.-3 bands the sliding DFT maintains
  /// incrementally (both, because watchers evaluate f_pc *and* f_pd every
  /// report).  ElasticityDetector answers evaluate()/magnitude_near() only
  /// inside these bands.  <= 0 entries are ignored; at least one must be
  /// positive.
  std::array<double, 2> tracked_freqs_hz = {5.0, 6.0};
};

struct DetectorResult {
  double eta = 0.0;
  bool elastic = false;
  double pulse_magnitude = 0.0;  // |FFT| near f_p (for pulser conflict
                                 // detection and diagnostics)
  bool valid = false;            // window was full
  /// Argmax of the Eq.-3 denominator: the strongest bin strictly inside
  /// (f_p + tol, 2 f_p).  Decision traces record it so a surprising eta
  /// can be attributed to the competing frequency that produced it.
  std::size_t band_max_bin = 0;
  double band_max_magnitude = 0.0;
};

/// The detector: add_sample feeds the sliding-DFT engine's tracked bands,
/// and evaluate()/magnitude_near() at the tracked pulse frequencies are
/// pure band-max lookups — zero copies, zero allocations, O(1) per bin.  A query whose bins fall outside the tracked bands
/// CHECK-fails, as does a config with no positive tracked frequency.
class ElasticityDetector {
 public:
  using Config = DetectorConfig;
  using Result = DetectorResult;

  ElasticityDetector();
  explicit ElasticityDetector(const Config& config);

  /// Adds one z (or R) sample; call at kDetectorSampleRateHz.
  void add_sample(double value) { dft_.add_sample(value); }
  bool ready() const { return dft_.full(); }
  std::size_t window_samples() const { return dft_.window_size(); }
  void reset() { dft_.reset(); }

  /// Evaluates Eq. (3) for a pulse at f_pulse_hz.
  Result evaluate(double f_pulse_hz) const;

  /// Magnitude of the signal's spectrum near frequency f (numerator of
  /// eta); used by watchers/pulser-conflict checks.
  double magnitude_near(double f_hz) const;

  /// Magnitude spectrum, bins 0..m/2, of the m samples held (the full
  /// window once ready()), mean removed and under periodic Hann; bin 0 is
  /// reported as 0.  O(m^2) and allocates: diagnostics and Fig. 5, never
  /// the report path.
  spectral::Spectrum full_spectrum() const;

  const Config& config() const { return cfg_; }

  /// The incremental engine (introspection for tests and benches).
  const spectral::SlidingDft& engine() const { return dft_; }

 private:
  Config cfg_;
  spectral::SlidingDft dft_;
};

}  // namespace nimbus::core
