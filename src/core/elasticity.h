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
// error and CHECK-fails.  ReferenceElasticityDetector keeps the recompute
// pipeline as the test oracle the engine is equivalence-tested against;
// full_spectrum() runs the Bluestein FFT over the engine's sample window
// for diagnostics and figure reproduction.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "spectral/sliding_dft.h"
#include "spectral/spectrum.h"
#include "spectral/window.h"

namespace nimbus::core {

/// Fixed-capacity sliding window of uniformly sampled values, stored as a
/// flat ring buffer (one allocation at construction; the detector pushes a
/// sample every pulse period, so the window must not churn the allocator
/// the way the seed's std::deque did).
class SlidingSignal {
 public:
  explicit SlidingSignal(std::size_t capacity);

  void add(double v);
  bool full() const { return size_ == capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Oldest-to-newest copy of the window.
  std::vector<double> snapshot() const;

  /// Writes the window oldest-to-newest into `out` (resized to size()),
  /// reusing its capacity — the allocation-free path evaluate() uses.
  void copy_to(std::vector<double>& out) const;

 private:
  std::size_t capacity_;
  std::vector<double> buf_;   // ring storage, sized capacity_
  std::size_t head_ = 0;      // index of the oldest sample
  std::size_t size_ = 0;
};

struct DetectorConfig {
  double sample_rate_hz = 100.0;  // one sample per 10 ms report
  double duration_sec = 5.0;      // FFT window (paper: 5 s)
  double eta_threshold = 2.0;     // paper section 3.4
  /// Bins within this distance of f_p count toward the numerator peak
  /// (windowing spreads an exact-bin tone into its neighbours).
  double tolerance_hz = 0.25;
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

/// The from-scratch spectral pipeline: snapshot the ring, remove the mean,
/// apply the (cached) periodic Hann window, Goertzel each band bin.
/// O(bins * n) per evaluate — the executable specification the incremental
/// engine is equivalence-tested against.  Answers any frequency.
class ReferenceElasticityDetector {
 public:
  using Config = DetectorConfig;
  using Result = DetectorResult;

  ReferenceElasticityDetector();
  explicit ReferenceElasticityDetector(const Config& config);

  void add_sample(double value);
  bool ready() const { return signal_.full(); }
  std::size_t window_samples() const { return signal_.capacity(); }
  void reset() { signal_.clear(); }

  Result evaluate(double f_pulse_hz) const;
  double magnitude_near(double f_hz) const;
  spectral::Spectrum full_spectrum() const;

  const Config& config() const { return cfg_; }

 private:
  /// Fills scratch_ with the mean-removed, windowed signal and returns it.
  const std::vector<double>& windowed_snapshot() const;

  Config cfg_;
  SlidingSignal signal_;
  // Reused by every evaluate()/magnitude_near() call (the seed version
  // allocated a fresh vector per call).
  mutable std::vector<double> scratch_;
  // Window coefficients cached per detector (make_window allocated a
  // fresh vector on every apply_window call — ~100x/s per flow on what
  // was advertised as the allocation-free path).
  mutable std::vector<double> window_;
};

/// The production detector: add_sample feeds the sliding-DFT engine's
/// tracked bands, and evaluate()/magnitude_near() at the tracked pulse
/// frequencies are pure band-max lookups — zero copies, zero allocations,
/// O(1) per bin.  A query whose bins fall outside the tracked bands
/// CHECK-fails, as does a config with no positive tracked frequency.
class ElasticityDetector {
 public:
  using Config = DetectorConfig;
  using Result = DetectorResult;

  ElasticityDetector();
  explicit ElasticityDetector(const Config& config);

  /// Adds one z (or R) sample; call at the configured sample rate.
  void add_sample(double value) { dft_.add_sample(value); }
  bool ready() const { return dft_.full(); }
  std::size_t window_samples() const { return dft_.window_size(); }
  void reset() { dft_.reset(); }

  /// Evaluates Eq. (3) for a pulse at f_pulse_hz.
  Result evaluate(double f_pulse_hz) const;

  /// Magnitude of the signal's spectrum near frequency f (numerator of
  /// eta); used by watchers/pulser-conflict checks.
  double magnitude_near(double f_hz) const;

  /// Full magnitude spectrum of the current window under periodic Hann
  /// (diagnostics, Fig. 5).  Allocates; never on the report path.
  spectral::Spectrum full_spectrum() const;

  const Config& config() const { return cfg_; }

  /// The incremental engine (introspection for tests and benches).
  const spectral::SlidingDft& engine() const { return dft_; }

 private:
  Config cfg_;
  spectral::SlidingDft dft_;
};

}  // namespace nimbus::core
