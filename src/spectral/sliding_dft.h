// Incremental sliding DFT over a fixed-length sample window.
//
// The elasticity detector (Eq. 3) needs the spectrum of the last N samples
// of z(t) in a fixed band around the pulse frequency, re-evaluated on every
// 10 ms report.  Recomputing that band from scratch costs O(bins * N) per
// report (a windowed-snapshot pass plus one Goertzel sweep per bin); the
// sliding DFT maintains each tracked bin's complex coefficient
// incrementally, for O(tracked_bins) work per new sample and O(1) per bin
// per query:
//
//   S_k <- (S_k - x_oldest + x_new) * e^{+2*pi*i*k/N}
//
// keeping the invariant that S_k is the DFT of the current window with
// index 0 at the oldest sample.
//
// Two analytic identities make the engine produce exactly the detector's
// "remove mean, apply Hann, Goertzel" pipeline without ever touching the
// time domain again:
//
//  * Mean removal only changes DFT bin 0: subtracting the mean m from every
//    sample subtracts N*m from X_0 and nothing from any other bin — and
//    X_0 of the mean-removed signal is exactly 0.  So the engine just
//    substitutes 0 whenever bin 0 (mod N) enters a formula.
//  * The *periodic* Hann window is exactly three complex exponentials at
//    DFT bins -1, 0, +1 (w[j] = 0.5 - 0.25 e^{2*pi*i*j/N} -
//    0.25 e^{-2*pi*i*j/N}), so the DFT of the windowed signal at bin k is
//    the 3-bin convolution 0.5*Y_k - 0.25*Y_{k-1} - 0.25*Y_{k+1}.
//
// (The symmetric Hann the detector previously used has its cosine period at
// n-1 samples, which lands between DFT bins and spreads into every bin —
// no finite convolution exists.  The detector therefore switched to
// periodic Hann; for N=500 the two windows differ by O(1/N) per tap.)
//
// Floating-point drift from the recurrence is bounded by a periodic full
// recompute (one direct pass per tracked bin) once per window turnover, so
// steady-state cost stays O(tracked_bins) amortized per sample.  reset() is
// O(1): it only rewinds the fill state, because samples are write-only
// until the window refills.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nimbus::spectral {

using Complex = std::complex<double>;

/// Frequency (Hz) of bin k for an N-point transform at sample rate fs.
inline double bin_frequency(std::size_t k, std::size_t n,
                            double sample_rate_hz) {
  return static_cast<double>(k) * sample_rate_hz / static_cast<double>(n);
}

/// Closest bin to frequency f (Hz) for an N-point transform at rate fs,
/// clamped to N/2.
inline std::size_t frequency_bin(double f_hz, std::size_t n,
                                 double sample_rate_hz) {
  const double k = f_hz * static_cast<double>(n) / sample_rate_hz;
  auto bin = static_cast<std::size_t>(k + 0.5);
  if (bin > n / 2) bin = n / 2;
  return bin;
}

class SlidingDft {
 public:
  /// Tracks bins [bin_lo, bin_hi] of an N-point (`window`) DFT.  Queries
  /// are valid for exactly that range; the engine internally also
  /// maintains bins bin_lo-1 and bin_hi+1 for the Hann convolution.
  SlidingDft(std::size_t window, std::size_t bin_lo, std::size_t bin_hi);

  /// Pushes one sample; O(tracked_bins).
  void add_sample(double x);

  /// Forgets all samples in O(1).  The window must refill (add_sample * N)
  /// before queries are meaningful again.
  void reset();

  bool full() const { return size_ == n_; }
  std::size_t size() const { return size_; }
  std::size_t window_size() const { return n_; }
  std::size_t bin_lo() const { return lo_; }
  std::size_t bin_hi() const { return hi_; }
  bool tracks(std::size_t k) const { return k >= lo_ && k <= hi_; }

  /// Raw (rectangular-window, mean *not* removed) complex DFT coefficient
  /// at bin k, unnormalized (forward sum x[j]*e^{-2*pi*i*k*j/N}).
  Complex raw_bin(std::size_t k) const;

  /// |DFT| at bin k of the mean-removed, periodic-Hann-windowed window,
  /// normalized by N — a direct DFT of that windowed snapshot, up to
  /// floating-point error.  O(1).
  double hann_magnitude(std::size_t k) const;

  /// re^2 + im^2 of the same coefficient before the 1/N normalization: an
  /// ordering proxy for hann_magnitude that skips the hypot (written out,
  /// because libstdc++'s std::norm computes abs()^2).  The detector's band
  /// scan takes hann_magnitude only for bins whose proxy comes near the
  /// running maximum.  O(1).
  double hann_power(std::size_t k) const;

  /// Full recomputes performed so far (for tests/diagnostics).
  std::uint64_t resyncs() const { return resyncs_; }

  /// Forces the anti-drift recompute now (tests, and full_spectrum()'s
  /// one-shot direct DFT).
  void force_resync();

  /// Oldest-to-newest copy of the window into `out` (diagnostics; the
  /// query path never needs the time domain).
  void copy_to(std::vector<double>& out) const;

 private:
  // Mean-removed coefficient: bin 0 (mod N) of the mean-removed signal is
  // identically zero; every other bin is untouched by mean removal.
  Complex centered_bin(std::size_t k) const;
  // Unnormalized DFT of the mean-removed, periodic-Hann-windowed window.
  Complex hann_bin(std::size_t k) const;

  std::size_t n_;                // window length N
  std::size_t lo_, hi_;          // queryable band
  std::size_t ilo_, ihi_;        // maintained band (lo-1 .. hi+1, clamped)
  std::vector<double> ring_;     // N samples; head_ = oldest
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::vector<Complex> bins_;    // S_k for k in [ilo_, ihi_]
  std::vector<Complex> rot_;     // e^{+2*pi*i*k/N} per maintained bin
  std::vector<Complex> step_;    // e^{-2*pi*i*k/N} per maintained bin
  std::size_t since_resync_ = 0;
  std::uint64_t resyncs_ = 0;
};

}  // namespace nimbus::spectral
