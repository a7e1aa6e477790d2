// A one-shot magnitude spectrum (ElasticityDetector::full_spectrum(): the
// Fig. 5 plot and the elasticity probe's evidence).
#pragma once

#include <cstddef>
#include <vector>

#include "spectral/sliding_dft.h"

namespace nimbus::spectral {

/// Magnitudes of bins 0..N/2 of an N-point transform of a uniformly
/// sampled real signal, normalized by N.
struct Spectrum {
  double sample_rate_hz = 0.0;
  std::vector<double> magnitude;

  std::size_t bins() const { return magnitude.size(); }
  double frequency(std::size_t k) const {
    const std::size_t n = (bins() - 1) * 2;
    return bin_frequency(k, n == 0 ? 1 : n, sample_rate_hz);
  }
};

}  // namespace nimbus::spectral
