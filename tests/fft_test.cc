// Tests for the spectral module: FFT correctness against a naive DFT,
// Parseval's identity, Bluestein arbitrary sizes, Goertzel equivalence,
// window properties, and the elasticity metric on synthetic signals.
#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "core/elasticity.h"
#include "spectral/fft.h"
#include "spectral/goertzel.h"
#include "spectral/spectrum.h"
#include "spectral/window.h"
#include "util/rng.h"

namespace nimbus::spectral {
namespace {

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * M_PI * static_cast<double>(k * j) /
                         static_cast<double>(n);
      sum += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = sum;
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return x;
}

TEST(FftTest, PowersOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(512));
  EXPECT_FALSE(is_power_of_two(500));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_EQ(next_power_of_two(500), 512u);
  EXPECT_EQ(next_power_of_two(512), 512u);
  EXPECT_EQ(next_power_of_two(1), 1u);
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 42 + n);
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-6 * n) << "bin " << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-6 * n) << "bin " << k;
  }
}

TEST_P(FftSizeTest, InverseRoundTrip) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 7 + n);
  const auto back = fft(fft(x), /*inverse=*/true);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(back[k].real(), x[k].real(), 1e-9 * n);
    EXPECT_NEAR(back[k].imag(), x[k].imag(), 1e-9 * n);
  }
}

TEST_P(FftSizeTest, ParsevalIdentity) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 1 + n);
  const auto spec = fft(x);
  double time_energy = 0, freq_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-6 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 512,  // radix2
                                           3, 5, 100, 500, 499, 750));

TEST(FftTest, ImpulseIsFlat) {
  std::vector<Complex> x(64, Complex(0, 0));
  x[0] = Complex(1, 0);
  const auto spec = fft(x);
  for (const auto& v : spec) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(FftTest, PureToneLandsOnBin) {
  // 5 Hz tone sampled at 100 Hz over 5 s (N=500): bin 25 exactly.
  const std::size_t n = 500;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * M_PI * 5.0 * static_cast<double>(i) / 100.0);
  }
  const auto mags = magnitude_spectrum(x);
  // Unit sine -> 0.5 at its bin (normalized by N).
  EXPECT_NEAR(mags[25], 0.5, 1e-9);
  for (std::size_t k = 0; k < mags.size(); ++k) {
    if (k != 25) {
      EXPECT_LT(mags[k], 1e-6) << "bin " << k;
    }
  }
}

TEST(FftTest, DcBinIsMean) {
  std::vector<double> x(500, 3.25);
  const auto mags = magnitude_spectrum(x);
  EXPECT_NEAR(mags[0], 3.25, 1e-12);
}

TEST(FftTest, BinFrequencyMapping) {
  EXPECT_DOUBLE_EQ(bin_frequency(25, 500, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(bin_frequency(30, 500, 100.0), 6.0);
  EXPECT_EQ(frequency_bin(5.0, 500, 100.0), 25u);
  EXPECT_EQ(frequency_bin(6.0, 500, 100.0), 30u);
  EXPECT_EQ(frequency_bin(5.09, 500, 100.0), 25u);  // rounds to nearest
}

// --- Goertzel ---

class GoertzelBinTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoertzelBinTest, MatchesFftBin) {
  util::Rng rng(11);
  std::vector<double> x(500);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const auto mags = magnitude_spectrum(x);
  const std::size_t k = GetParam();
  EXPECT_NEAR(goertzel_magnitude(x, k), mags[k], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bins, GoertzelBinTest,
                         ::testing::Values(0, 1, 10, 25, 30, 49, 100, 250));

TEST(GoertzelTest, DcBinOfConstantSignal) {
  // k = 0 degenerates to a plain sum: X_0 = n * c, so |X_0|/n = c.
  std::vector<double> x(500, 3.25);
  EXPECT_NEAR(goertzel_magnitude(x, 0), 3.25, 1e-12);
}

TEST(GoertzelTest, NyquistBinOfAlternatingSignal) {
  // k = n/2 has cos(pi k) = -1, the other degenerate Goertzel coefficient:
  // x[j] = (-1)^j puts all its energy there, X_{n/2} = n, magnitude 1.
  std::vector<double> x(500);
  for (std::size_t j = 0; j < x.size(); ++j) x[j] = j % 2 == 0 ? 1.0 : -1.0;
  EXPECT_NEAR(goertzel_magnitude(x, 250), 1.0, 1e-9);
  EXPECT_NEAR(goertzel_magnitude(x, 25), 0.0, 1e-9);
}

TEST(GoertzelTest, AtFrequency) {
  std::vector<double> x(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * M_PI * 5.0 * static_cast<double>(i) / 100.0);
  }
  EXPECT_NEAR(goertzel_at_frequency(x, 5.0, 100.0), 0.5, 1e-9);
  EXPECT_NEAR(goertzel_at_frequency(x, 7.0, 100.0), 0.0, 1e-9);
}

// --- windows ---

TEST(WindowTest, RectIsOnes) {
  const auto w = make_window(WindowType::kRect, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

class WindowTypeTest : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypeTest, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 101);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
    EXPECT_GE(w[i], -1e-12);
    EXPECT_LE(w[i], 1.0 + 1e-12);
  }
  // Peak at the center.
  EXPECT_NEAR(w[50], 1.0, 0.09);
}

INSTANTIATE_TEST_SUITE_P(Types, WindowTypeTest,
                         ::testing::Values(WindowType::kHann,
                                           WindowType::kHamming,
                                           WindowType::kBlackman));

TEST(WindowTest, HannReducesLeakage) {
  // An off-bin tone (5.1 Hz with 0.2 Hz resolution) leaks; Hann should
  // concentrate more energy near the tone than rectangular windowing at
  // distant bins.
  const std::size_t n = 500;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * M_PI * 5.1 * static_cast<double>(i) / 100.0);
  }
  auto rect = x;
  const auto rect_mags = magnitude_spectrum(rect);
  auto hann = x;
  apply_window(hann, WindowType::kHann);
  const auto hann_mags = magnitude_spectrum(hann);
  // Compare leakage at 8 Hz (bin 40), far from the tone.
  EXPECT_LT(hann_mags[40], rect_mags[40]);
}

TEST(WindowTest, PeriodicHannIsThreeExponentials) {
  // The periodic Hann window is exactly w[j] = 0.5 - 0.25 e^{2*pi*i*j/n}
  // - 0.25 e^{-2*pi*i*j/n} — the identity that lets the sliding-DFT
  // engine apply it as a 3-bin frequency-domain convolution.
  const std::size_t n = 500;
  const auto w = make_window(WindowType::kHannPeriodic, n);
  double hann_sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = 2.0 * M_PI * static_cast<double>(j) /
                       static_cast<double>(n);
    EXPECT_NEAR(w[j], 0.5 - 0.5 * std::cos(ang), 1e-15);
    hann_sum += w[j];
  }
  // The cosine sums to zero over one full period, so sum(w) = n/2 exactly.
  EXPECT_NEAR(hann_sum, static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  // Periodic (denominator n): the last tap is NOT zero — conceptually the
  // window wraps, with the missing zero at index n.  The symmetric Hann
  // (denominator n-1) ends on an explicit zero instead.
  EXPECT_GT(w[n - 1], 0.0);
  const auto sym = make_window(WindowType::kHann, n);
  EXPECT_DOUBLE_EQ(sym[n - 1], 0.0);
  // The two differ by O(1/n) per tap.
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(w[j], sym[j], 2.0 * M_PI / static_cast<double>(n));
  }
}

TEST(WindowTest, PrecomputedOverloadMatchesTypeOverload) {
  util::Rng rng(17);
  std::vector<double> a(256), b(256);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] = rng.uniform(-1, 1);
  apply_window(a, WindowType::kBlackman);
  apply_window(b, make_window(WindowType::kBlackman, b.size()));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(WindowTest, RemoveMean) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  remove_mean(x);
  EXPECT_DOUBLE_EQ(x[0], -1.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
}

// --- spectrum + elasticity metric ---

std::vector<double> tone_plus_noise(double f_tone, double amp, double noise,
                                    std::uint64_t seed, std::size_t n = 500,
                                    double fs = 100.0) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amp * std::sin(2.0 * M_PI * f_tone * static_cast<double>(i) / fs) +
           rng.normal(0.0, noise);
  }
  return x;
}

TEST(SpectrumTest, DominantFrequency) {
  const auto x = tone_plus_noise(5.0, 1.0, 0.05, 3);
  const auto spec = analyze(x, 100.0);
  EXPECT_NEAR(spec.dominant_frequency(), 5.0, 0.21);
}

TEST(SpectrumTest, PeakInBand) {
  const auto x = tone_plus_noise(7.0, 1.0, 0.0, 3);
  const auto spec = analyze(x, 100.0);
  EXPECT_GT(spec.peak_in(6.0, 8.0), 0.2);
  EXPECT_LT(spec.peak_in(10.0, 20.0), 0.01);
}

TEST(ElasticityEtaTest, StrongToneAtPulseFrequency) {
  const auto x = tone_plus_noise(5.0, 1.0, 0.1, 5);
  const auto spec = analyze(x, 100.0);
  EXPECT_GT(elasticity_eta(spec, 5.0), 3.0);
}

TEST(ElasticityEtaTest, WhiteNoiseIsInelastic) {
  const auto x = tone_plus_noise(5.0, 0.0, 1.0, 6);
  const auto spec = analyze(x, 100.0);
  EXPECT_LT(elasticity_eta(spec, 5.0), 2.0);
}

TEST(ElasticityEtaTest, ToneOutsideBandDoesNotCount) {
  // Energy at 7 Hz (inside the comparison band) should *suppress* eta.
  const auto x = tone_plus_noise(7.0, 1.0, 0.05, 8);
  const auto spec = analyze(x, 100.0);
  EXPECT_LT(elasticity_eta(spec, 5.0), 1.0);
}

TEST(ElasticityEtaTest, HarmonicsOfAsymmetricPulseIgnored) {
  // Tone at 5 Hz plus harmonics at 10/15 Hz (asymmetric pulse shape):
  // harmonics lie outside (5, 10) so eta stays high.
  util::Rng rng(9);
  std::vector<double> x(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / 100.0;
    x[i] = std::sin(2 * M_PI * 5 * t) + 0.5 * std::sin(2 * M_PI * 10 * t) +
           0.3 * std::sin(2 * M_PI * 15 * t) + rng.normal(0, 0.05);
  }
  const auto spec = analyze(x, 100.0);
  EXPECT_GT(elasticity_eta(spec, 5.0), 3.0);
}

// --- detector band scan at the spectrum edge ---

TEST(ElasticityEtaTest, NumeratorScanAcrossNyquistDoesNotCrash) {
  // frequency_bin clamps to n/2, so a pulse near the Nyquist frequency
  // (49.9 Hz at fs=100) centers the numerator scan at bin 250 and walks it
  // to center+2 = 252 — past n/2 but still a valid DFT bin.  The tolerance
  // filter keeps only bins 249 (49.8 Hz) and 250 (50.0 Hz); the
  // denominator band (f+tol, 2f) is empty after clamping, so a tone at
  // the pulse frequency yields the sentinel eta = 1e9.
  core::DetectorConfig cfg;
  cfg.tracked_freqs_hz = {49.9, 0.0};  // engine path walks the same bins
  core::ElasticityDetector engine(cfg);
  core::ReferenceElasticityDetector reference(cfg);
  util::Rng rng(23);
  const std::size_t n = engine.window_samples();
  ASSERT_EQ(n, 500u);
  for (std::size_t i = 0; i < n; ++i) {
    const double v =
        std::sin(2.0 * M_PI * 49.8 * static_cast<double>(i) / 100.0) +
        rng.normal(0.0, 0.01);
    engine.add_sample(v);
    reference.add_sample(v);
  }
  EXPECT_GE(engine.engine().bin_hi(), 252u);
  const auto re = engine.evaluate(49.9);
  const auto rr = reference.evaluate(49.9);
  ASSERT_TRUE(re.valid);
  ASSERT_TRUE(rr.valid);
  EXPECT_GT(re.pulse_magnitude, 0.1);
  EXPECT_NEAR(re.pulse_magnitude, rr.pulse_magnitude,
              1e-9 * (1.0 + rr.pulse_magnitude));
  EXPECT_DOUBLE_EQ(re.eta, 1e9);
  EXPECT_DOUBLE_EQ(rr.eta, 1e9);
}

}  // namespace
}  // namespace nimbus::spectral
