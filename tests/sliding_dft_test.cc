// Tests for the incremental sliding-DFT spectral engine (PR 6):
//
//  * randomized churn equivalence — engine band magnitudes vs the
//    reference "snapshot, remove mean, periodic Hann, Goertzel" recompute,
//  * drift bound after 10^6 samples with the periodic anti-drift resync,
//  * O(1) reset / refill semantics,
//  * golden eta pins for a fig08-style pulsed-elastic signal (re-baselined
//    when the detector switched from symmetric to periodic Hann),
//  * bit equality of the detector's Eq. 3 band scan with a plain per-bin
//    hann_magnitude scan (random, all-zero and tied-bin windows),
//  * zero-allocation guarantees for the detector band queries and for the
//    full Nimbus on_report spectral path, via the same counting
//    operator-new hook as transport_ring_test.cc.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/elasticity.h"
#include "core/nimbus.h"
#include "sim/cc_interface.h"
#include "spectral/fft.h"
#include "spectral/goertzel.h"
#include "spectral/sliding_dft.h"
#include "spectral/window.h"
#include "util/rng.h"
#include "util/time.h"

// --- counting operator-new hook (whole test binary) ---------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The hooks are noinline on purpose: when gcc 12 inlines these bodies it
// pairs the malloc in operator new with the free in operator delete across
// call sites and raises a spurious -Wmismatched-new-delete under -Werror
// (and an inlined counter could be elided outright).
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nimbus {
namespace {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

// Reference pipeline for one bin: |DFT(periodic_hann * (x - mean))| / N,
// computed from scratch exactly the way ReferenceElasticityDetector does.
double reference_hann_magnitude(std::vector<double> x, std::size_t k) {
  spectral::remove_mean(x);
  spectral::apply_window(x, spectral::WindowType::kHannPeriodic);
  return spectral::goertzel_magnitude(x, k);
}

// --- engine vs recompute equivalence ------------------------------------

TEST(SlidingDftTest, ExactAfterInitialFill) {
  const std::size_t n = 500;
  spectral::SlidingDft dft(n, 23, 60);
  util::Rng rng(101);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1.0, 1.0);
    EXPECT_FALSE(dft.full());
    dft.add_sample(x[i]);
  }
  ASSERT_TRUE(dft.full());
  EXPECT_EQ(dft.resyncs(), 0u);  // fill alone must not trigger a resync
  for (std::size_t k = dft.bin_lo(); k <= dft.bin_hi(); ++k) {
    EXPECT_NEAR(dft.hann_magnitude(k), reference_hann_magnitude(x, k), 1e-12)
        << "bin " << k;
  }
}

TEST(SlidingDftTest, RandomChurnMatchesGoertzelRecompute) {
  // Slide the window through ~4 turnovers of a randomly switching signal
  // (tones appearing and vanishing, offsets, noise) and spot-check every
  // tracked bin against the from-scratch recompute at uneven intervals,
  // so checks land at all ring phases and between resyncs.
  const std::size_t n = 500;
  spectral::SlidingDft dft(n, 23, 60);
  util::Rng rng(202);
  double tone_hz = 5.0, tone_amp = 1.0, offset = 0.0;
  std::vector<double> win;
  std::size_t t = 0;
  for (std::size_t step = 0; step < 4 * n + 137; ++step, ++t) {
    if (step % 313 == 0) {
      tone_hz = rng.uniform(1.0, 12.0);
      tone_amp = rng.uniform(0.0, 8e6);
      offset = rng.uniform(0.0, 48e6);
    }
    const double v =
        offset +
        tone_amp * std::sin(2.0 * M_PI * tone_hz * static_cast<double>(t) /
                            100.0) +
        rng.normal(0.0, 0.1 * (1.0 + tone_amp));
    dft.add_sample(v);
    if (dft.full() && step % 137 == 0) {
      dft.copy_to(win);
      ASSERT_EQ(win.size(), n);
      for (std::size_t k = dft.bin_lo(); k <= dft.bin_hi(); ++k) {
        const double ref = reference_hann_magnitude(win, k);
        // 1e-7 absolute floor: recurrence rounding noise scales with the
        // window's sample magnitude (~5e7 here), not with the (possibly
        // tiny) bin being read.
        EXPECT_NEAR(dft.hann_magnitude(k), ref, 1e-7 + 1e-9 * ref)
            << "bin " << k << " at step " << step;
      }
    }
  }
  // ~4 turnovers at the default one-turnover resync cadence.
  EXPECT_GE(dft.resyncs(), 3u);
}

TEST(SlidingDftTest, DriftStaysBoundedOverMillionSamples) {
  // 10^6 samples = 2000 window turnovers.  The recurrence alone would let
  // rounding error accumulate without bound; the periodic resync (one
  // direct pass per turnover by default) must keep the band magnitudes
  // glued to the from-scratch recompute.  Large offsets (~5e7) against
  // small band energy make this adversarial: absolute rounding noise sits
  // ~11 decimal digits under the signal.
  const std::size_t n = 500;
  spectral::SlidingDft dft(n, 23, 60);
  util::Rng rng(303);
  std::size_t t = 0;
  for (std::size_t step = 0; step < 1'000'000; ++step, ++t) {
    const double v =
        5e7 +
        4e6 * std::sin(2.0 * M_PI * 5.0 * static_cast<double>(t) / 100.0) +
        rng.normal(0.0, 5e5);
    dft.add_sample(v);
  }
  EXPECT_GE(dft.resyncs(), 1990u);
  std::vector<double> win;
  dft.copy_to(win);
  for (std::size_t k = dft.bin_lo(); k <= dft.bin_hi(); ++k) {
    const double ref = reference_hann_magnitude(win, k);
    // Tolerance is relative to the window's scale (offset ~5e7), not the
    // bin magnitude: a near-empty bin's absolute error is set by the
    // samples that cancelled to produce it.
    EXPECT_NEAR(dft.hann_magnitude(k), ref, 1e-6) << "bin " << k;
  }
}

TEST(SlidingDftTest, ResetIsO1AndRefillIsExact) {
  const std::size_t n = 500;
  spectral::SlidingDft dft(n, 23, 60);
  util::Rng rng(404);
  for (std::size_t i = 0; i < n + 250; ++i) dft.add_sample(rng.normal(0, 1e6));
  ASSERT_TRUE(dft.full());

  dft.reset();
  EXPECT_FALSE(dft.full());
  EXPECT_EQ(dft.size(), 0u);

  // Partial refill: still not full, still not queryable.
  for (std::size_t i = 0; i < n / 2; ++i) dft.add_sample(rng.normal(0, 1e6));
  EXPECT_FALSE(dft.full());

  // Complete the refill; the engine must equal a fresh engine fed only the
  // post-reset samples (the pre-reset ring contents are dead).
  dft.reset();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-2e6, 2e6);
    dft.add_sample(x[i]);
  }
  ASSERT_TRUE(dft.full());
  for (std::size_t k = dft.bin_lo(); k <= dft.bin_hi(); ++k) {
    const double ref = reference_hann_magnitude(x, k);
    EXPECT_NEAR(dft.hann_magnitude(k), ref, 1e-12 * (1.0 + ref))
        << "bin " << k;
  }
}

TEST(SlidingDftTest, ForcedResyncIsIdempotent) {
  const std::size_t n = 500;
  spectral::SlidingDft dft(n, 23, 60);
  util::Rng rng(505);
  for (std::size_t i = 0; i < n + 123; ++i) dft.add_sample(rng.normal(0, 1.0));
  std::vector<double> before(38 + 1);
  for (std::size_t k = dft.bin_lo(); k <= dft.bin_hi(); ++k) {
    before[k - dft.bin_lo()] = dft.hann_magnitude(k);
  }
  const std::uint64_t resyncs = dft.resyncs();
  dft.force_resync();
  EXPECT_EQ(dft.resyncs(), resyncs + 1);
  for (std::size_t k = dft.bin_lo(); k <= dft.bin_hi(); ++k) {
    // The resync replaces accumulated rounding with a fresh direct sum —
    // any change must be at rounding scale.
    EXPECT_NEAR(dft.hann_magnitude(k), before[k - dft.bin_lo()], 1e-12);
  }
}

// --- detector-level equivalence and golden pins -------------------------

// fig08-style signal: cross traffic at ~mu/4 responding elastically to a
// 5 Hz pulse train, plus measurement noise — the shape the detector sees
// when an elastic competitor shares the bottleneck.
std::vector<double> fig08_signal(std::size_t n) {
  util::Rng rng(42);
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 100.0;
    z[i] = 12e6 + 6e6 * std::sin(2.0 * M_PI * 5.0 * t) +
           1.5e6 * std::sin(2.0 * M_PI * 10.0 * t) + rng.normal(0.0, 8e5);
  }
  return z;
}

TEST(SlidingDftDetectorTest, EngineMatchesReferenceDetector) {
  core::DetectorConfig cfg;  // periodic Hann, tracked {5, 6}
  core::ElasticityDetector engine(cfg);
  core::ReferenceElasticityDetector reference(cfg);
  const auto z = fig08_signal(1234);
  for (double v : z) {
    engine.add_sample(v);
    reference.add_sample(v);
  }
  for (double f : {5.0, 6.0}) {
    const auto re = engine.evaluate(f);
    const auto rr = reference.evaluate(f);
    ASSERT_TRUE(re.valid && rr.valid);
    EXPECT_NEAR(re.eta, rr.eta, 1e-9 * (1.0 + rr.eta)) << "f=" << f;
    EXPECT_NEAR(re.pulse_magnitude, rr.pulse_magnitude,
                1e-9 * (1.0 + rr.pulse_magnitude))
        << "f=" << f;
    EXPECT_EQ(re.elastic, rr.elastic) << "f=" << f;
  }
  EXPECT_NEAR(engine.magnitude_near(5.0), reference.magnitude_near(5.0),
              1e-3);
  EXPECT_NEAR(engine.magnitude_near(6.0), reference.magnitude_near(6.0),
              1e-3);
}

// Eq. 3 written out bin by bin over the engine's hann_magnitude, with no
// squared-magnitude shortcut: the detector's band scan must return exactly
// these fields.
core::DetectorResult per_bin_scan(const core::ElasticityDetector& d,
                                  double f_p) {
  const spectral::SlidingDft& dft = d.engine();
  const core::DetectorConfig& cfg = d.config();
  const std::size_t n = d.window_samples();
  const double fs = cfg.sample_rate_hz;
  core::DetectorResult r;
  r.valid = true;
  const std::size_t center = spectral::frequency_bin(f_p, n, fs);
  for (std::size_t k = center > 2 ? center - 2 : 1; k <= center + 2; ++k) {
    const double f = spectral::bin_frequency(k, n, fs);
    if (std::abs(f - f_p) <= cfg.tolerance_hz + 1e-9) {
      r.pulse_magnitude = std::max(r.pulse_magnitude, dft.hann_magnitude(k));
    }
  }
  const std::size_t hi = spectral::frequency_bin(2.0 * f_p, n, fs);
  for (std::size_t k = spectral::frequency_bin(f_p + cfg.tolerance_hz, n, fs);
       k <= hi; ++k) {
    const double f = spectral::bin_frequency(k, n, fs);
    if (f > f_p + cfg.tolerance_hz && f < 2.0 * f_p &&
        dft.hann_magnitude(k) > r.band_max_magnitude) {
      r.band_max_magnitude = dft.hann_magnitude(k);
      r.band_max_bin = k;
    }
  }
  const double num = r.pulse_magnitude, den = r.band_max_magnitude;
  r.eta = den > 0.0 ? num / den : (num > 0.0 ? 1e9 : 0.0);
  r.elastic = r.eta >= cfg.eta_threshold;
  return r;
}

double per_bin_near(const core::ElasticityDetector& d, double f) {
  const std::size_t center = spectral::frequency_bin(
      f, d.window_samples(), d.config().sample_rate_hz);
  double best = 0.0;
  for (std::size_t k = center - 1; k <= center + 1; ++k) {
    best = std::max(best, d.engine().hann_magnitude(k));
  }
  return best;
}

void expect_scan_bit_equal(const core::ElasticityDetector& d) {
  for (double f : {5.0, 6.0}) {
    const core::DetectorResult got = d.evaluate(f);
    const core::DetectorResult want = per_bin_scan(d, f);
    EXPECT_EQ(got.eta, want.eta) << "f=" << f;
    EXPECT_EQ(got.elastic, want.elastic) << "f=" << f;
    EXPECT_EQ(got.pulse_magnitude, want.pulse_magnitude) << "f=" << f;
    EXPECT_EQ(got.band_max_bin, want.band_max_bin) << "f=" << f;
    EXPECT_EQ(got.band_max_magnitude, want.band_max_magnitude) << "f=" << f;
    EXPECT_EQ(d.magnitude_near(f), per_bin_near(d, f)) << "f=" << f;
  }
}

TEST(SlidingDftDetectorTest, BandScanBitEqualToPerBinMagnitudes) {
  core::ElasticityDetector d{core::DetectorConfig{}};
  util::Rng rng(2024);
  // Random windows: noise of drifting scale plus a weak 5 Hz tone, checked
  // at many offsets as the window slides.
  for (int i = 0; i < 3000; ++i) {
    const double t = i / 100.0;
    const double scale = 1e5 * (1.0 + 50.0 * rng.uniform());
    d.add_sample(rng.normal(0.0, scale) + 3e5 * std::sin(2.0 * M_PI * 5.0 * t));
    if (d.ready() && i % 7 == 0) expect_scan_bit_equal(d);
  }
}

TEST(SlidingDftDetectorTest, BandScanBitEqualOnAllZeroWindow) {
  core::ElasticityDetector d{core::DetectorConfig{}};
  for (std::size_t i = 0; i < d.window_samples(); ++i) d.add_sample(0.0);
  ASSERT_TRUE(d.ready());
  expect_scan_bit_equal(d);
  const core::DetectorResult r = d.evaluate(5.0);
  EXPECT_EQ(r.eta, 0.0);
  EXPECT_EQ(r.band_max_bin, 0u);
  EXPECT_EQ(r.band_max_magnitude, 0.0);
}

TEST(SlidingDftDetectorTest, BandScanBitEqualOnTiedDenominatorBins) {
  // Equal-amplitude tones on exact bins 35 and 45 (7 and 9 Hz), both
  // inside f_p = 5 Hz's (5.25, 10) Hz denominator band: their magnitudes
  // agree to rounding, so the scan must resolve the tie on |c| itself.
  // The 9 Hz tone is also skewed a hair either way (far inside the 1e-9
  // proxy margin), so the later bin must win exactly when it is larger.
  for (double skew : {0.0, 1e-12, -1e-12}) {
    core::ElasticityDetector d{core::DetectorConfig{}};
    for (std::size_t i = 0; i < d.window_samples() + 123; ++i) {
      const double t = static_cast<double>(i) / 100.0;
      d.add_sample(1e6 * (std::sin(2.0 * M_PI * 7.0 * t) +
                          (1.0 + skew) * std::sin(2.0 * M_PI * 9.0 * t)));
    }
    const spectral::SlidingDft& dft = d.engine();
    const double m35 = dft.hann_magnitude(35), m45 = dft.hann_magnitude(45);
    ASSERT_NEAR(m35, m45, 1e-10 * m35) << "skew=" << skew;
    expect_scan_bit_equal(d);
    const std::size_t bin = d.evaluate(5.0).band_max_bin;
    EXPECT_EQ(bin, m45 > m35 ? 45u : 35u) << "skew=" << skew;
    if (skew != 0.0) {
      EXPECT_EQ(bin, skew > 0.0 ? 45u : 35u);
    }
  }
}

TEST(SlidingDftDetectorTest, FullSpectrumBitEqualToReference) {
  // Fig. 5 prints full_spectrum(); the engine's sample window must feed
  // the FFT exactly the reference's samples, also after reset + refill.
  core::DetectorConfig cfg;
  core::ElasticityDetector engine(cfg);
  core::ReferenceElasticityDetector reference(cfg);
  const auto expect_equal = [&](const char* when) {
    const spectral::Spectrum a = engine.full_spectrum();
    const spectral::Spectrum b = reference.full_spectrum();
    EXPECT_EQ(a.sample_rate_hz, b.sample_rate_hz) << when;
    ASSERT_FALSE(a.magnitude.empty()) << when;
    EXPECT_EQ(a.magnitude, b.magnitude) << when;
  };
  const auto feed = [&](const std::vector<double>& z) {
    for (double v : z) {
      engine.add_sample(v);
      reference.add_sample(v);
    }
  };
  feed(fig08_signal(777));  // wrapped ring: 277 samples past full
  ASSERT_TRUE(engine.ready());
  expect_equal("full window");
  engine.reset();
  reference.reset();
  feed(fig08_signal(123));
  expect_equal("partway through a refill");
  feed(fig08_signal(engine.window_samples()));
  expect_equal("after reset and refill");
}

TEST(SlidingDftDetectorDeathTest, UntrackedFrequencyFailsLoudly) {
  // 10 Hz's Eq.-3 band (10.25, 20) Hz lies outside the tracked {5, 6} Hz
  // bands; answering it would need the removed recompute path.  The query
  // fails whether or not the window has filled yet.
  core::ElasticityDetector detector{core::DetectorConfig{}};
  EXPECT_DEATH((void)detector.evaluate(10.0), "outside the tracked bands");
  for (double v : fig08_signal(600)) detector.add_sample(v);
  EXPECT_DEATH((void)detector.evaluate(10.0), "outside the tracked bands");
  EXPECT_DEATH((void)detector.magnitude_near(20.0),
               "outside the tracked bands");
}

TEST(SlidingDftDetectorDeathTest, NoPositiveTrackedFrequencyFailsLoudly) {
  core::DetectorConfig cfg;
  cfg.tracked_freqs_hz = {0.0, -5.0};
  EXPECT_DEATH(core::ElasticityDetector{cfg}, "positive tracked frequency");
}

TEST(SlidingDftDetectorTest, GoldenEtaPinsFig08Signal) {
  // Golden eta values for the fig08-style signal above, captured from this
  // PR's build.  PR 6 switched the detector window from symmetric to
  // periodic Hann (the sliding-DFT engine applies Hann as a 3-bin
  // frequency-domain convolution, which only exists for the periodic
  // form), so these pins re-baseline the detector's absolute output; the
  // two windows differ by O(1/N) per tap, which moved eta here by < 0.5%.
  // Tolerance is 1e-9 relative: the engine recurrence plus resync must
  // reproduce the pinned value to floating-point accuracy, not merely
  // qualitatively.
  core::ElasticityDetector detector{core::DetectorConfig{}};
  const auto z = fig08_signal(500);
  for (double v : z) detector.add_sample(v);
  const auto at5 = detector.evaluate(5.0);
  const auto at6 = detector.evaluate(6.0);
  ASSERT_TRUE(at5.valid && at6.valid);
  EXPECT_NEAR(at5.eta, 7.7283848245413136, 7.8e-9);
  EXPECT_NEAR(at5.pulse_magnitude, 1483962.5266205359, 1.5e-3);
  EXPECT_TRUE(at5.elastic);
  EXPECT_NEAR(at6.eta, 0.048482105207342682, 1e-9);
  EXPECT_FALSE(at6.elastic);
}

// --- zero-allocation guarantees -----------------------------------------

TEST(SlidingDftAllocTest, DetectorSpectralPathIsAllocationFree) {
  core::ElasticityDetector detector{core::DetectorConfig{}};
  util::Rng rng(606);
  // Fill the window and touch every query once so lazily-sized scratch
  // space (none should exist on the engine path) is settled.
  for (int i = 0; i < 600; ++i) detector.add_sample(rng.normal(24e6, 4e6));
  (void)detector.evaluate(5.0);
  (void)detector.evaluate(6.0);
  (void)detector.magnitude_near(5.0);

  const std::uint64_t before = alloc_count();
  double sink = 0.0;
  for (int i = 0; i < 2000; ++i) {
    detector.add_sample(rng.normal(24e6, 4e6));
    sink += detector.evaluate(5.0).eta;
    sink += detector.evaluate(6.0).eta;
    sink += detector.magnitude_near(5.0);
  }
  EXPECT_EQ(alloc_count(), before)
      << "engine-backed add_sample/evaluate/magnitude_near must not allocate";
  EXPECT_GT(sink, 0.0);
}

TEST(SlidingDftAllocTest, DetectorResetIsAllocationFree) {
  core::ElasticityDetector detector{core::DetectorConfig{}};
  util::Rng rng(707);
  for (int i = 0; i < 600; ++i) detector.add_sample(rng.normal(24e6, 4e6));
  const std::uint64_t before = alloc_count();
  detector.reset();
  for (int i = 0; i < 600; ++i) detector.add_sample(rng.normal(24e6, 4e6));
  EXPECT_EQ(alloc_count(), before);
}

// Minimal CcContext for driving Nimbus::on_report off-simulator, the same
// shape bench_micro uses; now() tracks the report clock so the EWMA
// filters see real time.
struct StubCcContext final : sim::CcContext {
  TimeNs t = 0;
  double cwnd = 64 * 1500.0;
  double pacing = 0.0;
  double rate_window = 0.0;
  util::Rng rng_{42};

  TimeNs now() const override { return t; }
  std::uint32_t mss() const override { return 1500; }
  double cwnd_bytes() const override { return cwnd; }
  void set_cwnd_bytes(double b) override { cwnd = b; }
  double pacing_rate_bps() const override { return pacing; }
  void set_pacing_rate_bps(double b) override { pacing = b; }
  TimeNs srtt() const override { return from_ms(50); }
  TimeNs latest_rtt() const override { return from_ms(55); }
  TimeNs min_rtt() const override { return from_ms(50); }
  std::int64_t bytes_in_flight() const override { return 48 * 1500; }
  bool is_app_limited() const override { return false; }
  double send_rate_bps() const override { return 48e6; }
  double recv_rate_bps() const override { return 46e6; }
  bool rates_valid() const override { return true; }
  void set_rate_window_bytes(double b) override { rate_window = b; }
  util::Rng& rng() override { return rng_; }
};

TEST(SlidingDftAllocTest, NimbusOnReportSpectralPathIsAllocationFree) {
  // The full per-report path — z estimation, detector add_sample, the
  // eta evaluation behind decide_mode_from_detector, and rate control —
  // must be steady-state allocation-free now that evaluate() is an O(1)
  // band lookup.  Warm up past window fill (500 reports) plus the rate
  // history horizon (fft duration + 1 s = 600 reports) so every ring has
  // reached its steady-state capacity.
  core::Nimbus::Config cfg;
  cfg.known_mu_bps = 48e6;
  core::Nimbus nimbus(cfg);
  StubCcContext ctx;
  nimbus.init(ctx);
  util::Rng rng(808);
  sim::CcReport report;
  report.rates_valid = true;
  report.srtt = from_ms(50);
  report.latest_rtt = from_ms(55);
  report.min_rtt = from_ms(50);
  report.acked_packets = 40;
  report.bytes_in_flight = 48 * 1500;

  auto deliver = [&](int count) {
    for (int i = 0; i < count; ++i) {
      ctx.t += from_ms(10);
      report.now = ctx.t;
      report.send_rate_bps = 30e6 + rng.normal(0.0, 2e6);
      report.recv_rate_bps = 28e6 + rng.normal(0.0, 2e6);
      nimbus.on_report(ctx, report);
    }
  };
  deliver(900);

  const std::uint64_t before = alloc_count();
  deliver(500);
  EXPECT_EQ(alloc_count(), before)
      << "Nimbus::on_report must be allocation-free in steady state";
  EXPECT_TRUE(nimbus.detector().ready());
}

}  // namespace
}  // namespace nimbus
