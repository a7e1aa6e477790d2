// Streaming and batch statistics used by the experiment harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace nimbus::util {

/// Streaming mean/variance/min/max (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Collects samples for percentile queries and CDF dumps.
///
/// Stores all samples; experiments here produce at most a few million
/// samples, which is cheap next to the packet-level simulation itself.
class Percentiles {
 public:
  void add(double x) { samples_.push_back(x); }
  void add_all(const std::vector<double>& xs);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// p in [0, 1]; linear interpolation between order statistics.
  /// CHECK-fails on an empty collection, as does mean(): query emptiness
  /// with empty()/count() first.  (Pre-PR-4, mean() silently returned 0.0
  /// on empty while percentile() CHECK-failed — one contract now.)
  double percentile(double p) const;
  double median() const { return percentile(0.5); }
  double mean() const;
  double min() const { return percentile(0.0); }
  double max() const { return percentile(1.0); }

  /// Evenly spaced CDF points (value at i/(n_points-1) quantiles).
  std::vector<std::pair<double, double>> cdf(std::size_t n_points = 101) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Sorted lazily on query.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Jain's fairness index over per-flow allocations: (sum x)^2 / (n * sum x^2).
double jain_fairness(const std::vector<double>& allocations);

}  // namespace nimbus::util
