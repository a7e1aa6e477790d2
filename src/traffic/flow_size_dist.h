// Heavy-tailed flow-size distribution modelled on wide-area backbone
// traces.
//
// The paper draws cross-flow sizes from an empirical CDF of the CAIDA 2016
// backbone trace.  That trace is not redistributable, so we substitute a
// piecewise log-uniform mixture calibrated to the published shape of
// backbone flow sizes: most flows are a few KB (inelastic: they finish
// within the initial window), while a small fraction of multi-MB flows
// carries most of the bytes (elastic: long-lived, ACK-clocked).  What the
// experiments need is exactly this alternation of elastic-dominated and
// inelastic-only periods, which any heavy-tailed size distribution at the
// same load reproduces.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace nimbus::traffic {

class FlowSizeDist {
 public:
  struct Band {
    double weight;        // probability of this band
    double lo_bytes;      // log-uniform within [lo, hi]
    double hi_bytes;
  };

  /// WAN-like default mixture (see class comment).
  static FlowSizeDist wan();

  /// Bounded-Pareto alternative (alpha ~ 1.2 is typical of WAN traffic).
  static FlowSizeDist bounded_pareto(double alpha, double lo_bytes,
                                     double hi_bytes);

  explicit FlowSizeDist(std::vector<Band> bands);

  /// Draws one flow size in bytes.
  std::int64_t sample(util::Rng& rng) const;

  /// Analytic mean of the mixture (bytes).
  double mean_bytes() const;

  const std::vector<Band>& bands() const { return bands_; }

  /// Pareto-mode introspection (the canonical spec serializer must see
  /// every sampling parameter; bands() alone does not determine sampling
  /// when the bounded-Pareto factory was used).
  bool is_pareto() const { return pareto_; }
  double pareto_alpha() const { return pareto_alpha_; }
  double pareto_lo_bytes() const { return pareto_lo_; }
  double pareto_hi_bytes() const { return pareto_hi_; }

 private:
  std::vector<Band> bands_;
  bool pareto_ = false;
  double pareto_alpha_ = 0, pareto_lo_ = 0, pareto_hi_ = 0;
};

}  // namespace nimbus::traffic
