// Synthetic Internet-path catalog (substitute for the paper's 25 real
// EC2-to-residential paths; Figs. 18-20).
//
// The real testbed is unavailable offline, so the catalog spans the regimes
// the paper's path experiments exercise (see DESIGN.md substitution table):
//   * deep-buffer paths dominated by inelastic cross traffic — the regime
//     where delay-control wins (lower RTT at equal throughput),
//   * paths with competing elastic traffic — Nimbus must hold its own,
//   * shallow-buffer / random-loss / policed paths — where Cubic collapses
//     but rate-based schemes keep throughput.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "util/time.h"

namespace nimbus::exp {

struct PathConfig {
  std::string name;
  double rate_bps = 96e6;
  TimeNs rtt = from_ms(50);
  double buffer_bdp = 2.0;
  double random_loss = 0.0;       // i.i.d. loss probability
  bool policer = false;           // token-bucket at policer_frac * rate
  double policer_frac = 0.9;
  double inelastic_load = 0.2;    // Poisson load fraction of the link
  int elastic_flows = 0;          // long-running Cubic competitors
  bool has_queueing = true;       // counts toward the Fig. 19 "paths with
                                  // queueing" aggregate
};

/// The 25-path catalog.
std::vector<PathConfig> internet_paths();

/// The ScenarioSpec equivalent of a path run: protagonist `scheme` as a
/// bulk transfer with online mu estimation, plus the path's Poisson load,
/// elastic competitors, loss, and policer.  Sweeps batch path grids
/// through run_scenarios_cached.  `seed` must be nonzero (it
/// feeds the historical seed*{13,17,31}+c per-component formulas).
ScenarioSpec path_scenario(const std::string& scheme, const PathConfig& path,
                           TimeNs duration, std::uint64_t seed);

}  // namespace nimbus::exp
