// Fig. 21 (App. B): p95 flow-completion time of the WAN cross-flows by
// size bucket, per protagonist scheme, normalized to Nimbus.  BBR inflates
// cross-flow FCTs at all sizes; Cubic hurts short flows; Vegas is gentlest
// but sacrifices its own rate.
//
// Declarative form: one ScenarioSpec per scheme (workload in the spec),
// batched through run_scenarios_cached; the per-bucket p95s are reduced
// from the recorder's completions on the worker.  Verified byte-identical
// to the imperative version it replaces.
#include <cmath>
#include <iterator>
#include <map>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// Cell layout: one p95 FCT per bucket, NaN where the bucket saw fewer
// than five completions.
const char* const kBuckets[] = {"15KB", "150KB", "1.5MB", "15MB", "150MB"};

const char* bucket_name(std::int64_t bytes) {
  if (bytes <= 15e3) return "15KB";
  if (bytes <= 150e3) return "150KB";
  if (bytes <= 1.5e6) return "1.5MB";
  if (bytes <= 15e6) return "15MB";
  return "150MB";
}

exp::ScenarioSpec make_spec(const std::string& scheme, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig21/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.workload_enabled = true;
  spec.workload.offered_load_fraction = 0.5;
  spec.workload.seed = 2024;
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec&, exp::ScenarioRun& run) {
  std::map<std::string, util::Percentiles> byBucket;
  for (const auto& c : run.built.net->recorder().completions()) {
    byBucket[bucket_name(c.bytes)].add(to_sec(c.fct));
  }
  exp::CellResult r;
  for (const char* name : kBuckets) {
    const util::Percentiles& p = byBucket[name];
    r.values.push_back(p.count() >= 5 ? p.percentile(0.95)
                                      : std::nan(""));
  }
  return r;
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 50);
  std::printf("fig21,bucket,scheme,p95_fct_s,normalized_to_nimbus\n");
  const std::vector<std::string> schemes =
      full_run() ? std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas", "copa"}
                 : std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) specs.push_back(make_spec(s, duration));

  // schemes[0] is nimbus, the normalization reference.
  const auto p95 = exp::run_scenarios_cached(specs, collect);

  bool bbr_worse_somewhere = false;
  bool nimbus_not_worst_short = true;
  for (std::size_t b = 0; b < std::size(kBuckets); ++b) {
    const double nim = p95[0].value(b);
    if (std::isnan(nim)) continue;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const std::string& s = schemes[i];
      const double v = p95[i].value(b);
      if (std::isnan(v)) continue;
      row("fig21", std::string(kBuckets[b]) + "," + s, {v, v / nim});
      if (s == "bbr" && v > 1.2 * nim) bbr_worse_somewhere = true;
      if (s == "cubic" && b == 0 && v < nim * 0.8) {
        nimbus_not_worst_short = false;
      }
    }
  }
  shape_check("fig21", bbr_worse_somewhere,
              "BBR inflates cross-flow FCTs relative to nimbus");
  shape_check("fig21", nimbus_not_worst_short,
              "nimbus does not hurt short cross-flows more than cubic");
  return shape_exit_code();
}
