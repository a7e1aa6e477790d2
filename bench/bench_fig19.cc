// Fig. 19: aggregate over the catalog's paths with queueing: Nimbus's
// throughput tracks Cubic (within ~10% of BBR) while its RTT sits 40-50 ms
// below Cubic/BBR.  CDFs of per-path mean rate and RTT per scheme.
//
// Declarative form: every (scheme, path) cell is a path_scenario spec
// batched through run_scenarios_cached; per-scheme CDFs print as each
// scheme's paths complete, in spec order.  Verified byte-identical to the
// per-path run-and-summarize loop it replaces.
#include <map>

#include "common.h"
#include "exp/path_catalog.h"

using namespace nimbus;
using namespace nimbus::bench;

int main() {
  const TimeNs duration = dur(60, 25);
  const auto all_paths = exp::internet_paths();
  std::vector<exp::PathConfig> paths;
  for (const auto& p : all_paths) {
    if (p.has_queueing) paths.push_back(p);
  }
  // PR 4 widened the quick-mode aggregate from 8 paths x 1 seed to 12
  // paths x 2 seeds per scheme (the paper reports per-path aggregate CDFs;
  // the parallel runner absorbs the extra cells on multicore hosts).  Seed
  // 3 keeps the historical first sample.  Quick-mode golden output
  // re-baselined deliberately — see CHANGES.md.
  if (!full_run()) paths.resize(std::min<std::size_t>(paths.size(), 12));
  const std::vector<std::uint64_t> seeds =
      full_run() ? std::vector<std::uint64_t>{3}
                 : std::vector<std::uint64_t>{3, exp::derive_seed(3, 1)};

  const std::vector<std::string> schemes = {"nimbus", "cubic", "bbr",
                                            "vegas"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& scheme : schemes) {
    for (const auto& p : paths) {
      for (std::uint64_t seed : seeds) {
        specs.push_back(exp::path_scenario(scheme, p, duration, seed));
        specs.back().protagonist.record_rtt = true;  // collect reads the RTT
      }
    }
  }

  std::printf("fig19,series,scheme,x,cdf\n");
  const std::size_t per_scheme = paths.size() * seeds.size();
  std::map<std::string, util::Percentiles> rates, rtts;
  // Sharded-out cells never enter the Percentiles (NaN would poison the
  // sort); a scheme with any missing cell prints no CDF/summary rows.
  // With a fully merged cache nothing is missing and the output is
  // byte-identical to an unsharded run.
  std::map<std::string, int> missing;
  exp::run_scenarios_cached(
      specs,
      [](const exp::ScenarioSpec& spec, exp::ScenarioRun& run) {
        // Skip the first 10 s of warmup.
        // Cacheable layout: [mean_rate_mbps, mean_rtt_ms] — the two
        // FlowSummary fields this bench consumes.
        const exp::FlowSummary s = exp::summarize_flow(
            run.built.net->recorder(), 1, from_sec(10), spec.duration);
        return exp::CellResult::vec({s.mean_rate_mbps, s.mean_rtt_ms});
      },
      [&](std::size_t i, exp::CellResult& s) {
        const auto& scheme = schemes[i / per_scheme];
        const auto& p = paths[(i % per_scheme) / seeds.size()];
        if (s.valid) {
          rates[scheme].add(s.value(0));
          rtts[scheme].add(s.value(1) - to_ms(p.rtt));  // queueing delay
        } else {
          ++missing[scheme];
        }
        if (i % per_scheme != per_scheme - 1) return;
        if (missing[scheme] > 0) return;
        exp::print_cdf("fig19,rate", scheme, rates[scheme], 11);
        exp::print_cdf("fig19,qdelay", scheme, rtts[scheme], 11);
        row("fig19", "summary_" + scheme,
            {rates[scheme].mean(), rtts[scheme].median()});
      });

  // `complete` short-circuits the stat queries (CHECK-fail on empty
  // collections) when cells are missing; the checks then print SKIP.
  const bool complete = !results_incomplete();
  shape_check("fig19",
              complete &&
                  rates["nimbus"].mean() > 0.7 * rates["cubic"].mean(),
              "nimbus throughput comparable to cubic across paths");
  shape_check("fig19",
              complete &&
                  rtts["nimbus"].median() < rtts["cubic"].median() - 5,
              "nimbus queueing delay clearly below cubic across paths");
  shape_check("fig19",
              complete && rates["vegas"].mean() < rates["nimbus"].mean(),
              "vegas loses throughput on paths with elastic competition");
  return shape_exit_code();
}
