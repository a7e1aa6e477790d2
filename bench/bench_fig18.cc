// Fig. 18: three example "Internet paths" (synthetic catalog; see
// DESIGN.md substitution table): two deep-buffered paths where Nimbus
// matches Cubic/BBR throughput at lower delay, and one lossy path where
// Cubic collapses but Nimbus keeps throughput.
//
// Declarative form: every (path, scheme) cell is a ScenarioSpec from
// path_scenario() batched through run_scenarios_cached; collect reduces
// each run to its (rate, delay) CellResult, memoised under NIMBUS_CACHE.
// Rows print in spec order from the in-order result callback.  Verified
// bit-identical (cold and warm) to the uncached run_scenarios version it
// replaces, which was itself verified bit-identical to the per-path
// run-and-summarize loop before that.
#include "common.h"

#include <array>
#include <map>

#include "exp/path_catalog.h"

using namespace nimbus;
using namespace nimbus::bench;

int main() {
  const TimeNs duration = dur(60, 30);
  const auto paths = exp::internet_paths();
  // deep-4 (96 Mbit/s, deep buffer), deep-2 (48, deep), lossy-2.
  const std::vector<std::size_t> picks = {3, 1, 20};
  const std::vector<std::string> schemes = {"nimbus", "cubic", "bbr",
                                            "vegas"};

  std::vector<exp::ScenarioSpec> specs;
  for (std::size_t pi : picks) {
    for (const std::string& scheme : schemes) {
      specs.push_back(exp::path_scenario(scheme, paths[pi], duration, 7));
      specs.back().protagonist.record_rtt = true;  // collect reads the RTT
    }
  }

  std::printf("fig18,path,scheme,rate_mbps,mean_rtt_ms\n");
  // Cacheable cell layout: [mean_rate_mbps, mean_rtt_ms].
  std::map<std::string, std::map<std::string, std::array<double, 2>>> all;
  exp::run_scenarios_cached(
      specs,
      [](const exp::ScenarioSpec& spec, exp::ScenarioRun& run) {
        // Skip the first 10 s of warmup.
        const auto s = exp::summarize_flow(run.built.net->recorder(), 1,
                                           from_sec(10), spec.duration);
        return exp::CellResult::vec({s.mean_rate_mbps, s.mean_rtt_ms});
      },
      [&](std::size_t i, exp::CellResult& r) {
        const auto& path = paths[picks[i / schemes.size()]];
        const auto& scheme = schemes[i % schemes.size()];
        all[path.name][scheme] = {r.value(0), r.value(1)};
        row("fig18", path.name + "," + scheme, {r.value(0), r.value(1)});
      });

  const auto& deep = all[paths[picks[0]].name];
  const auto& lossy = all[paths[picks[2]].name];
  const auto rate = [](const std::array<double, 2>& c) { return c[0]; };
  const auto rtt = [](const std::array<double, 2>& c) { return c[1]; };
  shape_check("fig18",
              rtt(deep.at("nimbus")) < rtt(deep.at("cubic")) - 10 &&
                  rate(deep.at("nimbus")) > 0.7 * rate(deep.at("cubic")),
              "deep-buffer path: nimbus ~cubic rate at lower delay");
  shape_check("fig18",
              rate(lossy.at("nimbus")) > rate(lossy.at("cubic")),
              "lossy path: nimbus beats cubic");
  return shape_exit_code();
}
