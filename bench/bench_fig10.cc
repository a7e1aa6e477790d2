// Fig. 10: Copa's throughput drops during periods with large elastic
// cross-flows (mode-switching errors), while Nimbus keeps competing.
// Protagonist vs a long elastic Cubic phase embedded in the WAN workload.
//
// Declarative form: one ScenarioSpec per scheme (WAN workload at 0.3 load,
// seed 5, plus a mid-run Cubic phase on flow 900) batched through
// run_scenarios_cached; collect reduces each run to its per-second rate
// series (a CellResult vector, memoised under NIMBUS_CACHE) and the
// in-order result callback prints the rows.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec spec_for(const std::string& scheme, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig10/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.workload_enabled = true;
  spec.workload.offered_load_fraction = 0.3;
  spec.workload.seed = 5;
  // A large elastic flow active through the middle of the run.
  spec.cross.push_back(
      exp::CrossSpec::flow("cubic", 900, duration / 4, 3 * duration / 4));
  return spec;
}

}  // namespace

int main() {
  // Quick mode runs 90 s (not the usual half-length 60 s): the measured
  // window is [duration/4 + 10 s, 3*duration/4), and at 60 s that is a
  // 20-second slice dominated by the detector's mode-transition transient
  // right after the cubic phase starts — the nimbus-vs-copa means land
  // within ~3% of each other and the shape check flips on sub-percent
  // spectral perturbations (it flipped when PR 6 switched the detector to
  // a periodic Hann window, a ~0.4% eta change).  At 90 s the steady
  // competitive phase dominates the window and the margin is ~30%.
  const TimeNs duration = dur(120, 90);
  std::printf("fig10,scheme,second,rate_mbps\n");
  const std::vector<std::string> schemes = {"nimbus", "copa"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) specs.push_back(spec_for(s, duration));

  std::vector<double> means(specs.size(), 0.0);
  exp::run_scenarios_cached(
      specs,
      [](const exp::ScenarioSpec& spec, exp::ScenarioRun& run) {
        return exp::CellResult::vec(
            exp::rate_series_mbps(run.built.net->recorder(), 1,
                                  spec.duration / 4 + from_sec(10),
                                  3 * spec.duration / 4));
      },
      [&](std::size_t i, exp::CellResult& r) {
        double sum = 0;
        std::size_t sec = 0;
        for (double v : r.values) {
          row("fig10", schemes[i], {static_cast<double>(sec++), v});
          sum += v;
        }
        means[i] = r.values.empty()
                       ? 0.0
                       : sum / static_cast<double>(r.values.size());
      });

  row("fig10", "summary_mean_rate_vs_elastic", {means[0], means[1]});
  shape_check("fig10", means[0] > means[1],
              "nimbus sustains more throughput than copa vs elastic flows");
  return shape_exit_code();
}
