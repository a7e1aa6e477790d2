// App. E.2: robustness to buffer size (0.25-4 BDP), propagation delay
// (25/50/75 ms) and AQM (PIE at two target delays).  Accuracy plus the
// performance guardrail the paper emphasizes: even where classification
// degrades, Nimbus keeps its fair share and bounded delay.
//
// Declarative form: accuracy_scenario specs for the buffer/RTT grid plus
// QueueKind::kPie specs for the AQM cells, batched through
// run_scenarios_cached.  Verified byte-identical to the imperative run_pie
// version it replaces.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec pie_spec(double target_bdp_frac, TimeNs duration) {
  const double mu = 96e6;
  exp::ScenarioSpec spec;
  spec.name = "appE2/pie";
  spec.mu_bps = mu;
  spec.duration = duration;
  spec.queue = exp::QueueKind::kPie;
  spec.buffer_bdp = 4.0;  // PIE's hard capacity limit
  spec.pie_target_delay = static_cast<TimeNs>(
      target_bdp_frac * static_cast<double>(spec.rtt));
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = mu;
  spec.cross.push_back(exp::CrossSpec::poisson(0.5 * mu, 2));
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  // Ground truth (elastic cross present) is derived from the spec.
  return exp::CellResult::scalar(exp::score_accuracy(run, spec));
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 30);
  std::printf("appE2,factor,value,mix,accuracy\n");
  const std::vector<double> bdps = full_run()
                                       ? std::vector<double>{0.25, 0.5, 1,
                                                             2, 4}
                                       : std::vector<double>{0.5, 2, 4};
  const std::vector<double> rtts = {25.0, 75.0};
  const std::vector<double> pie_targets = {0.25, 1.0};

  std::vector<exp::ScenarioSpec> specs;
  std::vector<std::string> labels;
  std::size_t headline_cells = 0;  // buffer + RTT cells fold into the mean
  for (double bdp : bdps) {
    for (const std::string mix : {"newreno", "poisson"}) {
      specs.push_back(exp::accuracy_scenario(mix, 96e6, from_ms(50),
                                             from_ms(50), 0.5, duration, 55,
                                             {}, bdp));
      labels.push_back("buffer_bdp," + util::format_num(bdp) + "," + mix);
    }
  }
  for (double rtt_ms : rtts) {
    for (const std::string mix : {"newreno", "poisson"}) {
      specs.push_back(exp::accuracy_scenario(mix, 96e6, from_ms(rtt_ms),
                                             from_ms(rtt_ms), 0.5, duration,
                                             56));
      labels.push_back("rtt_ms," + util::format_num(rtt_ms) + "," + mix);
    }
  }
  headline_cells = specs.size();
  for (double pie_target : pie_targets) {
    specs.push_back(pie_spec(pie_target, duration));
    // PIE results are reported but not folded into the headline mean: the
    // paper itself notes small-target PIE degrades classification (losses
    // corrupt the estimator) without hurting performance.
    labels.push_back("pie_target_bdp," + util::format_num(pie_target) +
                     ",poisson");
  }

  util::OnlineStats acc;
  exp::run_scenarios_cached(
      specs, collect, [&](std::size_t i, exp::CellResult& r) {
        row("appE2", labels[i], {r.value()});
        if (i < headline_cells) acc.add(r.value());
      });
  row("appE2", "summary_mean_accuracy", {acc.mean()});
  shape_check("appE2", acc.mean() > 0.7,
              "accuracy stays high across buffers and RTTs");
  return shape_exit_code();
}
