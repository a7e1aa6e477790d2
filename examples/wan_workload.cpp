// WAN workload example (the section 8.1 scenario): a bulk transfer
// sharing a 96 Mbit/s bottleneck with heavy-tailed cross traffic at 50%
// load.  Compares Nimbus with Cubic and Vegas on throughput and delay, and
// shows the elasticity metric tracking the workload's elastic phases.
//
// Each scheme is one declarative ScenarioSpec (exp/scenario.h); the three
// runs go through exp::run_scenarios_cached (exp/runner.h), so on a
// multi-core host the comparison takes one scheme's wall-clock time.
//
//   $ ./examples/wan_workload [duration_seconds]
#include <cstdio>
#include <cstdlib>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/summary.h"

using namespace nimbus;

namespace {

// Each run reduces to these values (a CellResult's layout); kAccuracy is
// only meaningful for nimbus.
enum : std::size_t { kRate, kMeanRtt, kMedianRtt, kP95Rtt, kAccuracy };

exp::ScenarioSpec make_spec(const std::string& scheme, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "wan/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.protagonist.record_rtt = true;  // collect summarizes the RTT
  spec.workload_enabled = true;
  spec.workload.offered_load_fraction = 0.5;
  spec.workload.seed = 1234;
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const auto& rec = run.built.net->recorder();
  const exp::FlowSummary s =
      exp::summarize_flow(rec, 1, from_sec(10), spec.duration);
  double accuracy = 0;
  if (run.built.nimbus != nullptr) {
    // Score mode decisions against the workload's byte-weighted truth in
    // clear-cut seconds.
    int agree = 0, total = 0;
    for (int t = 10; t < static_cast<int>(to_sec(spec.duration)); ++t) {
      const TimeNs a = from_sec(t), b = from_sec(t + 1);
      const double frac =
          run.built.workload->elastic_byte_fraction(rec, a, b);
      if (frac > 0.3 && frac < 0.7) continue;
      ++total;
      if ((run.mode_log->fraction_competitive(a, b) > 0.5) == (frac >= 0.7)) {
        ++agree;
      }
    }
    accuracy = total ? static_cast<double>(agree) / total : 0.0;
  }
  return exp::CellResult::vec({s.mean_rate_mbps, s.mean_rtt_ms,
                               s.median_rtt_ms, s.p95_rtt_ms, accuracy});
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 60.0;
  const TimeNs duration = from_sec(seconds);
  const std::vector<std::string> schemes = {"nimbus", "cubic", "vegas"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) specs.push_back(make_spec(s, duration));

  std::printf("scheme       rate    mean RTT  median RTT   p95 RTT\n");
  const auto outcomes = exp::run_scenarios_cached(
      specs, collect, [&](std::size_t i, exp::CellResult& o) {
        std::printf("%-10s %6.1f M %8.1f ms %8.1f ms %8.1f ms\n",
                    schemes[i].c_str(), o.value(kRate), o.value(kMeanRtt),
                    o.value(kMedianRtt), o.value(kP95Rtt));
      });

  const exp::CellResult& nimbus = outcomes[0];
  const exp::CellResult& cubic = outcomes[1];
  const exp::CellResult& vegas = outcomes[2];
  std::printf("\nnimbus classification accuracy (clear-cut seconds): %.0f%%\n",
              nimbus.value(kAccuracy) * 100);
  std::printf(
      "shape: nimbus ~ cubic's rate (%.0f%% of it) at %.0f ms lower median "
      "RTT;\n       vegas cedes %.0f%% of nimbus's rate\n",
      100 * nimbus.value(kRate) / cubic.value(kRate),
      cubic.value(kMedianRtt) - nimbus.value(kMedianRtt),
      100 * (1 - vegas.value(kRate) / nimbus.value(kRate)));
  return 0;
}
