// Fig. 8: the "visualizing Nimbus" experiment.  96 Mbit/s link, 50 ms RTT,
// 2 BDP buffer, 180 s with a phase schedule of cross traffic (xM = Poisson
// Mbit/s, yT = y long-running Cubic flows):
//   0-20:16M/1T 20-40:32M/2T 40-60:0M/4T 60-80:0M/3T 80-100:0M/1T
//   100-120:16M 120-140:32M 140-160:48M 160-180:16M
// For each scheme: per-second throughput and queue delay, plus the phase
// fair-share reference.
//
// Each scheme is one ScenarioSpec; the grid runs through
// run_scenarios_cached (NIMBUS_JOBS workers), with CSV rows emitted in
// scheme order regardless of completion order.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

struct Phase {
  double poisson_mbps;
  int cubic_flows;
};

const Phase kPhases[] = {{16, 1}, {32, 2}, {0, 4}, {0, 3}, {0, 1},
                         {16, 0}, {32, 0}, {48, 0}, {16, 0}};
constexpr double kMu = 96e6;

double fair_share(const Phase& p) {
  // Fair share for the protagonist: equal split of what's left after
  // inelastic traffic, among the protagonist and elastic flows.
  return (kMu - p.poisson_mbps * 1e6) / (p.cubic_flows + 1) / 1e6;
}

exp::ScenarioSpec make_spec(const std::string& scheme, TimeNs phase_len) {
  exp::ScenarioSpec spec;
  spec.name = "fig08/" + scheme;
  spec.mu_bps = kMu;
  spec.duration = phase_len * 9;
  spec.protagonist.scheme = scheme;
  sim::FlowId next = 10;
  for (int i = 0; i < 9; ++i) {
    const TimeNs a = phase_len * i, b = phase_len * (i + 1);
    if (kPhases[i].poisson_mbps > 0) {
      spec.cross.push_back(
          exp::CrossSpec::poisson(kPhases[i].poisson_mbps * 1e6, next++, a, b));
    }
    for (int c = 0; c < kPhases[i].cubic_flows; ++c) {
      spec.cross.push_back(exp::CrossSpec::flow("cubic", next++, a, b));
    }
  }
  return spec;
}

// Cell layout: two summaries, then one (second, rate_mbps, qdelay_ms,
// fair_mbps) row per second.
// kRateDeficit is the mean |rate - fair| / fair across phases,
// kDelayInelastic the mean queue delay in the Poisson-only phases.
enum : std::size_t { kRateDeficit, kDelayInelastic, kSeconds };

exp::CellResult collect(TimeNs phase_len, exp::ScenarioRun& run) {
  const TimeNs end = phase_len * 9;
  auto& rec = run.built.net->recorder();
  double deficit = 0, delay = 0;
  int n_inel = 0;
  for (int i = 0; i < 9; ++i) {
    const TimeNs a = phase_len * i + phase_len / 4, b = phase_len * (i + 1);
    const double rate = rec.delivered(1).rate_bps(a, b) / 1e6;
    const double fair = fair_share(kPhases[i]);
    deficit += std::abs(rate - fair) / fair / 9.0;
    if (kPhases[i].cubic_flows == 0) {
      delay += rec.probed_queue_delay().mean_in(a, b).value_or(0.0);
      ++n_inel;
    }
  }
  auto r = exp::CellResult::vec({deficit, delay / n_inel});

  const auto rates = rec.delivered(1).bucket_rates_bps(0, end, from_sec(1));
  const auto delays =
      rec.probed_queue_delay().bucket_means(0, end, from_sec(1));
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto phase = std::min<std::size_t>(
        i / static_cast<std::size_t>(to_sec(phase_len)), 8);
    r.values.insert(r.values.end(),
                    {static_cast<double>(i), rates[i] / 1e6, delays[i],
                     fair_share(kPhases[phase])});
  }
  return r;
}

}  // namespace

int main() {
  const TimeNs phase_len = dur(20, 12);
  std::printf("fig08,scheme,second,rate_mbps,qdelay_ms,fair_mbps\n");
  const std::vector<std::string> schemes =
      full_run() ? std::vector<std::string>{"nimbus", "nimbus-copa", "cubic",
                                            "bbr", "vegas", "compound",
                                            "copa", "vivace"}
                 : std::vector<std::string>{"nimbus", "cubic", "vegas",
                                            "copa"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) specs.push_back(make_spec(s, phase_len));

  const auto results = exp::run_scenarios_cached(
      specs,
      [&](const exp::ScenarioSpec&, exp::ScenarioRun& run) {
        return collect(phase_len, run);
      },
      // Fires in scheme order as the completed prefix grows.
      [&](std::size_t i, exp::CellResult& r) {
        for (std::size_t j = kSeconds; j + 4 <= r.values.size(); j += 4) {
          row("fig08", schemes[i],
              {r.value(j), r.value(j + 1), r.value(j + 2), r.value(j + 3)});
        }
        row("fig08", "summary_" + schemes[i],
            {r.value(kRateDeficit), r.value(kDelayInelastic)});
      });

  double nimbus_deficit = 0, nimbus_delay = 0;
  double cubic_delay = 0, vegas_deficit = 0;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const exp::CellResult& r = results[i];
    if (schemes[i] == "nimbus") {
      nimbus_deficit = r.value(kRateDeficit);
      nimbus_delay = r.value(kDelayInelastic);
    }
    if (schemes[i] == "cubic") cubic_delay = r.value(kDelayInelastic);
    if (schemes[i] == "vegas") vegas_deficit = r.value(kRateDeficit);
  }
  shape_check("fig08", nimbus_delay < 0.5 * cubic_delay,
              "nimbus delay vs inelastic phases well below cubic's");
  shape_check("fig08", nimbus_deficit < vegas_deficit,
              "nimbus tracks fair share better than vegas");
  return shape_exit_code();
}
