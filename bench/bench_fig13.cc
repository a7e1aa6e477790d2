// Fig. 13: WAN workload at 50% and 90% offered load, Nimbus pulse sizes
// 0.125*mu and 0.25*mu, vs Cubic and Vegas.  Nimbus lowers delay without
// losing throughput; the benefit shrinks at high load.
//
// Declarative form: one ScenarioSpec per (load, scheme) cell batched
// through run_scenarios_cached; rows print per load group from the
// in-order result callback.  Verified byte-identical to the imperative
// version it replaces.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// Cell layout.
enum : std::size_t { kMeanRate, kMedianRtt };

exp::ScenarioSpec make_spec(const std::string& scheme, double load,
                            double pulse_frac, TimeNs duration) {
  const double mu = 96e6;
  exp::ScenarioSpec spec;
  spec.name = "fig13/" + scheme;
  spec.mu_bps = mu;
  spec.duration = duration;
  spec.protagonist.record_rtt = true;  // collect summarizes the RTT
  if (scheme == "nimbus") {
    spec.protagonist.use_nimbus_config = true;
    spec.protagonist.nimbus.known_mu_bps = mu;
    spec.protagonist.nimbus.pulse_amplitude_frac = pulse_frac;
  } else {
    spec.protagonist.scheme = scheme;
  }
  spec.workload_enabled = true;
  spec.workload.offered_load_fraction = load;
  spec.workload.seed = 31;
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const auto s = exp::summarize_flow(run.built.net->recorder(), 1,
                                     from_sec(10), spec.duration);
  return exp::CellResult::vec({s.mean_rate_mbps, s.median_rtt_ms});
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 40);
  std::printf("fig13,load,scheme,mean_rate_mbps,median_rtt_ms\n");
  const std::vector<double> loads = {0.5, 0.9};
  // Per load: cubic, vegas, nimbus pulse 0.25, nimbus pulse 0.125 — the
  // hand-rolled execution order.
  const std::vector<std::string> labels = {"cubic", "vegas", "nimbus0.25",
                                           "nimbus0.125"};
  std::vector<exp::ScenarioSpec> specs;
  for (double load : loads) {
    specs.push_back(make_spec("cubic", load, 0, duration));
    specs.push_back(make_spec("vegas", load, 0, duration));
    specs.push_back(make_spec("nimbus", load, 0.25, duration));
    specs.push_back(make_spec("nimbus", load, 0.125, duration));
  }

  // The load-0.5 shape check prints between the two load groups, exactly
  // where the hand-rolled loop emitted it.
  std::vector<exp::CellResult> group;
  exp::run_scenarios_cached(
      specs, collect, [&](std::size_t i, exp::CellResult& p) {
        const double load = loads[i / 4];
        row("fig13", util::format_num(load) + "," + labels[i % 4],
            {p.value(kMeanRate), p.value(kMedianRtt)});
        group.push_back(p);
        if (i % 4 == 3) {
          if (load == 0.5) {
            const exp::CellResult& cubic = group[0];
            const exp::CellResult& nim25 = group[2];
            shape_check(
                "fig13",
                nim25.value(kMedianRtt) < cubic.value(kMedianRtt) &&
                    nim25.value(kMeanRate) > 0.6 * cubic.value(kMeanRate),
                "load 50%: nimbus lowers delay at cubic-like rate");
          }
          group.clear();
        }
      });
  return shape_exit_code();
}
