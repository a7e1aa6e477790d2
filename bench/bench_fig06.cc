// Fig. 6: distribution of the elasticity metric eta as the elastic byte
// fraction of the cross traffic varies (0/25/50/75/100%).  Cross traffic =
// one Cubic flow + Poisson at rates that hit the target byte mix; total
// cross load ~50% of a 96 Mbit/s link.  Median eta rises from ~1 (purely
// inelastic) to large values (purely elastic); the paper picks
// eta_thresh = 2.
//
// Declarative form: one ScenarioSpec per elastic fraction, batched through
// run_scenarios_cached; raw-eta samples come from the run's standard
// detector-gated eta_raw log, reduced on the worker to the five plotted
// percentiles.  Verified byte-identical to the imperative version it
// replaces.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(double elastic_fraction, std::uint64_t seed,
                            TimeNs duration) {
  const double mu = 96e6;
  const double cross_total = 0.5 * mu;
  exp::ScenarioSpec spec;
  spec.name = "fig06/" + util::format_num(elastic_fraction);
  spec.mu_bps = mu;
  spec.duration = duration;
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = mu;
  spec.protagonist.nimbus.eta_threshold = 1e9;  // measure eta without
                                                // switching modes

  // Inelastic component.
  const double poisson_rate = (1.0 - elastic_fraction) * cross_total;
  if (poisson_rate > 0.5e6) {
    spec.cross.push_back(exp::CrossSpec::poisson(poisson_rate, 2));
  }
  // Elastic component: a long-lived Cubic flow; the delay-mode Nimbus
  // claims spare capacity, so the cubic settles near whatever the Poisson
  // leaves — matching the paper's "Cubic + Poisson at different average
  // rates" setup.
  if (elastic_fraction > 0.01) {
    exp::CrossSpec c = exp::CrossSpec::flow("cubic", 3);
    c.seed = seed;
    spec.cross.push_back(c);
  }
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  util::Percentiles p;
  p.add_all(run.eta_raw_log->values_in(from_sec(10), spec.duration));
  // Cell layout: eta's p10, p25, p50, p75 and p90.
  return exp::CellResult::vec({p.percentile(0.10), p.percentile(0.25),
                               p.median(), p.percentile(0.75),
                               p.percentile(0.90)});
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 40);
  std::printf("fig06,elastic_fraction,p10,p25,p50,p75,p90\n");
  const std::vector<double> fracs = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<exp::ScenarioSpec> specs;
  for (double frac : fracs) specs.push_back(make_spec(frac, 17, duration));

  double median_0 = 0, median_100 = 0, median_25 = 0;
  exp::run_scenarios_cached(
      specs, collect, [&](std::size_t i, exp::CellResult& p) {
        const double frac = fracs[i];
        row("fig06", util::format_num(frac),
            {p.value(0), p.value(1), p.value(2), p.value(3), p.value(4)});
        if (frac == 0.0) median_0 = p.value(2);
        if (frac == 0.25) median_25 = p.value(2);
        if (frac == 1.0) median_100 = p.value(2);
      });
  shape_check("fig06", median_0 < 2.0,
              "purely inelastic cross traffic has median eta ~1 (< 2)");
  shape_check("fig06", median_100 > 2.0,
              "purely elastic cross traffic has high median eta (> 2)");
  shape_check("fig06", median_25 > median_0,
              "eta grows with the elastic fraction");
  return shape_exit_code();
}
