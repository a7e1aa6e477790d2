// Section 3.1 claim: the cross-traffic rate estimator's relative error has
// p50 ~ 1.3% and p95 ~ 7.5%.  Measure z-hat against the true cross rate
// under several cross-traffic patterns (CBR, Poisson at various rates).
//
// Declarative form: one ScenarioSpec per (kind, rate) cell batched through
// run_scenarios_cached; z-hat comes from the run's standard z log, windowed
// into 500 ms means on the worker.  Verified byte-identical to the
// imperative set_status_handler version it replaces.
#include <limits>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(const std::string& kind, double cross_rate,
                            TimeNs duration) {
  const double mu = 96e6;
  exp::ScenarioSpec spec;
  spec.name = "zest/" + kind;
  spec.mu_bps = mu;
  spec.duration = duration;
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = mu;
  spec.protagonist.nimbus.eta_threshold = 1e9;  // hold delay mode
                                                // (estimation-only)
  if (kind == "cbr") {
    spec.cross.push_back(exp::CrossSpec::cbr(cross_rate, 2));
  } else {
    spec.cross.push_back(exp::CrossSpec::poisson(cross_rate, 2));
  }
  return spec;
}

// Relative |z-hat - true| errors over 500 ms windows (smooths the pulse-
// period wobble the way the paper's evaluation does), one value per
// window.  The true cross rate is the spec's single source entry.
exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const double cross_rate = spec.cross[0].rate_bps;
  exp::CellResult err;
  for (TimeNs t = from_sec(11); t + from_ms(500) < spec.duration;
       t += from_ms(500)) {
    const double est =
        run.z_log->mean_in(t, t + from_ms(500)).value_or(0.0);
    err.values.push_back(std::abs(est - cross_rate) / cross_rate);
  }
  return err;
}

// The q-quantile, or NaN for no samples (a cell the watchdog stopped).
double quantile(const util::Percentiles& p, double q) {
  return p.empty() ? std::numeric_limits<double>::quiet_NaN()
                   : p.percentile(q);
}

}  // namespace

int main() {
  const TimeNs duration = dur(60, 30);
  std::printf("zest,kind,cross_mbps,p50_err,p95_err\n");
  const std::vector<double> rates = {24e6, 48e6, 72e6};
  struct Cell {
    std::string kind;
    double rate;
  };
  std::vector<Cell> cells;
  std::vector<exp::ScenarioSpec> specs;
  for (const std::string kind : {"cbr", "poisson"}) {
    for (double rate : rates) {
      cells.push_back({kind, rate});
      specs.push_back(make_spec(kind, rate, duration));
    }
  }

  util::Percentiles err;
  exp::run_scenarios_cached(
      specs, collect, [&](std::size_t i, exp::CellResult& r) {
        util::Percentiles local;
        local.add_all(r.values);
        err.add_all(r.values);
        row("zest",
            cells[i].kind + "," + util::format_num(cells[i].rate / 1e6),
            {quantile(local, 0.5), quantile(local, 0.95)});
      });

  const double p50 = quantile(err, 0.5), p95 = quantile(err, 0.95);
  row("zest", "summary_overall", {p50, p95});
  shape_check("zest", p50 < 0.05,
              "median relative error of z-hat is a few percent");
  shape_check("zest", p95 < 0.15, "p95 relative error stays small");
  return shape_exit_code();
}
