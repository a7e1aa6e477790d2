// Fig. 9: WAN cross-traffic workload (heavy-tailed flow sizes at 50% load
// on a 96 Mbit/s, 50 ms, 2 BDP link).  Rate and RTT CDFs per scheme:
// Nimbus matches Cubic/BBR's throughput at ~50 ms lower median RTT; Vegas
// and Copa lose throughput.
//
// One ScenarioSpec per scheme, run through run_scenarios_cached; each cell
// reduces its rate and RTT samples on the worker to the printed CDFs.
#include <map>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// Cell layout: the x values of the rate CDF and then of the RTT CDF at
// kCdfPoints evenly spaced quantiles each, then three summaries.
constexpr std::size_t kCdfPoints = 21;
enum : std::size_t { kMeanRate = 2 * kCdfPoints, kMedianRtt, kMeanRtt };

exp::ScenarioSpec make_spec(const std::string& scheme, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig09/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.protagonist.record_rtt = true;  // collect reads rtt_samples(1)
  spec.workload_enabled = true;
  spec.workload.offered_load_fraction = 0.5;
  spec.workload.seed = 99;
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const auto& rec = run.built.net->recorder();
  util::Percentiles rate, rtt;
  rate.add_all(exp::rate_series_mbps(rec, 1, from_sec(10), spec.duration));
  rtt.add_all(rec.rtt_samples(1).values_in(from_sec(10), spec.duration));
  exp::CellResult r;
  for (const util::Percentiles* p : {&rate, &rtt}) {
    for (const auto& point : p->cdf(kCdfPoints)) {
      r.values.push_back(point.first);
    }
  }
  // Summaries last: the means sum the samples the CDFs just sorted, the
  // order they were always printed from.
  r.values.insert(r.values.end(), {rate.mean(), rtt.median(), rtt.mean()});
  return r;
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 45);
  std::printf("fig09,series,scheme,x,cdf\n");
  const std::vector<std::string> schemes =
      full_run() ? std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas", "copa", "vivace"}
                 : std::vector<std::string>{"nimbus", "cubic", "bbr",
                                            "vegas"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) specs.push_back(make_spec(s, duration));

  const auto collected = exp::run_scenarios_cached(specs, collect);
  // Rows print in scheme-name order.
  std::map<std::string, const exp::CellResult*> results;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    results.emplace(schemes[i], &collected[i]);
  }

  for (const auto& [s, r] : results) {
    // The `series,scheme,x,cdf` rows exp::print_cdf prints.
    for (std::size_t k = 0; k < 2 * kCdfPoints; ++k) {
      const double p = static_cast<double>(k % kCdfPoints) /
                       static_cast<double>(kCdfPoints - 1);
      row(k < kCdfPoints ? "fig09,rate" : "fig09,rtt", s, {r->value(k), p});
    }
    row("fig09", "summary_" + s,
        {r->value(kMeanRate), r->value(kMedianRtt), r->value(kMeanRtt)});
  }

  const auto& nim = *results.at("nimbus");
  const auto& cub = *results.at("cubic");
  const auto& veg = *results.at("vegas");
  shape_check("fig09", nim.value(kMeanRate) > 0.7 * cub.value(kMeanRate),
              "nimbus throughput comparable to cubic");
  shape_check("fig09", nim.value(kMedianRtt) < cub.value(kMedianRtt) - 15,
              "nimbus median RTT well below cubic");
  shape_check("fig09", veg.value(kMeanRate) < nim.value(kMeanRate),
              "vegas loses throughput relative to nimbus");
  return shape_exit_code();
}
