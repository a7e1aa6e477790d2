// Fig. 1: motivating experiment.  48 Mbit/s link, 50 ms RTT, 100 ms buffer.
// The protagonist runs for 180 s: elastic Cubic cross traffic in (30, 90) s,
// then 24 Mbit/s inelastic Poisson cross traffic in (90, 150) s.
//   (a) Cubic: fair rate but ~100 ms queueing throughout.
//   (b) delay control (BasicDelay): low delay vs inelastic, throughput
//       collapse vs elastic.
//   (c) Nimbus: fair rate vs elastic AND low delay vs inelastic.
//
// Declarative form: one ScenarioSpec per scheme batched through
// run_scenarios_cached; rows print in scheme order from the in-order
// result callback.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// Cell layout: the two phases' (rate, delay) summaries, then one
// (second, rate_mbps, qdelay_ms) row per second.
enum : std::size_t { kRateElastic, kDelayElastic, kRateInelastic,
                     kDelayInelastic, kSeconds };

exp::ScenarioSpec make_spec(const std::string& scheme) {
  exp::ScenarioSpec spec;
  spec.name = "fig01/" + scheme;
  spec.mu_bps = 48e6;
  spec.duration = from_sec(180);
  spec.protagonist.scheme = scheme;
  spec.cross.push_back(
      exp::CrossSpec::flow("cubic", 2, from_sec(30), from_sec(90)));
  spec.cross.push_back(
      exp::CrossSpec::poisson(24e6, 3, from_sec(90), from_sec(150)));
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const TimeNs end = spec.duration;
  auto& rec = run.built.net->recorder();
  auto r = exp::CellResult::vec(
      {rec.delivered(1).rate_bps(from_sec(40), from_sec(90)) / 1e6,
       rec.probed_queue_delay()
           .mean_in(from_sec(40), from_sec(90))
           .value_or(0.0),
       rec.delivered(1).rate_bps(from_sec(100), from_sec(150)) / 1e6,
       rec.probed_queue_delay()
           .mean_in(from_sec(100), from_sec(150))
           .value_or(0.0)});
  // Per-second series the figure plots.
  const auto rates = rec.delivered(1).bucket_rates_bps(0, end, from_sec(1));
  const auto delays =
      rec.probed_queue_delay().bucket_means(0, end, from_sec(1));
  for (std::size_t i = 0; i < rates.size(); ++i) {
    r.values.insert(r.values.end(),
                    {static_cast<double>(i), rates[i] / 1e6, delays[i]});
  }
  return r;
}

}  // namespace

int main() {
  std::printf("fig01,scheme,second,rate_mbps,qdelay_ms\n");
  const std::vector<std::string> schemes = {"cubic", "basic-delay",
                                            "nimbus"};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& s : schemes) specs.push_back(make_spec(s));

  const auto results = exp::run_scenarios_cached(
      specs, collect, [&](std::size_t i, exp::CellResult& r) {
        for (std::size_t j = kSeconds; j + 3 <= r.values.size(); j += 3) {
          row("fig01", schemes[i],
              {r.value(j), r.value(j + 1), r.value(j + 2)});
        }
      });

  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const exp::CellResult& r = results[i];
    row("fig01", "summary_" + schemes[i],
        {r.value(kRateElastic), r.value(kDelayElastic),
         r.value(kRateInelastic), r.value(kDelayInelastic)});
  }

  const exp::CellResult& cubic = results[0];
  const exp::CellResult& delay = results[1];
  const exp::CellResult& nimbus = results[2];
  // Paper's qualitative claims.
  shape_check("fig01", cubic.value(kDelayInelastic) > 50,
              "cubic keeps high delay even vs inelastic");
  shape_check("fig01", delay.value(kRateElastic) < 0.35 * 24.0,
              "pure delay control collapses vs elastic cross traffic");
  shape_check("fig01", delay.value(kDelayInelastic) < 30,
              "pure delay control keeps low delay vs inelastic");
  shape_check("fig01",
              nimbus.value(kRateElastic) > 2.5 * delay.value(kRateElastic) &&
                  nimbus.value(kDelayInelastic) <
                      0.5 * cubic.value(kDelayInelastic),
              "nimbus: fair rate vs elastic AND low delay vs inelastic");
  return shape_exit_code();
}
