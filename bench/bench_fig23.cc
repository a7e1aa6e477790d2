// Fig. 23 (App. D.1): Copa vs Nimbus against CBR cross traffic at 24 and
// 80 Mbit/s on a 96 Mbit/s link.  At 24M both hold low delay; at 80M Copa
// misclassifies (cannot drain the queue in 5 RTTs), turns competitive and
// drives delay up, while Nimbus stays in delay mode at low delay.
//
// Declarative form: one ScenarioSpec per (scheme, CBR rate) cell batched
// through run_scenarios_cached; time-series panels print per cell from
// the in-order result callback.  Verified byte-identical to the imperative
// version it replaces.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// Cell layout: the post-warmup rate and delay, then one (t, rate_mbps,
// qdelay_ms) row per second.
enum : std::size_t { kRate, kQdelay, kSeconds };

exp::ScenarioSpec make_spec(const std::string& scheme, double cbr_rate,
                            TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig23/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  spec.cross.push_back(exp::CrossSpec::cbr(cbr_rate, 2));
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const TimeNs duration = spec.duration;
  auto& rec = run.built.net->recorder();
  auto r = exp::CellResult::vec(
      {rec.delivered(1).rate_bps(from_sec(10), duration) / 1e6,
       rec.probed_queue_delay()
           .mean_in(from_sec(10), duration)
           .value_or(0.0)});
  for (TimeNs t = from_sec(1); t < duration; t += from_sec(1)) {
    r.values.insert(
        r.values.end(),
        {to_sec(t), rec.delivered(1).rate_bps(t - from_sec(1), t) / 1e6,
         rec.probed_queue_delay()
             .mean_in(t - from_sec(1), t)
             .value_or(0.0)});
  }
  return r;
}

}  // namespace

int main() {
  const TimeNs duration = dur(60, 40);
  std::printf("fig23,scheme,cbr_mbps,second,rate_mbps,qdelay_ms\n");
  // copa then nimbus at 24M, copa then nimbus at 80M — the hand-rolled
  // execution order.
  struct Cell {
    std::string scheme;
    double cbr;
  };
  const std::vector<Cell> cells = {
      {"copa", 24e6}, {"nimbus", 24e6}, {"copa", 80e6}, {"nimbus", 80e6}};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& c : cells) {
    specs.push_back(make_spec(c.scheme, c.cbr, duration));
  }

  const auto results = exp::run_scenarios_cached(
      specs, collect, [&](std::size_t i, exp::CellResult& r) {
        for (std::size_t j = kSeconds; j + 3 <= r.values.size(); j += 3) {
          row("fig23",
              cells[i].scheme + "," + util::format_num(cells[i].cbr / 1e6) +
                  "," + util::format_num(r.value(j)),
              {r.value(j + 1), r.value(j + 2)});
        }
      });

  const exp::CellResult& copa_lo = results[0];
  const exp::CellResult& nim_lo = results[1];
  const exp::CellResult& copa_hi = results[2];
  const exp::CellResult& nim_hi = results[3];
  row("fig23", "summary_24M",
      {copa_lo.value(kRate), copa_lo.value(kQdelay), nim_lo.value(kRate),
       nim_lo.value(kQdelay)});
  row("fig23", "summary_80M",
      {copa_hi.value(kRate), copa_hi.value(kQdelay), nim_hi.value(kRate),
       nim_hi.value(kQdelay)});
  shape_check("fig23",
              copa_lo.value(kQdelay) < 40 && nim_lo.value(kQdelay) < 40,
              "24M CBR: both keep low delay");
  shape_check("fig23", nim_hi.value(kQdelay) < copa_hi.value(kQdelay),
              "80M CBR: copa's misclassification raises its delay above "
              "nimbus's");
  return shape_exit_code();
}
