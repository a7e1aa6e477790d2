// Fig. 24 (App. D.2): Copa vs Nimbus against one elastic NewReno flow with
// equal RTT and with 4x RTT.  With equal RTTs both compete; with a slow
// (4x RTT) cross flow Copa misreads the slowly-growing queue as non-
// buffer-filling and underperforms, while Nimbus detects elasticity.
//
// Declarative form: one ScenarioSpec per (scheme, RTT ratio) cell batched
// through run_scenarios_cached.  Verified byte-identical to the imperative
// version it replaces.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

// Cell layout: the post-warmup rate, then one (t, rate_mbps, qdelay_ms)
// row per second.
enum : std::size_t { kRate, kSeconds };

exp::ScenarioSpec make_spec(const std::string& scheme, double rtt_ratio,
                            TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "fig24/" + scheme;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.scheme = scheme;
  exp::CrossSpec c = exp::CrossSpec::flow("newreno", 2);
  c.rtt = from_ms(50 * rtt_ratio);
  c.seed = 12;
  spec.cross.push_back(c);
  return spec;
}

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const TimeNs duration = spec.duration;
  auto& rec = run.built.net->recorder();
  auto r = exp::CellResult::scalar(
      rec.delivered(1).rate_bps(from_sec(15), duration) / 1e6);
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
  const TimeNs duration = dur(60, 45);
  std::printf("fig24,scheme,rtt_ratio,second,rate_mbps,qdelay_ms\n");
  struct Cell {
    std::string scheme;
    double ratio;
  };
  const std::vector<Cell> cells = {
      {"copa", 1.0}, {"nimbus", 1.0}, {"copa", 4.0}, {"nimbus", 4.0}};
  std::vector<exp::ScenarioSpec> specs;
  for (const auto& c : cells) {
    specs.push_back(make_spec(c.scheme, c.ratio, duration));
  }

  const auto results = exp::run_scenarios_cached(
      specs, collect, [&](std::size_t i, exp::CellResult& r) {
        for (std::size_t j = kSeconds; j + 3 <= r.values.size(); j += 3) {
          row("fig24",
              cells[i].scheme + "," + util::format_num(cells[i].ratio) +
                  "," + util::format_num(r.value(j)),
              {r.value(j + 1), r.value(j + 2)});
        }
      });

  const double copa_1x = results[0].value(kRate);
  const double nim_1x = results[1].value(kRate);
  const double copa_4x = results[2].value(kRate);
  const double nim_4x = results[3].value(kRate);
  row("fig24", "summary", {copa_1x, nim_1x, copa_4x, nim_4x});
  shape_check("fig24", nim_1x > 15 && copa_1x > 15,
              "equal RTT: both get a meaningful share vs NewReno");
  // Known WARN (quick and full mode): our simplified Copa competes harder
  // against the slow-starting 200 ms NewReno than the paper's — its early
  // competitive burst dominates the 60 s average, so nimbus's advantage
  // does not open up at this duration.  A known reproduction gap, tracked
  // in ROADMAP.md rather than failed under NIMBUS_SHAPE_STRICT.
  shape_check_known_warn(
      "fig24", nim_4x > copa_4x,
      "4x cross RTT: nimbus holds more throughput than copa");
  return shape_exit_code();
}
