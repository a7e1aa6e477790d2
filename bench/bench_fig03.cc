// Fig. 3: the self-inflicted-delay strawman.  A Cubic flow's own share of
// the queue is proportional to its throughput, so self-inflicted delay
// looks identical whether the competing traffic is elastic or inelastic —
// instantaneous delay measurements cannot reveal elasticity.
//
// Declarative form: the Fig. 1 cross-traffic schedule as one ScenarioSpec
// with a Cubic protagonist, run through run_scenarios_cached.  Verified
// byte-identical to the imperative version it replaces.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

constexpr double kMu = 48e6;

// Cell layout: the two phases' mean self-inflicted delay, then one
// (second, total, self, share) row per second.
enum : std::size_t { kSelfElastic, kSelfInelastic, kSeconds };

exp::CellResult collect(const exp::ScenarioSpec&, exp::ScenarioRun& run) {
  auto& rec = run.built.net->recorder();
  std::vector<double> seconds;
  double self_elastic = 0, self_inelastic = 0;
  int n_e = 0, n_i = 0;
  for (int t = 1; t < 180; ++t) {
    const TimeNs a = from_sec(t - 1), b = from_sec(t);
    const double total =
        rec.probed_queue_delay().mean_in(a, b).value_or(0.0);
    // Self-inflicted delay ~ total * own throughput share (the flow's
    // share of queue occupancy equals its share of arrivals).
    const double own = rec.delivered(1).rate_bps(a, b);
    const double share = own / kMu;
    const double self = total * share;
    seconds.insert(seconds.end(),
                   {static_cast<double>(t), total, self, share});
    if (t >= 40 && t < 90) {
      self_elastic += self;
      ++n_e;
    }
    if (t >= 100 && t < 150) {
      self_inelastic += self;
      ++n_i;
    }
  }
  auto r = exp::CellResult::vec(
      {self_elastic / n_e, self_inelastic / n_i});
  r.values.insert(r.values.end(), seconds.begin(), seconds.end());
  return r;
}

}  // namespace

int main() {
  exp::ScenarioSpec spec;
  spec.name = "fig03";
  spec.mu_bps = kMu;
  spec.duration = from_sec(180);
  spec.protagonist.scheme = "cubic";
  spec.cross.push_back(
      exp::CrossSpec::flow("cubic", 2, from_sec(30), from_sec(90)));
  spec.cross.push_back(
      exp::CrossSpec::poisson(24e6, 3, from_sec(90), from_sec(150)));

  std::printf("fig03,second,total_qdelay_ms,self_inflicted_ms,share\n");
  const exp::CellResult r = exp::run_scenarios_cached({spec}, collect)[0];
  for (std::size_t j = kSeconds; j + 4 <= r.values.size(); j += 4) {
    row("fig03", util::format_num(r.value(j)),
        {r.value(j + 1), r.value(j + 2), r.value(j + 3)});
  }

  const double self_e = r.value(kSelfElastic);
  const double self_i = r.value(kSelfInelastic);
  row("fig03", "summary", {self_e, self_i});
  // The strawman's failure: self-inflicted delay is nearly identical in
  // both phases (within 2x) and therefore carries no elasticity signal.
  shape_check("fig03", self_e < 2 * self_i && self_i < 2 * self_e,
              "self-inflicted delay indistinguishable between phases");
  return shape_exit_code();
}
