// Fig. 16: multiple Nimbus flows arriving and leaving (no other cross
// traffic).  Four flows start 120 s apart, each lasting 480 s; they share
// the link fairly, keep at most one pulser, and hold low delays by staying
// in delay mode.
//
// Declarative form: four CrossSpec::kNimbus entries (no protagonist) in
// one ScenarioSpec; the role probe is scheduled through the
// run_scenarios_cached setup hook against BuiltScenario::nimbus_cross.
// Verified byte-identical to the imperative version it replaces.
#include <functional>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

int main() {
  const double mu = 96e6;
  const bool full = full_run();
  const TimeNs stagger = from_sec(full ? 120 : 30);
  const TimeNs life = from_sec(full ? 480 : 120);
  const TimeNs end = stagger * 3 + life;

  exp::ScenarioSpec spec;
  spec.name = "fig16";
  spec.mu_bps = mu;
  spec.duration = end;
  spec.protagonist.enabled = false;
  for (int i = 0; i < 4; ++i) {
    core::Nimbus::Config cfg;
    cfg.known_mu_bps = mu;
    cfg.multiflow = true;
    spec.cross.push_back(exp::CrossSpec::nimbus_flow(
        cfg, static_cast<sim::FlowId>(i + 1),
        100 + static_cast<std::uint64_t>(i), stagger * i,
        stagger * i + life));
  }

  // Sample roles over time on the simulation loop (scheduled pre-run via
  // the setup hook; one scenario, so the captured state is unshared).
  util::TimeSeries pulser_count;
  std::function<void()> probe;
  const exp::ScenarioSetup setup = [&](const exp::ScenarioSpec&,
                                       exp::BuiltScenario& built) {
    sim::Network* net = built.net.get();
    const std::vector<core::Nimbus*> flows = built.nimbus_cross;
    probe = [&pulser_count, &probe, net, flows]() {
      int n = 0;
      for (auto* f : flows) {
        if (f->role() == core::Nimbus::Role::kPulser) ++n;
      }
      pulser_count.add(net->loop().now(), n);
      net->loop().schedule_in(from_ms(500), probe);
    };
    net->loop().schedule_in(from_ms(500), probe);
  };

  // Cell layout: the three summaries, then one (t, f1..f4 mbps,
  // qdelay_ms, pulsers) row per step.
  enum : std::size_t { kJain, kMeanPulsers, kQdelay, kSteps };
  const TimeNs step = from_sec(full ? 4 : 1);
  const auto collect = [&](const exp::ScenarioSpec&,
                           exp::ScenarioRun& run) {
    auto& rec = run.built.net->recorder();
    // Fairness in the middle window where flows 1-3 are all active.
    const TimeNs a = stagger * 2 + from_sec(10), b = stagger * 2 + life / 3;
    std::vector<double> rates;
    for (sim::FlowId id : {1u, 2u, 3u}) {
      rates.push_back(rec.delivered(id).rate_bps(a, b));
    }
    auto r = exp::CellResult::vec(
        {util::jain_fairness(rates),
         pulser_count.mean_in(from_sec(20), end).value_or(0.0),
         rec.probed_queue_delay().mean_in(from_sec(20), end).value_or(0.0)});
    for (TimeNs t = step; t < end; t += step) {
      r.values.insert(
          r.values.end(),
          {to_sec(t), rec.delivered(1).rate_bps(t - step, t) / 1e6,
           rec.delivered(2).rate_bps(t - step, t) / 1e6,
           rec.delivered(3).rate_bps(t - step, t) / 1e6,
           rec.delivered(4).rate_bps(t - step, t) / 1e6,
           rec.probed_queue_delay().mean_in(t - step, t).value_or(0.0),
           pulser_count.mean_in(t - step, t).value_or(0.0)});
    }
    return r;
  };

  std::printf("fig16,second,f1,f2,f3,f4,qdelay_ms,pulsers\n");
  const exp::CellResult r =
      exp::run_scenarios_cached({spec}, collect, nullptr, setup)[0];
  for (std::size_t j = kSteps; j + 7 <= r.values.size(); j += 7) {
    row("fig16", util::format_num(r.value(j)),
        {r.value(j + 1), r.value(j + 2), r.value(j + 3), r.value(j + 4),
         r.value(j + 5), r.value(j + 6)});
  }

  row("fig16", "summary",
      {r.value(kJain), r.value(kMeanPulsers), r.value(kQdelay)});
  shape_check("fig16", r.value(kJain) > 0.8,
              "concurrent nimbus flows share fairly");
  // Known WARN (quick and full mode): around each arrival/departure our
  // election protocol leaves two pulsers active for longer than the
  // paper's, so the 500 ms role samples average just over the 1.5 bar — a
  // known reproduction gap of the simplified multi-flow protocol, tracked
  // in ROADMAP.md rather than failed under NIMBUS_SHAPE_STRICT.
  shape_check_known_warn("fig16", r.value(kMeanPulsers) <= 1.5,
                         "roughly one pulser at a time");
  shape_check("fig16", r.value(kQdelay) < 60,
              "delays stay well below the 100 ms buffer");
  return shape_exit_code();
}
