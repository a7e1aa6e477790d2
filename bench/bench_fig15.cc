// Fig. 15: detection accuracy vs cross-traffic RTT (0.2x to 4x the
// protagonist's 50 ms) for purely elastic, purely inelastic, and mixed
// cross traffic.  Accuracy is high across the whole range.
//
// Declarative form: three accuracy_scenario specs per RTT ratio batched
// through run_scenarios_cached; rows print per ratio from the in-order
// result callback.  Verified byte-identical to the one-run-per-cell
// accuracy loop it replaces.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  // Ground truth (elastic cross present) is derived from the spec.
  return exp::CellResult::scalar(exp::score_accuracy(run, spec));
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 45);
  const double mu = 96e6;
  // PR 4 widened each (ratio, mix) cell from one run to the mean of
  // kReps runs (the paper reports accuracy aggregates; the
  // parallel runner absorbs the extra cells on multicore hosts).  Rep 0
  // keeps the historical spec; later reps re-seed the scenario *base*
  // seed, which re-derives the protagonist Nimbus and Poisson streams —
  // the cross-flow seed alone would be a no-op, since the elastic cross
  // schemes draw no randomness.  Quick-mode golden output re-baselined
  // deliberately — see CHANGES.md.
  constexpr int kReps = 3;
  std::printf("fig15,rtt_ratio,elastic_acc,mix_acc,inelastic_acc\n");
  const std::vector<double> ratios =
      full_run() ? std::vector<double>{0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 4.0}
                 : std::vector<double>{0.2, 1.0, 2.0, 4.0};

  // Per ratio: pure elastic (NewReno), mix, pure inelastic (Poisson) —
  // the hand-rolled execution order — with kReps base seeds per cell.
  const auto rep_spec = [](exp::ScenarioSpec spec, std::uint64_t cell_seed,
                           int rep) {
    return rep == 0 ? spec
                    : spec.with_seed(exp::derive_seed(cell_seed, rep));
  };
  std::vector<exp::ScenarioSpec> specs;
  for (double ratio : ratios) {
    const TimeNs cross_rtt = from_ms(50 * ratio);
    for (int r = 0; r < kReps; ++r) {
      specs.push_back(rep_spec(
          exp::accuracy_scenario("newreno", mu, from_ms(50), cross_rtt, 0,
                                 duration, 21),
          21, r));
    }
    for (int r = 0; r < kReps; ++r) {
      specs.push_back(rep_spec(
          exp::accuracy_scenario("mix", mu, from_ms(50), cross_rtt, 0.5,
                                 duration, 22),
          22, r));
    }
    for (int r = 0; r < kReps; ++r) {
      specs.push_back(rep_spec(
          exp::accuracy_scenario("poisson", mu, from_ms(50), cross_rtt, 0.5,
                                 duration, 23),
          23, r));
    }
  }

  double worst_pure = 1.0, worst_mix = 1.0;
  std::vector<double> cell;  // kReps accuracies of the current cell
  std::vector<double> trio;  // per-cell means of the current ratio
  exp::run_scenarios_cached(
      specs, collect,
      [&](std::size_t i, exp::CellResult& acc) {
        cell.push_back(acc.value());
        if (cell.size() < static_cast<std::size_t>(kReps)) return;
        double mean = 0;
        for (double a : cell) mean += a;
        trio.push_back(mean / kReps);
        cell.clear();
        if (trio.size() < 3u) return;
        const double ratio = ratios[i / (3 * kReps)];
        row("fig15", util::format_num(ratio), {trio[0], trio[1], trio[2]});
        worst_pure = std::min({worst_pure, trio[0], trio[2]});
        worst_mix = std::min(worst_mix, trio[1]);
        trio.clear();
      });

  row("fig15", "summary_worst", {worst_pure, worst_mix});
  shape_check("fig15", worst_pure > 0.7,
              "pure elastic/inelastic accuracy high across RTT ratios");
  shape_check("fig15", worst_mix > 0.5,
              "mixed-traffic accuracy beats a coin flip at every ratio");
  return shape_exit_code();
}
