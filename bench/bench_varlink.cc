// Time-varying bottleneck robustness (the paper's hardest unasked
// question): does elasticity detection survive a µ that moves?
//
// Mahimahi — the paper's entire testbed (Fig. 2) — emulates cellular and
// Wi-Fi links whose capacity varies at millisecond granularity; every
// experiment in this repo previously ran on a constant-µ bottleneck.
// This bench sweeps a fig08-style detection-accuracy matrix over the new
// link-schedule axis (sim/link_schedule.h): sinusoidal µ(t) swept over
// rate-variation amplitude and period, a seeded random walk, and the
// checked-in Mahimahi-style traces (data/traces/, scripts/gen_traces.py)
// at two smoothing granularities.  Each cell runs a Nimbus protagonist
// (known µ = the long-run mean, the paper's fig25-style mis-specification
// now varying in time) against either inelastic (Poisson) or elastic
// (Cubic) cross traffic and scores:
//   * accuracy — mode-decision agreement with the (constant) elasticity
//     ground truth, exactly as fig15 scores it;
//   * z_err    — µ(t)-aware cross-estimate error (exp::mean_z_error):
//     mean |z(t) − z_true| / µ(t), Poisson cells only (Cubic's true take
//     is not analytic).  −1 marks cells where it is not defined.
//
// Measured shape (calibrated on quick mode, dense-grid sweeps):
//   * within the moderate-variation envelope (amplitude <= 20% of mean)
//     accuracy degrades gracefully — no adjacent-amplitude cliff — and
//     the normalized z error grows smoothly with amplitude;
//   * 30% is the boundary (full-length Poisson cells fall below 0.5) and
//     beyond ~40% the response is non-monotone and can collapse when the
//     variation period resonates with the detector's 5 s FFT window
//     (boundary/stress rows, reported but deliberately outside the
//     envelope checks);
//   * trace-driven cells split by variation *speed*, not depth alone:
//     inelastic cross survives everywhere, and 1 s-smoothed Wi-Fi µ(t)
//     classifies elastic cross perfectly, but sub-second µ jitter (the
//     100 ms-bucketed traces) or multi-second deep fades (cellular)
//     swamp the pulse band and pin the detector in delay mode — the
//     documented limitation this bench exists to expose (README
//     "Time-varying bottlenecks").
//
// Trace files resolve against NIMBUS_TRACE_DIR (default: data/traces,
// i.e. run from the repo root like scripts/bench_suite.sh does).
//
// Cells run through run_scenarios_cached: every score is derivable from
// the spec alone, so each (spec, seed) cell memoises under NIMBUS_CACHE
// (trace cells hash the trace file's bytes into the key).  Verified
// byte-identical, cold and warm, to the uncached runner.map version.
#include <algorithm>
#include <cmath>
#include <string>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

constexpr double kMu = 48e6;
constexpr double kCrossShare = 0.4;  // Poisson load, fraction of mean µ

// The graceful envelope: the amplitude range the paper's detector is
// claimed (and checked) to degrade smoothly across, in quick AND full
// mode.  0.3 is the measured boundary (Poisson cells fall to ~0.48 over
// full-length runs) and 0.5 the collapse regime; both are reported as
// ungated rows so the whole degradation curve stays visible.
const std::vector<double> kEnvelopeAmps = {0.0, 0.1, 0.2};
constexpr double kBoundaryAmp = 0.3;
constexpr double kStressAmp = 0.5;
const std::vector<double> kPeriodsS = {10, 30};
const std::vector<std::string> kCrosses = {"poisson", "cubic"};

exp::ScenarioSpec base_spec(const std::string& name, double mu,
                            const std::string& cross) {
  exp::ScenarioSpec spec;
  spec.name = name;
  spec.mu_bps = mu;
  spec.duration = dur(120, 40);
  spec.protagonist.use_nimbus_config = true;
  // known µ = the long-run mean: the canonical paper configuration (µ is
  // an input to Nimbus; fig25 studies constant mis-specification, this
  // bench makes the mis-specification time-varying).  Online µ estimation
  // (known_mu = false) was measured during calibration: it trades the
  // trace cells up for a broken inelastic baseline — the per-flow
  // estimator only sees this flow's share, so zero-amplitude Poisson
  // cells fall to ~0.5 accuracy.
  spec.protagonist.nimbus.known_mu_bps = mu;
  if (cross == "poisson") {
    spec.cross.push_back(exp::CrossSpec::poisson(kCrossShare * mu, 2));
  } else {
    spec.cross.push_back(exp::CrossSpec::flow(cross, 2));
  }
  return spec;
}

struct Cell {
  std::string kind;    // sine / rwalk / trace label
  std::string cross;   // poisson / cubic
  double amp;          // variation amplitude fraction (−1: n/a for traces)
  double period_s;     // sine period seconds (−1: n/a)
  exp::ScenarioSpec spec;
};

// Cacheable cell layout: [accuracy, z_err].  Everything the score needs
// is derivable from the spec alone (the Poisson cross rate IS the true z,
// and the µ(t) schedule rebuilds from the LinkSpec), which is what makes
// this bench eligible for run_scenarios_cached.
exp::CellResult collect(const exp::ScenarioSpec& spec,
                        exp::ScenarioRun& run) {
  const double accuracy = exp::score_accuracy(run, spec);
  double z_err = -1.0;  // −1 = not defined for this cell
  if (spec.cross[0].kind == exp::CrossSpec::Kind::kPoisson) {
    const auto schedule = exp::make_link_schedule(spec);
    const double true_z = spec.cross[0].rate_bps;  // = kCrossShare * µ mean
    z_err = exp::mean_z_error(
                *run.z_log, [&](TimeNs) { return true_z; },
                [&](TimeNs t) { return schedule->rate_at(t); },
                from_sec(10), spec.duration)
                .value_or(-1.0);
  }
  return exp::CellResult::vec({accuracy, z_err});
}

}  // namespace

int main() {
  std::vector<Cell> cells;
  for (const auto& cross : kCrosses) {
    for (double p : kPeriodsS) {
      for (double a : kEnvelopeAmps) {
        Cell c{"sine", cross, a, p, base_spec("varlink/sine", kMu, cross)};
        c.spec.link = exp::LinkSpec::sine(a, from_sec(p));
        cells.push_back(std::move(c));
      }
      // Boundary and stress rows: beyond the graceful envelope
      // (reported, not gated).
      for (double a : {kBoundaryAmp, kStressAmp}) {
        Cell s{"sine", cross, a, p, base_spec("varlink/sine", kMu, cross)};
        s.spec.link = exp::LinkSpec::sine(a, from_sec(p));
        cells.push_back(std::move(s));
      }
    }
    for (double a : {0.2, 0.3}) {
      Cell c{"rwalk", cross, a, -1, base_spec("varlink/rwalk", kMu, cross)};
      c.spec.link = exp::LinkSpec::random_walk(a);
      cells.push_back(std::move(c));
    }
    for (const char* trace : {"cellular", "wifi"}) {
      const std::string path =
          exp::process_config().trace_dir + "/" + trace + ".trace";
      const double mu = exp::trace_mean_rate_bps(path);
      for (const TimeNs bucket : {from_ms(100), from_sec(1)}) {
        Cell c{std::string(trace) +
                   (bucket == from_sec(1) ? "1000ms" : "100ms"),
               cross, -1, -1,
               base_spec(std::string("varlink/") + trace, mu, cross)};
        c.spec.link = exp::LinkSpec::trace(path);
        c.spec.link.trace_bucket = bucket;
        cells.push_back(std::move(c));
      }
    }
  }

  std::printf("varlink,kind,cross,amp,period_s,accuracy,z_err\n");
  std::vector<exp::ScenarioSpec> specs;
  specs.reserve(cells.size());
  for (const Cell& c : cells) specs.push_back(c.spec);
  const auto results = exp::run_scenarios_cached(
      specs, collect,
      // Fires in cell order as the completed prefix grows.
      [&](std::size_t i, exp::CellResult& r) {
        row("varlink", cells[i].kind + "_" + cells[i].cross,
            {cells[i].amp, cells[i].period_s, r.value(0), r.value(1)});
      });

  // --- shape checks -------------------------------------------------------
  struct Scores {
    double accuracy;
    double z_err;
  };
  const auto cell_result = [&](const std::string& kind,
                               const std::string& cross, double amp,
                               double period_s) -> Scores {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].kind == kind && cells[i].cross == cross &&
          cells[i].amp == amp && cells[i].period_s == period_s) {
        return {results[i].value(0), results[i].value(1)};
      }
    }
    NIMBUS_CHECK_MSG(false, "varlink: no such cell");
    return {0.0, -1.0};
  };

  // Steady-µ baseline: with no rate variation the detector is the fig15
  // constant-link classifier (whose worst quick-mode cells sit near 0.75).
  double base_min = 1.0;
  for (const auto& cross : kCrosses) {
    for (double p : kPeriodsS) {
      base_min = std::min(base_min, cell_result("sine", cross, 0.0, p).accuracy);
    }
  }
  row("varlink", "summary_base_min", {base_min});
  shape_check("varlink", base_min > 0.7,
              "zero-amplitude cells reproduce the constant-link detector");

  // Graceful degradation inside the envelope: walking up the amplitude
  // axis never falls off a cliff, and every envelope cell stays usefully
  // accurate, for every cross x period row (sine) and the random walk.
  double worst_drop = 0.0, envelope_min = 1.0;
  for (const auto& cross : kCrosses) {
    for (double p : kPeriodsS) {
      for (std::size_t k = 0; k < kEnvelopeAmps.size(); ++k) {
        const double a = cell_result("sine", cross, kEnvelopeAmps[k], p).accuracy;
        envelope_min = std::min(envelope_min, a);
        if (k > 0) {
          worst_drop = std::max(
              worst_drop,
              cell_result("sine", cross, kEnvelopeAmps[k - 1], p).accuracy - a);
        }
      }
    }
    // Random walk: 0.2 is inside the envelope; 0.3 is a boundary row.
    envelope_min =
        std::min(envelope_min, cell_result("rwalk", cross, 0.2, -1).accuracy);
  }
  row("varlink", "summary_envelope_worst_drop", {worst_drop});
  row("varlink", "summary_envelope_min", {envelope_min});
  shape_check("varlink", worst_drop < 0.3,
              "no adjacent-amplitude cliff within the 20% envelope");
  shape_check("varlink", envelope_min > 0.65,
              "accuracy stays useful throughout the 20% envelope");

  // µ(t)-aware z error grows smoothly and stays bounded in the envelope.
  // The -1 "undefined" sentinel must not pass vacuously: a regression
  // that empties the z log would report every cell as -1 and leave the
  // max at 0, so an all-sentinel envelope fails the check.
  double z_env_max = 0.0;
  bool z_defined = false;
  for (double p : kPeriodsS) {
    for (double a : kEnvelopeAmps) {
      const double z = cell_result("sine", "poisson", a, p).z_err;
      if (z >= 0.0) z_defined = true;
      z_env_max = std::max(z_env_max, z);
    }
  }
  row("varlink", "summary_envelope_z_err_max", {z_env_max});
  shape_check("varlink", z_defined && z_env_max < 0.2,
              "normalized z error stays bounded within the envelope");

  // Trace-driven cells: inelastic cross classifies correctly on every
  // trace, and second-scale Wi-Fi variation also handles elastic cross —
  // the technique's trace-driven success region.
  const double trace_poisson_min =
      std::min({cell_result("cellular100ms", "poisson", -1, -1).accuracy,
                cell_result("cellular1000ms", "poisson", -1, -1).accuracy,
                cell_result("wifi100ms", "poisson", -1, -1).accuracy,
                cell_result("wifi1000ms", "poisson", -1, -1).accuracy});
  row("varlink", "summary_trace_poisson_min", {trace_poisson_min});
  shape_check("varlink", trace_poisson_min > 0.7,
              "inelastic cross classified correctly on every trace");
  shape_check("varlink",
              cell_result("wifi1000ms", "cubic", -1, -1).accuracy > 0.7,
              "second-scale wifi variation still detects elastic cross");

  // The documented limitation, pinned so it cannot silently move: µ jitter
  // faster than the pulse band (100 ms-bucketed traces) or deep
  // multi-second fades (cellular) suppress the pulse signal and pin the
  // detector in delay mode, so elastic cross traffic goes undetected.
  const double limit_max =
      std::max({cell_result("wifi100ms", "cubic", -1, -1).accuracy,
                cell_result("cellular100ms", "cubic", -1, -1).accuracy,
                cell_result("cellular1000ms", "cubic", -1, -1).accuracy});
  row("varlink", "summary_limitation_max", {limit_max});
  shape_check("varlink", limit_max < 0.35,
              "sub-second jitter / deep fades suppress elastic detection "
              "(documented limitation)");

  return shape_exit_code();
}
