// Adversarial path impairments: the detector's graceful-degradation
// envelope (companion to bench_varlink's time-varying-µ envelope).
//
// The paper's testbed (Mahimahi) emulates clean links; every experiment in
// this repo previously assumed loss came only from the bottleneck queue.
// Real WAN paths add bursty stochastic loss, delay jitter with reordering,
// and outright blackouts/link flaps — and they add them on *both*
// directions: the data path into the bottleneck and the ACK return path.
// This bench sweeps a fig15-style detection-accuracy matrix over the
// path-impairment axes (sim/impairment.h), forward and reverse variants of
// each, against inelastic (Poisson) and elastic (Cubic) cross traffic:
//   * Gilbert–Elliott bursty loss (mean burst 8 pkts) at increasing
//     stationary loss rates — forward (data + cross share the impaired
//     path) and reverse (ACK thinning);
//   * uniform delay jitter with reordering at increasing depth, plus a
//     FIFO (no-reorder) control row that isolates reordering from pure
//     delay noise;
//   * periodic link flaps (blackout `d` seconds out of every 10) of
//     increasing duration.
// Every cell runs through exp::run_scenarios_cached under an explicit
// simulated-event watchdog budget, so a pathological cell reports a
// failed (nan) row instead of hanging the suite — and a shape check pins
// that no cell actually trips it.
//
// Measured shape (calibrated on quick AND full runs; see the checks):
//   * forward burst loss through 8% degrades gracefully on BOTH cross
//     types (worst cell 0.89 quick / 0.92 full) — queue-signal detection
//     is remarkably loss-tolerant;
//   * ACK loss splits by cross type: cumulative ACKs absorb 10% reverse
//     loss everywhere, and elastic cells even tolerate 30%, but 30% ACK
//     thinning against *inelastic* cross drags the protagonist's own
//     sampled signal down to a coin flip (0.41 quick / 0.49 full) — the
//     reverse-path cliff;
//   * it is packet REORDERING, not delay noise, that kills elastic
//     detection: 10 ms forward jitter with reordering collapses the
//     cubic cells to ~0 (spurious fast-retransmits gut the elastic
//     cross's backpressure), while the FIFO control at the same 10 ms
//     depth stays at baseline and inelastic cells are immune at every
//     depth;
//   * blackouts are the tolerant axis end-to-end: link flaps up to 3 s
//     out of every 10 are absorbed on both paths and both cross types.
#include <algorithm>
#include <cmath>
#include <string>

#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

constexpr double kMu = 48e6;
constexpr double kCrossShare = 0.4;  // Poisson load, fraction of µ
constexpr double kMeanBurstPkts = 8.0;

// Watchdog: ~40x the event count a healthy full-length cell needs.  The
// budget exists so a regression that stalls a cell (or an impairment
// configuration that drives the simulator pathological) yields a failed
// row, not a hung suite; the shape check below pins that none trips.
constexpr std::uint64_t kCellEventBudget = 200'000'000;

const std::vector<double> kFwdLoss = {0.005, 0.02, 0.08};
const std::vector<double> kAckLoss = {0.02, 0.10, 0.30};
const std::vector<double> kFwdJitterMs = {2, 10, 40};
const std::vector<double> kAckJitterMs = {2, 10};
const std::vector<double> kFlapSec = {0.25, 1, 3};
const std::vector<std::string> kCrosses = {"poisson", "cubic"};

// GE chain with the given stationary loss rate and mean burst length:
// q = 1/burst, p = rate·q/(1−rate)  (so p/(p+q) = rate).
sim::ImpairmentConfig ge_loss(double rate) {
  sim::ImpairmentConfig c;
  c.ge_enabled = true;
  c.ge_q = 1.0 / kMeanBurstPkts;
  c.ge_p = rate * c.ge_q / (1.0 - rate);
  return c;
}

sim::ImpairmentConfig jitter(double ms, bool reorder) {
  sim::ImpairmentConfig c;
  c.jitter = from_ms(ms);
  c.reorder = reorder;
  return c;
}

// Blackout `sec` seconds out of every 10, first flap after the scoring
// warmup (score_accuracy skips the first 10 s).
sim::ImpairmentConfig flap(double sec) {
  sim::ImpairmentConfig c;
  c.flap_period = from_sec(10);
  c.flap_duration = from_sec(sec);
  c.flap_offset = from_sec(12);
  return c;
}

exp::ScenarioSpec base_spec(const std::string& cross) {
  exp::ScenarioSpec spec;
  spec.name = "impair/" + cross;
  spec.mu_bps = kMu;
  spec.duration = dur(120, 40);
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = kMu;
  if (cross == "poisson") {
    spec.cross.push_back(exp::CrossSpec::poisson(kCrossShare * kMu, 2));
  } else {
    spec.cross.push_back(exp::CrossSpec::flow(cross, 2));
  }
  return spec;
}

struct Cell {
  std::string kind;   // base / fwdloss / ackloss / fwdjit / ...
  std::string cross;  // poisson / cubic
  double param;       // axis value (loss rate, jitter ms, flap sec; -1 n/a)
  exp::ScenarioSpec spec;
};

}  // namespace

int main() {
  std::vector<Cell> cells;
  for (const auto& cross : kCrosses) {
    cells.push_back({"base", cross, -1, base_spec(cross)});
    for (double r : kFwdLoss) {
      Cell c{"fwdloss", cross, r, base_spec(cross)};
      c.spec.impairment.forward = ge_loss(r);
      cells.push_back(std::move(c));
    }
    for (double r : kAckLoss) {
      Cell c{"ackloss", cross, r, base_spec(cross)};
      c.spec.impairment.reverse = ge_loss(r);
      cells.push_back(std::move(c));
    }
    for (double ms : kFwdJitterMs) {
      Cell c{"fwdjit", cross, ms, base_spec(cross)};
      c.spec.impairment.forward = jitter(ms, /*reorder=*/true);
      cells.push_back(std::move(c));
    }
    {
      // FIFO control: same 10 ms delay noise, zero reordering.
      Cell c{"fwdjit_fifo", cross, 10, base_spec(cross)};
      c.spec.impairment.forward = jitter(10, /*reorder=*/false);
      cells.push_back(std::move(c));
    }
    for (double ms : kAckJitterMs) {
      Cell c{"ackjit", cross, ms, base_spec(cross)};
      c.spec.impairment.reverse = jitter(ms, /*reorder=*/true);
      cells.push_back(std::move(c));
    }
    for (double s : kFlapSec) {
      Cell c{"fwdflap", cross, s, base_spec(cross)};
      c.spec.impairment.forward = flap(s);
      cells.push_back(std::move(c));
    }
    {
      Cell c{"ackflap", cross, 1, base_spec(cross)};
      c.spec.impairment.reverse = flap(1);
      cells.push_back(std::move(c));
    }
  }

  std::vector<exp::ScenarioSpec> specs;
  specs.reserve(cells.size());
  for (const auto& c : cells) specs.push_back(c.spec);

  exp::RunConfig cfg = exp::process_config();
  cfg.budget.max_events = kCellEventBudget;
  std::printf("impair,kind_cross,param,accuracy\n");
  int watchdog_cells = 0;
  const auto results = exp::run_scenarios_cached(
      specs,
      [&](const exp::ScenarioSpec& spec, exp::ScenarioRun& run) {
        return exp::CellResult::scalar(exp::score_accuracy(run, spec));
      },
      [&](std::size_t i, exp::CellResult& r) {
        if (!r.valid && r.fail != exp::CellResult::Fail::kShardSkip) {
          ++watchdog_cells;
          std::printf("impair,%s_%s,%s,%s\n", cells[i].kind.c_str(),
                      cells[i].cross.c_str(),
                      util::format_num(cells[i].param).c_str(),
                      r.fail_label());
          return;
        }
        row("impair", cells[i].kind + "_" + cells[i].cross,
            {cells[i].param, r.value()});
      },
      nullptr, cfg);

  // --- shape checks -------------------------------------------------------
  const auto acc = [&](const std::string& kind, const std::string& cross,
                       double param) -> double {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].kind == kind && cells[i].cross == cross &&
          cells[i].param == param) {
        return results[i].value();
      }
    }
    NIMBUS_CHECK_MSG(false, "impair: no such cell");
    return 0.0;
  };

  // No cell may trip the watchdog: the budget is a failure detector for
  // regressions, not an expected truncation of healthy cells.
  row("impair", "summary_watchdog_cells", {double(watchdog_cells)});
  shape_check("impair", watchdog_cells == 0,
              "no cell tripped the event-budget watchdog");

  // Unimpaired baseline reproduces the constant-link detector.
  const double base_min =
      std::min(acc("base", "poisson", -1), acc("base", "cubic", -1));
  row("impair", "summary_base_min", {base_min});
  shape_check("impair", base_min > 0.7,
              "unimpaired baseline reproduces the constant-link detector");

  // Forward burst loss degrades gracefully through the entire swept range
  // (8% stationary loss in bursts of ~8): queue-signal detection does not
  // depend on a loss-free data path.
  double fwdloss_min = 1.0;
  for (const auto& cross : kCrosses) {
    for (double r : kFwdLoss) {
      fwdloss_min = std::min(fwdloss_min, acc("fwdloss", cross, r));
    }
  }
  row("impair", "summary_fwdloss_min", {fwdloss_min});
  shape_check("impair", fwdloss_min > 0.6,
              "forward burst loss through 8% degrades gracefully");

  // Cumulative ACKs absorb 10% reverse burst loss on both cross types.
  const double ack10_min =
      std::min(acc("ackloss", "poisson", 0.10), acc("ackloss", "cubic", 0.10));
  row("impair", "summary_ackloss10_min", {ack10_min});
  shape_check("impair", ack10_min > 0.6,
              "cumulative ACKs absorb 10% reverse burst loss");

  // The reverse-path cliff: 30% ACK thinning against inelastic cross
  // corrupts the protagonist's own sampled signal (near coin-flip
  // accuracy), while elastic cells still hold.  Pinned from both sides so
  // neither half can silently move.
  const double ack30_poisson = acc("ackloss", "poisson", 0.30);
  row("impair", "summary_ackloss30_poisson", {ack30_poisson});
  shape_check("impair", ack30_poisson < 0.6,
              "30% ACK loss vs inelastic cross breaks classification "
              "(documented limitation)");
  shape_check("impair", acc("ackloss", "cubic", 0.30) > 0.6,
              "elastic cells still classify under 30% ACK loss");

  // Jitter below the pulse period is harmless on both directions.
  double small_jit_min = 1.0;
  for (const auto& cross : kCrosses) {
    small_jit_min = std::min({small_jit_min, acc("fwdjit", cross, 2),
                              acc("ackjit", cross, 2)});
  }
  row("impair", "summary_small_jitter_min", {small_jit_min});
  shape_check("impair", small_jit_min > 0.6,
              "2 ms jitter (below the pulse period) is harmless");

  // Reordering — not delay noise — is what kills elastic detection.  The
  // FIFO control at the same 10 ms depth stays at baseline; with
  // reordering on, spurious fast-retransmits gut the cubic cross's
  // backpressure and elastic cells collapse.  Inelastic cells are immune
  // at every depth (Poisson sources have no retransmission machinery to
  // confuse).
  const double fifo_min = std::min(acc("fwdjit_fifo", "poisson", 10),
                                   acc("fwdjit_fifo", "cubic", 10));
  row("impair", "summary_fwdjit_fifo_min", {fifo_min});
  shape_check("impair", fifo_min > 0.6,
              "10 ms FIFO delay noise alone is harmless");
  const double reorder_cubic_max =
      std::max(acc("fwdjit", "cubic", 10), acc("fwdjit", "cubic", 40));
  row("impair", "summary_fwdjit_reorder_cubic_max", {reorder_cubic_max});
  shape_check("impair", reorder_cubic_max < 0.35,
              "forward reordering at 10+ ms collapses elastic detection "
              "(documented limitation)");
  double jit_poisson_min = 1.0;
  for (double ms : kFwdJitterMs) {
    jit_poisson_min = std::min(jit_poisson_min, acc("fwdjit", "poisson", ms));
  }
  row("impair", "summary_fwdjit_poisson_min", {jit_poisson_min});
  shape_check("impair", jit_poisson_min > 0.6,
              "inelastic cells are immune to reordering at every depth");

  // Blackouts are the tolerant axis: flaps up to 3 s of every 10 are
  // absorbed on both paths and both cross types.
  double flap_min = 1.0;
  for (const auto& cross : kCrosses) {
    for (double s : kFlapSec) {
      flap_min = std::min(flap_min, acc("fwdflap", cross, s));
    }
    flap_min = std::min(flap_min, acc("ackflap", cross, 1));
  }
  row("impair", "summary_flap_min", {flap_min});
  shape_check("impair", flap_min > 0.6,
              "link flaps up to 3 s of every 10 are absorbed");

  return shape_exit_code();
}
