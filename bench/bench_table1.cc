// Table 1 (section 7): classification of traffic classes by the detector.
// For each cross-traffic class, run Nimbus with a fixed (detection-only)
// configuration and report the elastic-classified fraction of time.
//
// One ScenarioSpec per traffic class, run through run_scenarios_cached.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(const std::string& klass, TimeNs duration) {
  exp::ScenarioSpec spec;
  spec.name = "table1/" + klass;
  spec.mu_bps = 96e6;
  spec.duration = duration;
  spec.protagonist.use_nimbus_config = true;

  if (klass == "cubic" || klass == "reno" || klass == "copa" ||
      klass == "vegas" || klass == "bbr" || klass == "vivace") {
    exp::CrossSpec c =
        exp::CrossSpec::flow(klass == "reno" ? "newreno" : klass, 2);
    c.seed = 14;
    spec.cross.push_back(c);
  } else if (klass == "fixed-window") {
    exp::CrossSpec c;
    c.kind = exp::CrossSpec::Kind::kConstWindow;
    c.id = 2;
    c.window_pkts = 400;
    spec.cross.push_back(c);
  } else if (klass == "app-limited") {
    exp::CrossSpec c;
    c.kind = exp::CrossSpec::Kind::kVideo;
    c.rate_bps = 12e6;  // far below fair share: app-limited
    spec.cross.push_back(c);
  } else if (klass == "const-stream") {
    spec.cross.push_back(exp::CrossSpec::cbr(48e6, 2));
  }
  return spec;
}

}  // namespace

int main() {
  const TimeNs duration = dur(120, 40);
  std::printf("table1,class,expected,elastic_fraction\n");
  struct RowSpec {
    const char* klass;
    const char* expected;
    bool expect_elastic;
    bool strict;  // BBR/Vivace are buffer- and timescale-dependent (*)
  };
  const RowSpec specs[] = {
      {"cubic", "elastic", true, true},
      {"reno", "elastic", true, true},
      {"copa", "elastic", true, true},
      {"vegas", "elastic", true, false},  // Vegas yields to BasicDelay's
                                          // 12.5 ms standing queue and
                                          // shrinks to a few packets; the
                                          // detector then (correctly)
                                          // reports no significant cross
                                          // traffic, so the row is not
                                          // strict.
      {"bbr", "elastic*", true, false},
      {"vivace", "inelastic*", false, false},
      {"fixed-window", "elastic", true, true},
      {"app-limited", "inelastic", false, true},
      {"const-stream", "inelastic", false, true},
  };

  std::vector<exp::ScenarioSpec> scenario_specs;
  for (const auto& s : specs) {
    scenario_specs.push_back(make_spec(s.klass, duration));
  }
  const auto fractions = exp::run_scenarios_cached(
      scenario_specs,
      [&](const exp::ScenarioSpec&, exp::ScenarioRun& run) {
        return exp::CellResult::scalar(
            run.mode_log->fraction_competitive(from_sec(10), duration));
      },
      [&](std::size_t i, exp::CellResult& frac) {
        std::printf("table1,%s,%s,%s\n", specs[i].klass, specs[i].expected,
                    util::format_num(frac.value()).c_str());
      });

  bool all_strict_ok = true;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    if (specs[i].strict) {
      const bool ok = specs[i].expect_elastic ? fractions[i].value() > 0.5
                                              : fractions[i].value() < 0.5;
      if (!ok) all_strict_ok = false;
    }
  }
  shape_check("table1", all_strict_ok,
              "ACK-clocked classes read elastic; app-limited/CBR read "
              "inelastic");
  return shape_exit_code();
}
