// Fig. 5: FFT of the z(t) estimate for elastic vs inelastic cross traffic.
// Elastic traffic shows a pronounced peak at the pulse frequency f_p;
// inelastic traffic's spectrum is spread across frequencies.
//
// Declarative form: one ScenarioSpec per cross kind; the spectrum is read
// off the protagonist Nimbus's detector while the worker still owns the
// network, and reduced there to eta plus the plotted bins.  Verified
// byte-identical to the imperative version it replaces.
#include "common.h"

using namespace nimbus;
using namespace nimbus::bench;

namespace {

exp::ScenarioSpec make_spec(const std::string& kind) {
  const double mu = 96e6;
  exp::ScenarioSpec spec;
  spec.name = "fig05/" + kind;
  spec.mu_bps = mu;
  spec.duration = from_sec(30);
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = mu;
  spec.protagonist.nimbus.eta_threshold = 1e9;  // hold delay mode
  if (kind == "elastic") {
    spec.cross.push_back(exp::CrossSpec::flow("cubic", 2));
  } else {
    spec.cross.push_back(exp::CrossSpec::poisson(48e6, 2));
  }
  return spec;
}

// Cell layout: eta at the 5 Hz pulse, then one (freq_hz, magnitude_mbps)
// row per bin in (0, 50] Hz.
enum : std::size_t { kEta, kBins };

exp::CellResult collect(const exp::ScenarioSpec&, exp::ScenarioRun& run) {
  const spectral::Spectrum s = run.built.nimbus->detector().full_spectrum();
  auto r = exp::CellResult::scalar(spectral::elasticity_eta(s, 5.0));
  for (std::size_t k = 1; k < s.bins() && s.frequency(k) <= 50; ++k) {
    r.values.insert(r.values.end(), {s.frequency(k), s.magnitude[k] / 1e6});
  }
  return r;
}

}  // namespace

int main() {
  std::printf("fig05,kind,freq_hz,magnitude_mbps\n");
  const std::vector<exp::ScenarioSpec> specs = {make_spec("elastic"),
                                                make_spec("inelastic")};
  const auto spectra = exp::run_scenarios_cached(
      specs, collect, [](std::size_t i, exp::CellResult& r) {
        for (std::size_t j = kBins; j + 2 <= r.values.size(); j += 2) {
          row("fig05", i == 0 ? "elastic" : "inelastic",
              {r.value(j), r.value(j + 1)});
        }
      });
  const double eta_e = spectra[0].value(kEta);
  const double eta_i = spectra[1].value(kEta);
  row("fig05", "summary_eta", {eta_e, eta_i});
  shape_check("fig05", eta_e >= 2.0 && eta_i < 2.0,
              "pronounced f_p peak only for elastic cross traffic");
  return shape_exit_code();
}
