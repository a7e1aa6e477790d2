#include "exp/ground_truth.h"

#include <cmath>
#include <memory>

#include "util/check.h"

namespace nimbus::exp {

void GroundTruth::add_interval(TimeNs t0, TimeNs t1, bool elastic) {
  NIMBUS_CHECK(t1 > t0);
  intervals_.push_back({t0, t1, elastic});
}

bool GroundTruth::elastic_at(TimeNs t) const {
  for (const auto& iv : intervals_) {
    if (t >= iv.t0 && t < iv.t1) return iv.elastic;
  }
  return false;
}

double ModeLog::accuracy(const GroundTruth& truth, TimeNs t0,
                         TimeNs t1) const {
  const auto& times = series_.times();
  const auto& values = series_.values();
  std::size_t total = 0, correct = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] < t0 || times[i] >= t1) continue;
    ++total;
    const bool competitive = values[i] > 0.5;
    if (competitive == truth.elastic_at(times[i])) ++correct;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) /
                          static_cast<double>(total);
}

double ModeLog::fraction_competitive(TimeNs t0, TimeNs t1) const {
  const auto& times = series_.times();
  const auto& values = series_.values();
  std::size_t total = 0, comp = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] < t0 || times[i] >= t1) continue;
    ++total;
    if (values[i] > 0.5) ++comp;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(comp) / static_cast<double>(total);
}

void attach_nimbus_logger(core::Nimbus* nimbus, ModeLog* mode_log,
                          util::TimeSeries* eta_log,
                          util::TimeSeries* z_log,
                          util::TimeSeries* eta_raw_log) {
  NIMBUS_CHECK(nimbus != nullptr);
  nimbus->set_status_handler(
      [mode_log, eta_log, z_log, eta_raw_log](const core::Nimbus::Status& s) {
        if (mode_log) {
          mode_log->add(s.now, s.mode == core::Nimbus::Mode::kCompetitive);
        }
        if (eta_log && s.detector_ready) eta_log->add(s.now, s.eta);
        if (eta_raw_log && s.detector_ready) {
          eta_raw_log->add(s.now, s.eta_raw);
        }
        if (z_log) z_log->add(s.now, s.z_bps);
      });
}

namespace {

constexpr TimeNs kCopaPollInterval = from_ms(10);

// Self-rescheduling poller: a small copyable struct the event loop stores
// inline (the seed version round-tripped a shared std::function per tick).
struct CopaPoll {
  sim::Network* net;
  const cc::Copa* copa;
  ModeLog* mode_log;
  void operator()() const {
    mode_log->add(net->loop().now(), copa->in_competitive_mode());
    net->loop().schedule_in(kCopaPollInterval, *this);
  }
};

}  // namespace

void attach_copa_poller(sim::Network* net, const cc::Copa* copa,
                        ModeLog* mode_log) {
  NIMBUS_CHECK(net != nullptr && copa != nullptr && mode_log != nullptr);
  net->loop().schedule_in(kCopaPollInterval, CopaPoll{net, copa, mode_log});
}

std::optional<double> mean_z_error(
    const util::TimeSeries& z_log,
    const std::function<double(TimeNs)>& true_z_bps,
    const std::function<double(TimeNs)>& mu_bps, TimeNs t0, TimeNs t1) {
  NIMBUS_CHECK(true_z_bps != nullptr && mu_bps != nullptr);
  const auto& times = z_log.times();
  const auto& values = z_log.values();
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const TimeNs t = times[i];
    if (t < t0 || t >= t1) continue;
    const double mu = mu_bps(t);
    NIMBUS_CHECK_MSG(mu > 0, "mean_z_error: mu(t) must be > 0");
    sum += std::abs(values[i] - true_z_bps(t)) / mu;
    ++n;
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

}  // namespace nimbus::exp
