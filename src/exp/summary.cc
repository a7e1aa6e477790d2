#include "exp/summary.h"

#include <cstdio>

#include "util/check.h"
#include "util/csv.h"

namespace nimbus::exp {

FlowSummary summarize_flow(const sim::Recorder& rec, sim::FlowId id,
                           TimeNs t0, TimeNs t1) {
  NIMBUS_CHECK_MSG(rec.is_tracked(id),
                   "summarize_flow: flow is untracked and has no RTT "
                   "series; set ProtagonistSpec::record_rtt (or call "
                   "Recorder::track_flow before adding the flow)");
  FlowSummary s;
  s.mean_rate_mbps = rec.delivered(id).rate_bps(t0, t1) / 1e6;

  util::Percentiles rtt;
  rtt.add_all(rec.rtt_samples(id).values_in(t0, t1));
  if (!rtt.empty()) {
    s.mean_rtt_ms = rtt.mean();
    s.median_rtt_ms = rtt.median();
    s.p95_rtt_ms = rtt.percentile(0.95);
  }
  return s;
}

std::vector<double> rate_series_mbps(const sim::Recorder& rec,
                                     sim::FlowId id, TimeNs t0, TimeNs t1,
                                     TimeNs bucket) {
  std::vector<double> out =
      rec.delivered(id).bucket_rates_bps(t0, t1, bucket);
  for (double& v : out) v /= 1e6;
  return out;
}

void print_cdf(const std::string& prefix, const std::string& label,
               const util::Percentiles& samples, std::size_t points) {
  if (samples.empty()) return;
  for (std::size_t i = 0; i < points; ++i) {
    const double p =
        static_cast<double>(i) / static_cast<double>(points - 1);
    std::printf("%s,%s,%s,%s\n", prefix.c_str(), label.c_str(),
                util::format_num(samples.percentile(p)).c_str(),
                util::format_num(p).c_str());
  }
}

}  // namespace nimbus::exp
