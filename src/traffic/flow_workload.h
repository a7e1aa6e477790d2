// Trace-style cross-traffic workload: flows arrive as a Poisson process
// with sizes drawn from a heavy-tailed distribution, each transferred by a
// Cubic transport flow.
//
// This reproduces the paper's WAN cross-traffic generator (section 8.1):
// "Cubic cross-flows with flow sizes drawn from [the CAIDA trace], with
// flow arrival times generated by a Poisson process to offer a fixed
// average load".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/network.h"
#include "traffic/flow_size_dist.h"
#include "util/rng.h"

namespace nimbus::traffic {

class FlowWorkload {
 public:
  struct Config {
    double offered_load_fraction = 0.5;  // of the bottleneck link rate
    FlowSizeDist dist = FlowSizeDist::wan();
    TimeNs rtt_prop = from_ms(50);
    TimeNs start_time = 0;
    TimeNs stop_time = std::numeric_limits<TimeNs>::max();
    std::uint64_t seed = 1234;
  };

  struct Arrival {
    sim::FlowId id;
    TimeNs start;
    std::int64_t size_bytes;
    bool elastic;  // larger than the initial window (kElasticThresholdPkts)
  };

  /// Installs the workload on `net`; arrivals are scheduled lazily (each
  /// arrival schedules the next), so long runs don't pre-materialize flows.
  FlowWorkload(sim::Network* net, Config cfg);

  const std::vector<Arrival>& arrivals() const { return arrivals_; }

  /// All flow ids spawned so far (for aggregate rate queries).
  std::vector<sim::FlowId> flow_ids() const;

  /// Fraction of cross-traffic bytes delivered in [t0, t1) that belong to
  /// elastic flows (Fig. 12's ground-truth signal).  Returns 0 when no
  /// cross bytes were delivered.
  double elastic_byte_fraction(const sim::Recorder& rec, TimeNs t0,
                               TimeNs t1) const;

  double mean_interarrival_sec() const { return mean_interarrival_sec_; }

 private:
  void schedule_next_arrival();
  void spawn_flow(std::int64_t size_bytes);

  sim::Network* net_;
  Config cfg_;
  util::Rng rng_;
  double mean_interarrival_sec_;
  std::vector<Arrival> arrivals_;
};

}  // namespace nimbus::traffic
