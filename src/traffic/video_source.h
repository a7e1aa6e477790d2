// DASH-style video cross traffic (Fig. 11).
//
// A video client fetches fixed-duration chunks over a congestion-controlled
// connection (Cubic by default).  Whether the stream behaves elastically
// depends on the encoding bitrate relative to the available bandwidth:
//
//  * 1080p at a bitrate well below the fair share: each chunk downloads
//    faster than real time, the connection idles between chunks —
//    application-limited, inelastic.
//  * 4K at a bitrate at or above the fair share: chunk data accumulates
//    faster than the network drains it, the connection stays backlogged —
//    network-limited, elastic.
//
// The model offers chunk_bytes = bitrate * 4 s of application data every
// 4 s chunk (with an initial burst of three chunks to fill the playback
// buffer), exactly reproducing those two regimes.
#pragma once

#include <cstdint>

#include "sim/network.h"
#include "sim/transport.h"

namespace nimbus::traffic {

class VideoSource final : public sim::TrafficSource {
 public:
  struct Config {
    sim::FlowId id = 0;                // transport flow id; 0 = allocated
    double bitrate_bps = 4e6;          // encoding bitrate
    TimeNs rtt_prop = from_ms(50);
    TimeNs start_time = 0;
    TimeNs stop_time = std::numeric_limits<TimeNs>::max();
    std::uint64_t seed = 5;
  };

  /// Creates the underlying transport flow on `net` (Cubic).
  VideoSource(sim::Network* net, Config cfg);

  void start() override {}  // flow + chunk timer armed in constructor
  sim::FlowId id() const override { return flow_->id(); }

  std::int64_t chunk_bytes() const { return chunk_bytes_; }
  const sim::TransportFlow& flow() const { return *flow_; }

 private:
  void on_chunk_timer();

  sim::Network* net_;
  Config cfg_;
  sim::TransportFlow* flow_ = nullptr;
  std::int64_t chunk_bytes_ = 0;
};

}  // namespace nimbus::traffic
