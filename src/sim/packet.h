// Packet representation for the discrete-event simulator.
#pragma once

#include <cstdint>

#include "util/time.h"

namespace nimbus::sim {

using FlowId = std::uint32_t;

/// Size of every packet in the simulator: each transport segment (data
/// and window arithmetic alike) and each CBR/Poisson datagram.
inline constexpr std::uint32_t kMss = 1500;

struct Packet {
  FlowId flow_id = 0;
  std::uint64_t seq = 0;       // per-flow packet sequence number
  std::uint32_t size_bytes = 0;
  TimeNs sent_at = 0;          // transport send timestamp (echoed in the ACK)
  bool is_transport = false;   // participates in the reliable/ACK path
  bool is_retransmit = false;
};

/// ACK carried back to a transport sender.  The simulator models the reverse
/// path as uncongested: by default ACKs take the flow's propagation delay
/// and are never dropped (standard congestion-control-study assumption; the
/// paper's experiments likewise have an uncongested ACK path).  A reverse
/// ImpairmentStage (sim/impairment.h), when installed on the Network, can
/// drop, duplicate, jitter, or black out the ACK path.
struct Ack {
  FlowId flow_id = 0;
  std::uint64_t seq = 0;       // the specific packet being acknowledged
  std::uint64_t cum_ack = 0;   // highest in-order seq received (+1 semantics:
                               // all seqs <= cum_ack have been received)
  bool cum_valid = false;      // false until the first in-order packet
  TimeNs data_sent_at = 0;     // echo of Packet::sent_at (RTT measurement)
  std::uint32_t bytes = 0;
};

}  // namespace nimbus::sim
