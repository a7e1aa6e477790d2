#include "sim/queue_disc.h"

#include <cmath>

#include "util/check.h"

namespace nimbus::sim {

DropTailQueue::DropTailQueue(std::int64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  NIMBUS_CHECK(capacity_bytes > 0);
}

bool DropTailQueue::enqueue(const Packet& p, TimeNs /*now*/) {
  if (bytes_ + p.size_bytes > capacity_) return false;
  bytes_ += p.size_bytes;
  q_.push_back(p);
  return true;
}

std::optional<Packet> DropTailQueue::dequeue(TimeNs /*now*/) {
  if (q_.empty()) return std::nullopt;
  Packet p = q_.front();
  q_.pop_front();
  bytes_ -= p.size_bytes;
  return p;
}

std::int64_t buffer_bytes_for_bdp(double link_rate_bps, TimeNs rtt,
                                  double bdp_multiple) {
  const double bdp_bytes = link_rate_bps / 8.0 * to_sec(rtt);
  const double buffer = bdp_bytes * bdp_multiple;
  // The cast below is undefined for NaN, infinities and values past int64,
  // and a negative product would be silently floored to a tiny buffer.
  NIMBUS_CHECK_MSG(std::isfinite(buffer) && buffer >= 0.0 && buffer < 0x1p63,
                   "buffer_bytes_for_bdp: rate/8 x rtt x multiple must be "
                   "finite, non-negative and below 2^63 bytes");
  auto bytes = static_cast<std::int64_t>(buffer);
  // Always leave room for at least a couple of full-size packets.
  return bytes < 3000 ? 3000 : bytes;
}

}  // namespace nimbus::sim
