#include "sim/rate_sampler.h"

#include <algorithm>

#include "sim/packet.h"

namespace nimbus::sim {

void RateSampler::next_chunk() {
  std::unique_ptr<Sample[]>& chunk =
      chunks_[(next_ >> kChunkShift) & (kChunks - 1)];
  // Default-initialized: every sample is written before it is read.
  if (chunk == nullptr) chunk.reset(new Sample[kChunkSamples]);
  write_ = chunk.get();
}

// NIMBUS_HOT_PATH begin
RateSampler::Rates RateSampler::rates(std::size_t n_packets) const {
  Rates out;
  n_packets = std::min(n_packets, history_size());
  if (n_packets < std::max<std::size_t>(2, kMinPackets)) return out;

  // Eq. (2): n_bytes spans the n-1 inter-packet gaps between the first and
  // last sample of the window, so it sums the bytes of packets after the
  // first — exactly the difference of the two running totals.
  const Sample& a = at(next_ - n_packets);
  const Sample& b = at(next_ - 1);
  const auto n_bytes = static_cast<std::int64_t>(b.cum_bytes - a.cum_bytes);
  const TimeNs send_span = b.sent_at - a.sent_at;
  const TimeNs recv_span = b.acked_at - a.acked_at;
  if (send_span <= 0 || recv_span <= 0 || n_bytes <= 0) return out;

  out.send_bps = static_cast<double>(n_bytes) * 8.0 / to_sec(send_span);
  out.recv_bps = static_cast<double>(n_bytes) * 8.0 / to_sec(recv_span);
  out.valid = true;
  return out;
}

RateSampler::Rates RateSampler::rates_over_window(double cwnd_bytes) const {
  const auto window_pkts = static_cast<std::size_t>(
      std::max(8.0, cwnd_bytes / static_cast<double>(kMss)));
  return rates(window_pkts);
}
// NIMBUS_HOT_PATH end

}  // namespace nimbus::sim
