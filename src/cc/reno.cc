#include "cc/reno.h"

#include <algorithm>

namespace nimbus::cc {

void RenoCore::init(double initial_cwnd_pkts) {
  cwnd_ = initial_cwnd_pkts;
  ssthresh_ = 1e9;
}

void RenoCore::on_ack(double acked_pkts) {
  if (in_slow_start()) {
    cwnd_ += acked_pkts;  // double per RTT
  } else {
    cwnd_ += acked_pkts / cwnd_;  // +1 packet per RTT
  }
}

void RenoCore::on_congestion_event() {
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = ssthresh_;
}

void RenoCore::on_rto() {
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
}

void Reno::init(sim::CcContext& ctx) {
  core_.init(ctx.cwnd_bytes() / sim::kMss);
  ctx.set_pacing_rate_bps(0);  // pure ACK clocking
}

void Reno::on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) {
  core_.on_ack(static_cast<double>(ack.newly_acked_bytes) / sim::kMss);
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * sim::kMss);
}

void Reno::on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) {
  if (!loss.new_congestion_event) return;
  core_.on_congestion_event();
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * sim::kMss);
}

void Reno::on_rto(sim::CcContext& ctx) {
  core_.on_rto();
  ctx.set_cwnd_bytes(core_.cwnd_pkts() * sim::kMss);
}

}  // namespace nimbus::cc
