#include "cc/compound.h"

#include <algorithm>
#include <cmath>

namespace nimbus::cc {

namespace {
constexpr double kAlpha = 0.125;
constexpr double kBeta = 0.5;
constexpr double kK = 0.75;
constexpr double kGammaPkts = 30.0;  // queue backlog threshold (packets)
constexpr double kZeta = 1.0;        // dwnd decrease factor
}  // namespace

void Compound::init(sim::CcContext& ctx) {
  loss_window_.init(ctx.cwnd_bytes() / sim::kMss);
  dwnd_ = 0;
  ctx.set_pacing_rate_bps(0);
}

void Compound::push_window(sim::CcContext& ctx) {
  const double total = loss_window_.cwnd_pkts() + std::max(dwnd_, 0.0);
  ctx.set_cwnd_bytes(total * sim::kMss);
}

void Compound::on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) {
  const double acked_pkts =
      static_cast<double>(ack.newly_acked_bytes) / sim::kMss;
  loss_window_.on_ack(acked_pkts);

  // Delay-window update once per RTT (Tan et al., section III).
  if (ack.now >= next_update_ && ctx.min_rtt() > 0 && ack.rtt > 0) {
    next_update_ = ack.now + ctx.srtt();
    const double win = loss_window_.cwnd_pkts() + std::max(dwnd_, 0.0);
    const double rtt_s = to_sec(ack.rtt);
    const double base_s = to_sec(ctx.min_rtt());
    const double diff = win * (rtt_s - base_s) / rtt_s;  // queued packets

    if (diff < kGammaPkts) {
      // dwnd grows binomially: alpha * win^k - 1 per RTT.
      dwnd_ += std::max(kAlpha * std::pow(win, kK) - 1.0, 0.0);
    } else {
      dwnd_ -= kZeta * diff;
    }
    dwnd_ = std::max(dwnd_, 0.0);
  }
  push_window(ctx);
}

void Compound::on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) {
  if (!loss.new_congestion_event) return;
  const double win = loss_window_.cwnd_pkts() + std::max(dwnd_, 0.0);
  loss_window_.on_congestion_event();
  // dwnd after loss: win*(1-beta) - loss_window/2 (never negative).
  dwnd_ = std::max(win * (1.0 - kBeta) - loss_window_.cwnd_pkts(), 0.0);
  push_window(ctx);
}

void Compound::on_rto(sim::CcContext& ctx) {
  loss_window_.on_rto();
  dwnd_ = 0;
  push_window(ctx);
}

}  // namespace nimbus::cc
