#include "cc/bbr.h"

#include <algorithm>

namespace nimbus::cc {

namespace {
const double kCyclePacingGains[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr int kCycleLength = 8;
constexpr double kStartupGain = 2.885;  // 2/ln(2)
constexpr double kCwndGain = 2.0;
constexpr int kBwWindowRtts = 10;
constexpr TimeNs kMinRttWindow = from_sec(10);
constexpr TimeNs kProbeRttDuration = from_ms(200);
}  // namespace

void Bbr::init(sim::CcContext& ctx) {
  state_ = State::kStartup;
  pacing_gain_ = kStartupGain;
  btl_bw_.set_window(from_sec(1));  // adjusted once we have an RTT
  rt_prop_.set_window(kMinRttWindow);
  // Until the first bandwidth sample, pace at a conservative default based
  // on the initial window and a nominal 100 ms RTT.
  ctx.set_pacing_rate_bps(ctx.cwnd_bytes() * 8.0 / 0.1);
}

double Bbr::bdp_bytes() const {
  const double bw = btl_bw_.get_unexpired();
  return bw / 8.0 * latest_min_rtt_sec_;
}

void Bbr::on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) {
  const TimeNs now = ack.now;

  if (ack.rtt > 0) {
    rt_prop_.update(now, to_sec(ack.rtt));
    const double mn = rt_prop_.get_unexpired();
    if (latest_min_rtt_sec_ == 0 || mn <= latest_min_rtt_sec_) {
      latest_min_rtt_sec_ = mn;
      min_rtt_stamp_ = now;
    } else {
      latest_min_rtt_sec_ = mn;
    }
    btl_bw_.set_window(
        static_cast<TimeNs>(kBwWindowRtts *
                            std::max<TimeNs>(ctx.srtt(), from_ms(1))));
  }

  // Bandwidth samples only when not application-limited (app-limited acks
  // under-estimate the path).
  if (ctx.rates_valid() && !ack.app_limited) {
    btl_bw_.update(now, ctx.recv_rate_bps());
  }

  // Round boundary approximation: one sRTT.
  const bool round_done = now - round_start_ >= ctx.srtt();
  if (round_done) round_start_ = now;

  switch (state_) {
    case State::kStartup: {
      if (round_done) {
        const double bw = btl_bw_.get_unexpired();
        if (bw > full_bw_ * 1.25) {
          full_bw_ = bw;
          full_bw_count_ = 0;
        } else {
          ++full_bw_count_;
        }
        if (full_bw_count_ >= 3) {
          state_ = State::kDrain;
          pacing_gain_ = 1.0 / kStartupGain;
        }
      }
      break;
    }
    case State::kDrain: {
      if (static_cast<double>(ctx.bytes_in_flight()) <= bdp_bytes()) {
        enter_probe_bw(ctx);
      }
      break;
    }
    case State::kProbeBw: {
      advance_cycle(now);
      break;
    }
    case State::kProbeRtt: {
      if (probe_rtt_done_ == 0 &&
          static_cast<double>(ctx.bytes_in_flight()) <= 4.0 * sim::kMss) {
        probe_rtt_done_ = now + kProbeRttDuration;
      }
      if (probe_rtt_done_ != 0 && now >= probe_rtt_done_) {
        min_rtt_stamp_ = now;
        enter_probe_bw(ctx);
      }
      break;
    }
  }

  check_probe_rtt(ctx, now);
  apply_control(ctx);
}

void Bbr::enter_probe_bw(sim::CcContext& ctx) {
  state_ = State::kProbeBw;
  // Random initial phase, excluding the 0.75 (drain) phase per BBR v1.
  cycle_index_ =
      static_cast<int>(ctx.rng().uniform_int(0, kCycleLength - 2));
  if (cycle_index_ >= 1) ++cycle_index_;
  cycle_stamp_ = ctx.now();
  pacing_gain_ = kCyclePacingGains[cycle_index_];
}

void Bbr::advance_cycle(TimeNs now) {
  const auto phase_len =
      static_cast<TimeNs>(latest_min_rtt_sec_ * kNanosPerSec);
  if (now - cycle_stamp_ < std::max<TimeNs>(phase_len, from_ms(1))) return;
  cycle_index_ = (cycle_index_ + 1) % kCycleLength;
  cycle_stamp_ = now;
  pacing_gain_ = kCyclePacingGains[cycle_index_];
}

void Bbr::check_probe_rtt(sim::CcContext& ctx, TimeNs now) {
  if (state_ == State::kProbeRtt || state_ == State::kStartup) return;
  if (now - min_rtt_stamp_ < kMinRttWindow) return;
  state_ = State::kProbeRtt;
  probe_rtt_done_ = 0;
  pacing_gain_ = 1.0;
  ctx.set_cwnd_bytes(4.0 * sim::kMss);
}

void Bbr::apply_control(sim::CcContext& ctx) {
  const double bw = btl_bw_.get_unexpired();
  if (bw <= 0 || latest_min_rtt_sec_ <= 0) return;
  ctx.set_pacing_rate_bps(std::max(pacing_gain_ * bw, 1e4));
  if (state_ == State::kProbeRtt) {
    ctx.set_cwnd_bytes(4.0 * sim::kMss);
  } else {
    const double gain =
        state_ == State::kStartup ? kStartupGain : kCwndGain;
    ctx.set_cwnd_bytes(std::max(gain * bdp_bytes(), 4.0 * sim::kMss));
  }
}

void Bbr::on_loss(sim::CcContext& /*ctx*/, const sim::LossInfo& /*loss*/) {
  // BBR v1 ignores individual losses (no multiplicative decrease).
}

void Bbr::on_rto(sim::CcContext& ctx) {
  // Conservative restart after a whole-window loss.
  full_bw_ = 0;
  full_bw_count_ = 0;
  ctx.set_cwnd_bytes(4.0 * sim::kMss);
}

}  // namespace nimbus::cc
