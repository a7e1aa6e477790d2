#include "sim/pie.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nimbus::sim {

namespace {
constexpr TimeNs kUpdateInterval = from_ms(15);  // T_UPDATE
// Gains in SI units (1/s), RFC 8033 autotuning off.
constexpr double kAlpha = 0.125;
constexpr double kBeta = 1.25;
}  // namespace

PieQueue::PieQueue(const Config& config) : cfg_(config), rng_(config.seed) {
  NIMBUS_CHECK(cfg_.capacity_bytes > 0);
  NIMBUS_CHECK(cfg_.link_rate_bps > 0);
}

TimeNs PieQueue::estimated_delay() const {
  return static_cast<TimeNs>(static_cast<double>(bytes_) * 8.0 /
                             cfg_.link_rate_bps *
                             static_cast<double>(kNanosPerSec));
}

void PieQueue::maybe_update(TimeNs now) {
  if (now - last_update_ < kUpdateInterval) return;
  const TimeNs qdelay = estimated_delay();

  // RFC 8033 section 4.2: p' = alpha*(qdelay - target) + beta*(qdelay -
  // qdelay_old), with alpha/beta in units of 1/second, scaled down when the
  // drop probability is small for gentle ramp-up.
  double p = kAlpha * to_sec(qdelay - cfg_.target_delay) +
             kBeta * to_sec(qdelay - prev_delay_);
  if (drop_prob_ < 0.000001) {
    p /= 2048.0;
  } else if (drop_prob_ < 0.00001) {
    p /= 512.0;
  } else if (drop_prob_ < 0.0001) {
    p /= 128.0;
  } else if (drop_prob_ < 0.001) {
    p /= 32.0;
  } else if (drop_prob_ < 0.01) {
    p /= 8.0;
  } else if (drop_prob_ < 0.1) {
    p /= 2.0;
  }
  drop_prob_ += p;

  // Exponential decay when the queue is idle.
  if (qdelay == 0 && prev_delay_ == 0) drop_prob_ *= 0.98;
  drop_prob_ = std::clamp(drop_prob_, 0.0, 1.0);

  prev_delay_ = qdelay;
  if (burst_left_ > 0) {
    burst_left_ -= std::min<TimeNs>(burst_left_, now - last_update_);
  }
  last_update_ = now;
}

bool PieQueue::enqueue(const Packet& p, TimeNs now) {
  maybe_update(now);
  if (bytes_ + p.size_bytes > cfg_.capacity_bytes) return false;

  const bool in_burst_protection =
      burst_left_ > 0 && drop_prob_ < 0.2 &&
      estimated_delay() < cfg_.target_delay / 2;
  if (!in_burst_protection) {
    // RFC 8033 safeguards: never drop when the queue is nearly empty.
    const bool small_queue = bytes_ < 2 * static_cast<std::int64_t>(p.size_bytes);
    if (!small_queue && rng_.bernoulli(drop_prob_)) return false;
  }

  bytes_ += p.size_bytes;
  q_.push_back(p);
  return true;
}

std::optional<Packet> PieQueue::dequeue(TimeNs now) {
  maybe_update(now);
  if (q_.empty()) return std::nullopt;
  Packet p = q_.front();
  q_.pop_front();
  bytes_ -= p.size_bytes;
  return p;
}

}  // namespace nimbus::sim
