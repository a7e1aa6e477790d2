// PIE (Proportional Integral controller Enhanced) AQM, RFC 8033 (simplified).
//
// Used by the App. E.2 robustness experiments: the paper evaluates elasticity
// detection when the bottleneck runs PIE at two target delays.
//
// Simplifications relative to the RFC: no burst allowance auto-tuning beyond
// the initial burst window, departure rate taken from the configured link
// rate (the link is work-conserving and fully utilised in all experiments
// that use PIE).
#pragma once

#include <cstdint>

#include "sim/queue_disc.h"
#include "util/ring_deque.h"
#include "util/rng.h"

namespace nimbus::sim {

class PieQueue : public QueueDisc {
 public:
  struct Config {
    std::int64_t capacity_bytes = 0;   // hard limit (tail drop beyond this)
    double link_rate_bps = 0.0;        // departure rate for delay estimation
    TimeNs target_delay = from_ms(15); // QDELAY_REF
    std::uint64_t seed = 42;
  };

  explicit PieQueue(const Config& config);

  bool enqueue(const Packet& p, TimeNs now) override;
  std::optional<Packet> dequeue(TimeNs now) override;
  std::int64_t bytes() const override { return bytes_; }
  std::size_t packets() const override { return q_.size(); }

  double drop_probability() const { return drop_prob_; }
  TimeNs estimated_delay() const;

 private:
  void maybe_update(TimeNs now);

  Config cfg_;
  // Ring buffer, not std::deque: the FIFO's steady-state churn must not
  // touch the heap (the DropTail queue made the same move in PR 3).
  util::RingDeque<Packet> q_;
  std::int64_t bytes_ = 0;
  double drop_prob_ = 0.0;
  TimeNs last_update_ = 0;
  TimeNs prev_delay_ = 0;
  // MAX_BURST: early drops stay off for this long after start-up.
  static constexpr TimeNs kBurstAllowance = from_ms(150);
  TimeNs burst_left_ = kBurstAllowance;
  util::Rng rng_;
};

}  // namespace nimbus::sim
