// Queue disciplines for the bottleneck link.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "sim/packet.h"
#include "util/ring_deque.h"
#include "util/time.h"

namespace nimbus::sim {

/// Abstract queueing discipline.  The link calls enqueue() on packet arrival
/// (false = dropped) and dequeue() when the transmitter goes idle.
class QueueDisc {
 public:
  virtual ~QueueDisc() = default;

  virtual bool enqueue(const Packet& p, TimeNs now) = 0;
  virtual std::optional<Packet> dequeue(TimeNs now) = 0;

  virtual std::int64_t bytes() const = 0;
  virtual std::size_t packets() const = 0;
  bool empty() const { return packets() == 0; }
};

/// Drop-tail FIFO bounded in bytes.  Backed by a RingDeque: a std::deque
/// frees and reallocates a storage block every ~10 packets of steady FIFO
/// churn, which would break the simulator's steady-state zero-allocation
/// guarantee (and costs allocator traffic on the busiest per-packet path).
class DropTailQueue : public QueueDisc {
 public:
  explicit DropTailQueue(std::int64_t capacity_bytes);

  bool enqueue(const Packet& p, TimeNs now) override;
  std::optional<Packet> dequeue(TimeNs now) override;
  std::int64_t bytes() const override { return bytes_; }
  std::size_t packets() const override { return q_.size(); }
  std::int64_t capacity_bytes() const { return capacity_; }

 private:
  std::int64_t capacity_;
  std::int64_t bytes_ = 0;
  util::RingDeque<Packet> q_;
};

/// Capacity helper: buffer sized in units of bandwidth-delay product,
/// floored at 3000 bytes.  CHECK-fails when rate/8 x rtt x multiple is
/// NaN, infinite, negative or beyond int64.
std::int64_t buffer_bytes_for_bdp(double link_rate_bps, TimeNs rtt,
                                  double bdp_multiple);

}  // namespace nimbus::sim
