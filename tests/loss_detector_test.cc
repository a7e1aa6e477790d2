// LossDetector against the scan it replaced.
//
// The oracle is the full window scan the transport used to run on every
// ACK: visit each outstanding seq in [lowest, lost_below) in ascending
// order and declare it lost if it has been outstanding for min_age.  A
// model sender with the transport's send discipline (fast retransmissions
// from a FIFO retransmit queue, go-back-N of the sorted window on RTO)
// drives both over seeded random churn — forward loss, reordering jitter
// (SACKs above holes), lost ACKs, retransmissions lost again, timeouts,
// a congestion window that moves, and an RTT that rises and falls so
// min_age grows and shrinks — and every ACK must yield the same lost seqs
// in the same order.  The detector's work is checked against a
// deterministic bound, which the oracle scan misses by far.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/loss_detector.h"
#include "sim/seq_ring.h"
#include "util/rng.h"

namespace nimbus::sim {
namespace {

constexpr std::uint64_t kDupThreshold = 3;

// The pre-detector scan, verbatim in effect: every index of
// [lowest, lost_below) is visited; `visits` counts them.
std::vector<std::uint64_t> oracle_scan(SeqRing<SentRecord>& outstanding,
                                       std::uint64_t lost_below, TimeNs now,
                                       TimeNs min_age, std::uint64_t* visits) {
  std::vector<std::uint64_t> lost;
  if (outstanding.empty()) return lost;
  const std::uint64_t lo = outstanding.lowest();
  const std::uint64_t hi = std::min(lost_below, outstanding.upper());
  if (hi > lo) *visits += hi - lo;
  outstanding.for_each_in(lo, lost_below,
                          [&](std::uint64_t seq, const SentRecord& rec) {
                            if (now - rec.sent_at >= min_age) {
                              lost.push_back(seq);
                            }
                          });
  return lost;
}

struct Churn {
  const char* name;
  double loss;            // forward drop probability per data packet
  double ack_loss;        // drop probability per ACK
  TimeNs jitter;          // uniform extra one-trip delay (reorders)
  double rto_per_ack;     // chance of a forced timeout after an ACK
  int max_cwnd;           // congestion window random walk in [4, max]
  bool blackouts;         // drop everything sent in 1 ms of every 20 ms
};

struct Totals {
  std::uint64_t acks = 0;
  std::uint64_t collects = 0;
  std::uint64_t sends = 0;
  std::uint64_t lost = 0;
  std::uint64_t lost_fifo = 0;     // retransmissions lost again
  std::uint64_t gbn_frontier = 0;  // go-back-N sends at/above the boundary
  std::uint64_t rtos = 0;
  std::uint64_t min_age_up = 0;
  std::uint64_t min_age_down = 0;
  std::uint64_t oracle_visits = 0;
  std::uint64_t examined = 0;
};

// A sender with TransportFlow's loss-recovery discipline over a path with
// random loss and delay.  The receiver's state is updated when a packet
// arrives; its ACK reaches the sender at the same instant.
class ModelSender {
 public:
  ModelSender(const Churn& c, std::uint64_t seed) : c_(c), rng_(seed) {}

  Totals run(int acks) {
    send();
    while (totals_.acks < static_cast<std::uint64_t>(acks)) {
      const TimeNs rto_at = last_progress_ + kRto;
      if (arrivals_.empty() || arrivals_.begin()->first.first > rto_at) {
        if (outstanding_.empty() && arrivals_.empty()) break;
        now_ = std::max(now_, rto_at);
        on_rto();
        continue;
      }
      const auto it = arrivals_.begin();
      now_ = it->first.first;
      const Packet p = it->second;
      arrivals_.erase(it);
      on_arrival(p);
      if (::testing::Test::HasFailure()) break;
    }
    totals_.examined = detector_.examined();
    return totals_;
  }

 private:
  static constexpr TimeNs kBaseRtt = 100'000;
  static constexpr TimeNs kRto = 2'000'000;

  struct Packet {
    std::uint64_t seq;
    TimeNs sent_at;
  };

  std::uint64_t lost_below() const {
    return any_acked_ && highest_acked_ >= kDupThreshold
               ? highest_acked_ - kDupThreshold + 1
               : 0;
  }

  void on_arrival(const Packet& p) {
    // Receiver: cumulative point plus out-of-order set.
    if (p.seq >= rcv_next_) received_.insert(p.seq);
    while (received_.count(rcv_next_) > 0) {
      received_.erase(rcv_next_);
      ++rcv_next_;
    }
    if (rng_.uniform() < c_.ack_loss) return;

    // Sender: the ACK path of TransportFlow::handle_ack.
    ++totals_.acks;
    last_progress_ = now_;
    const TimeNs rtt = now_ - p.sent_at;
    outstanding_.erase(p.seq);
    if (rcv_next_ > 0) {
      const std::uint64_t cum = rcv_next_ - 1;
      while (!outstanding_.empty() && outstanding_.lowest() <= cum) {
        outstanding_.erase(outstanding_.lowest());
      }
      while (!retx_queue_.empty() && retx_queue_.front() <= cum) {
        retx_queue_.pop_front();
      }
    }
    if (!any_acked_ || p.seq > highest_acked_) {
      highest_acked_ = p.seq;
      any_acked_ = true;
    }

    const std::uint64_t boundary = lost_below();
    if (boundary > 0) {
      const TimeNs min_age = rtt - rtt / 8;
      if (have_min_age_ && min_age > last_min_age_) ++totals_.min_age_up;
      if (have_min_age_ && min_age < last_min_age_) ++totals_.min_age_down;
      have_min_age_ = true;
      last_min_age_ = min_age;

      const std::vector<std::uint64_t> want = oracle_scan(
          outstanding_, boundary, now_, min_age, &totals_.oracle_visits);
      const std::vector<std::uint64_t> got =
          detector_.collect(outstanding_, boundary, now_, min_age);
      ++totals_.collects;
      ASSERT_EQ(got, want) << c_.name << " ack " << totals_.acks
                           << " boundary " << boundary;
      for (std::uint64_t seq : want) {
        if (outstanding_.find(seq)->in_fifo) ++totals_.lost_fifo;
        outstanding_.erase(seq);
        retx_queue_.push_back(seq);
        ++totals_.lost;
      }
    }

    // Congestion window random walk, with an occasional collapse.
    cwnd_ += static_cast<int>(rng_.uniform_int(-1, 2));
    if (rng_.uniform() < 0.002) cwnd_ /= 4;
    cwnd_ = std::clamp(cwnd_, 4, c_.max_cwnd);
    if (rng_.uniform() < c_.rto_per_ack) {
      on_rto();
      return;
    }
    send();
  }

  // TransportFlow::on_rto_fired: the window joins the retransmit queue,
  // which is sorted and de-duplicated, and the window is cleared.
  void on_rto() {
    ++totals_.rtos;
    last_progress_ = now_;
    std::vector<std::uint64_t> all(retx_queue_.begin(), retx_queue_.end());
    outstanding_.for_each_in(outstanding_.empty() ? 0 : outstanding_.lowest(),
                             outstanding_.upper(),
                             [&](std::uint64_t seq, const SentRecord&) {
                               all.push_back(seq);
                             });
    outstanding_.clear();
    detector_.on_rto();
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    retx_queue_.assign(all.begin(), all.end());
    cwnd_ = 4;
    send();
  }

  void send() {
    // The path's RTT moves in phases, so latest_rtt (and min_age) rises
    // and falls beyond the per-packet jitter.
    const TimeNs base =
        ((now_ / 3'000'000) % 3 == 1) ? kBaseRtt * 2 : kBaseRtt;
    while (outstanding_.size() < static_cast<std::size_t>(cwnd_)) {
      std::uint64_t seq;
      const bool retransmit = !retx_queue_.empty();
      if (retransmit) {
        seq = retx_queue_.front();
        retx_queue_.pop_front();
      } else {
        seq = snd_nxt_++;
      }
      const std::uint64_t boundary = lost_below();
      if (retransmit && seq >= boundary) ++totals_.gbn_frontier;
      outstanding_.insert(seq, detector_.on_send(seq, now_, boundary));
      ++totals_.sends;
      if (rng_.uniform() < c_.loss) continue;
      if (c_.blackouts && now_ % 20'000'000 < 1'000'000) continue;
      const TimeNs delay =
          base + static_cast<TimeNs>(rng_.uniform() * c_.jitter);
      arrivals_.emplace(std::make_pair(now_ + delay, order_++),
                        Packet{seq, now_});
    }
  }

  Churn c_;
  util::Rng rng_;
  TimeNs now_ = 0;
  TimeNs last_progress_ = 0;
  int cwnd_ = 10;

  SeqRing<SentRecord> outstanding_;
  LossDetector detector_;
  std::deque<std::uint64_t> retx_queue_;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t highest_acked_ = 0;
  bool any_acked_ = false;
  bool have_min_age_ = false;
  TimeNs last_min_age_ = 0;

  std::set<std::uint64_t> received_;
  std::uint64_t rcv_next_ = 0;
  // (arrival time, send order) -> packet: deterministic delivery order.
  std::map<std::pair<TimeNs, std::uint64_t>, Packet> arrivals_;
  std::uint64_t order_ = 0;

  Totals totals_;
};

const Churn kChurns[] = {
    // Drop-tail-like light loss, in-order path.
    {"light", 0.02, 0.0, 0, 0.0, 200, false},
    // Reordering: jitter above the RTT spread puts SACKs above holes.
    {"reorder", 0.05, 0.05, 150'000, 0.0005, 200, false},
    // The fig26 regime: most packets dropped, large window, young
    // retransmissions in flight.
    {"lossy", 0.3, 0.02, 20'000, 0.0, 2000, false},
    // Timeout-heavy: go-back-N runs interleave with fast retransmissions,
    // forced while packets are in flight and after path blackouts.
    {"rto", 0.15, 0.1, 60'000, 0.01, 400, true},
};

TEST(LossDetectorTest, MatchesFullScanUnderRandomChurn) {
  for (const Churn& c : kChurns) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      ModelSender sender(c, seed);
      const Totals t = sender.run(20000);
      ASSERT_FALSE(::testing::Test::HasFailure());
      EXPECT_GE(t.acks, 20000u);
      EXPECT_GT(t.lost, 0u);
      EXPECT_GT(t.min_age_up, 0u);
      EXPECT_GT(t.min_age_down, 0u);
      if (c.loss >= 0.05) {
        EXPECT_GT(t.lost_fifo, 0u);
      }
      if (c.rto_per_ack > 0) {
        EXPECT_GT(t.rtos, 0u);
        EXPECT_GT(t.gbn_frontier, 0u);
      }
      // Work bound: the frontier passes each seq at most once, each FIFO
      // entry is popped at most once, and each call stops on at most one
      // entry per stream.
      EXPECT_LE(t.examined, t.sends + 2 * t.collects)
          << "oracle visits " << t.oracle_visits;
    }
  }
}

TEST(LossDetectorTest, WorkBoundRejectsTheWindowScan) {
  // In the lossy regime the full scan re-reads the hole region on every
  // ACK: it misses the detector's bound many times over, so a return of
  // the O(window) scan fails the bound above.
  ModelSender sender(kChurns[2], 7);
  const Totals t = sender.run(20000);
  ASSERT_FALSE(::testing::Test::HasFailure());
  const std::uint64_t bound = t.sends + 2 * t.collects;
  EXPECT_LE(t.examined, bound);
  EXPECT_GT(t.oracle_visits, 10 * bound)
      << "examined " << t.examined << " sends " << t.sends;
}

TEST(LossDetectorTest, AgedPacketWaitsForTheBoundary) {
  // A packet can age before the boundary passes it, and a packet the
  // boundary has passed can be too young; min_age may shrink between ACKs.
  SeqRing<SentRecord> out;
  LossDetector d;
  for (std::uint64_t s = 0; s < 8; ++s) out.insert(s, d.on_send(s, 10, 0));
  EXPECT_TRUE(d.collect(out, 2, 20, 15).empty());  // all young
  EXPECT_EQ(d.collect(out, 2, 20, 10), (std::vector<std::uint64_t>{0, 1}));
  out.erase(0);
  out.erase(1);
  // Aged, but 2.. are not below the boundary yet.
  EXPECT_TRUE(d.collect(out, 2, 100, 10).empty());
  EXPECT_EQ(d.collect(out, 5, 100, 10),
            (std::vector<std::uint64_t>{2, 3, 4}));
}

TEST(LossDetectorTest, MergesBothStreamsInAscendingSeq) {
  SeqRing<SentRecord> out;
  LossDetector d;
  for (std::uint64_t s = 0; s < 10; ++s) out.insert(s, d.on_send(s, s, 0));
  // 2 and 5 were lost and re-sent below the boundary, 5 before 2.
  out.erase(2);
  out.erase(5);
  out.insert(5, d.on_send(5, 20, 8));
  out.insert(2, d.on_send(2, 21, 8));
  EXPECT_TRUE(out.find(2)->in_fifo);
  EXPECT_FALSE(out.find(7)->in_fifo);
  EXPECT_EQ(d.collect(out, 8, 40, 15),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(LossDetectorTest, OutOfOrderFrontierSendAborts) {
  LossDetector d;
  d.on_send(10, 0, 0);
  EXPECT_DEATH(d.on_send(9, 0, 0), "frontier-stream sends must ascend");
  d.on_rto();
  d.on_send(9, 1, 0);  // a go-back-N run starts over
}

}  // namespace
}  // namespace nimbus::sim
