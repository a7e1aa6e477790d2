// Tests for the PR 3 allocation-free ACK-path data structures: SeqRing /
// SeqScoreboard property tests, randomized ring-vs-deque RateSampler
// equivalence, golden transport regressions (loss, retransmit, RTO
// backoff, finite-flow completion, window growth past the initial ring
// capacity) pinned to values captured from the PR 2 std::map/std::set
// implementation, a pinned hash of every Eq. 2 rate read a CC can make,
// and the steady-state zero-allocation guarantee (via the same counting
// operator-new hook as event_loop_test.cc).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <new>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/const_window.h"
#include "cc/reno.h"
#include "sim/network.h"
#include "sim/rate_sampler.h"
#include "sim/seq_ring.h"
#include "util/rng.h"

// --- counting operator-new hook (whole test binary) ---------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The hooks are noinline on purpose: when gcc 12 inlines these bodies it
// pairs the malloc in operator new with the free in operator delete across
// call sites and raises a spurious -Wmismatched-new-delete under -Werror
// (and an inlined counter could be elided outright).
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nimbus::sim {
namespace {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

// FNV-1a over the per-ACK (time, rtt) stream: any divergence in ACK
// content, ordering, or timing from the seed behavior changes the hash.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

// --- SeqRing ------------------------------------------------------------

TEST(SeqRingTest, InsertFindErase) {
  SeqRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  ring.insert(10, 100);
  ring.insert(12, 120);
  ring.insert(11, 110);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.lowest(), 10u);
  EXPECT_EQ(ring.upper(), 13u);
  ASSERT_NE(ring.find(11), nullptr);
  EXPECT_EQ(*ring.find(11), 110);
  EXPECT_EQ(ring.find(13), nullptr);
  EXPECT_TRUE(ring.erase(11));
  EXPECT_FALSE(ring.erase(11));
  EXPECT_EQ(ring.find(11), nullptr);
  EXPECT_EQ(ring.size(), 2u);
}

TEST(SeqRingTest, BoundsStayTightAndGrowthPreservesContents) {
  SeqRing<std::uint64_t> ring(4);
  // Fill a window far beyond the initial capacity.
  for (std::uint64_t s = 100; s < 400; ++s) ring.insert(s, s * 2);
  EXPECT_EQ(ring.size(), 300u);
  EXPECT_GE(ring.capacity(), 300u);
  for (std::uint64_t s = 100; s < 400; ++s) {
    ASSERT_NE(ring.find(s), nullptr) << s;
    EXPECT_EQ(*ring.find(s), s * 2);
  }
  // Erase the edges: bounds must tighten so the span stays the live window.
  for (std::uint64_t s = 100; s < 150; ++s) ring.erase(s);
  for (std::uint64_t s = 399; s >= 390; --s) ring.erase(s);
  EXPECT_EQ(ring.lowest(), 150u);
  EXPECT_EQ(ring.upper(), 390u);
  // Re-inserting below lowest (a retransmission of an old sequence) works.
  ring.insert(149, 999);
  EXPECT_EQ(ring.lowest(), 149u);
  EXPECT_EQ(*ring.find(149), 999u);
}

TEST(SeqRingTest, MatchesStdMapUnderRandomWindowChurn) {
  // The transport's access pattern, randomized: insert at the frontier,
  // erase the lowest (cumulative ACK), erase random members (SACK),
  // re-insert erased ones (retransmit), iterate ranges.
  SeqRing<int> ring(8);
  std::map<std::uint64_t, int> model;
  util::Rng rng(99);
  std::uint64_t frontier = 0;
  std::vector<std::uint64_t> holes;  // erased below the frontier
  for (int step = 0; step < 20000; ++step) {
    const double r = rng.uniform();
    if (r < 0.4 || model.empty()) {
      ring.insert(frontier, static_cast<int>(frontier));
      model.emplace(frontier, static_cast<int>(frontier));
      ++frontier;
    } else if (r < 0.6) {
      const auto lo = model.begin()->first;
      EXPECT_EQ(ring.lowest(), lo);
      ring.erase(lo);
      model.erase(model.begin());
    } else if (r < 0.8) {
      auto it = model.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<int>(model.size()) - 1));
      holes.push_back(it->first);
      ring.erase(it->first);
      model.erase(it);
    } else if (!holes.empty()) {
      const std::uint64_t s = holes.back();
      holes.pop_back();
      if (model.count(s) == 0) {
        ring.insert(s, -static_cast<int>(s));
        model.emplace(s, -static_cast<int>(s));
      }
    }
    ASSERT_EQ(ring.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(ring.lowest(), model.begin()->first);
      ASSERT_EQ(ring.upper(), model.rbegin()->first + 1);
    }
  }
  // Final sweep: identical contents in identical (ascending) order.
  std::vector<std::pair<std::uint64_t, int>> from_ring;
  if (!ring.empty()) {
    ring.for_each_in(ring.lowest(), ring.upper(),
                     [&](std::uint64_t s, int& v) {
                       from_ring.emplace_back(s, v);
                     });
  }
  std::vector<std::pair<std::uint64_t, int>> from_model(model.begin(),
                                                        model.end());
  EXPECT_EQ(from_ring, from_model);
}

// --- SeqScoreboard ------------------------------------------------------

TEST(SeqScoreboardTest, MatchesStdSetAcrossGrowth) {
  SeqScoreboard sb(64);
  std::set<std::uint64_t> model;
  util::Rng rng(7);
  std::uint64_t base = 0;  // the receiver's rcv_next
  for (int step = 0; step < 50000; ++step) {
    if (rng.uniform() < 0.5) {
      // Out-of-order arrival, sometimes far past the current capacity.
      const std::uint64_t seq =
          base + 1 +
          static_cast<std::uint64_t>(rng.uniform() * rng.uniform() * 4096);
      sb.ensure_span(base, seq);
      sb.set(seq);
      model.insert(seq);
    } else {
      // In-order arrival: advance the cumulative point over set bits.
      ++base;
      while (!model.empty() && sb.test(base)) {
        EXPECT_EQ(*model.begin(), base);
        sb.clear(base);
        model.erase(model.begin());
        ++base;
      }
    }
    ASSERT_EQ(sb.count(), model.size());
    if (!model.empty()) {
      ASSERT_TRUE(sb.test(*model.begin()));
    }
  }
}

// --- RateSampler ring vs deque reference --------------------------------

// The original deque implementation, kept as the executable specification
// of Eq. (2): it stores each sample's own bytes and re-sums the window on
// every query, where the ring reads two running totals.
class ReferenceRateSampler {
 public:
  void on_ack(TimeNs sent_at, TimeNs acked_at, std::uint32_t bytes) {
    samples_.push_back({sent_at, acked_at, bytes});
    if (samples_.size() > RateSampler::kMaxHistory) samples_.pop_front();
  }

  RateSampler::Rates rates(std::size_t n_packets) const {
    RateSampler::Rates out;
    n_packets = std::min(n_packets, samples_.size());
    if (n_packets < std::max<std::size_t>(2, RateSampler::kMinPackets)) {
      return out;
    }
    const std::size_t first = samples_.size() - n_packets;
    const Sample& a = samples_[first];
    const Sample& b = samples_.back();
    std::int64_t n_bytes = 0;
    for (std::size_t i = first + 1; i < samples_.size(); ++i) {
      n_bytes += samples_[i].bytes;
    }
    const TimeNs send_span = b.sent_at - a.sent_at;
    const TimeNs recv_span = b.acked_at - a.acked_at;
    if (send_span <= 0 || recv_span <= 0 || n_bytes <= 0) return out;
    out.send_bps = static_cast<double>(n_bytes) * 8.0 / to_sec(send_span);
    out.recv_bps = static_cast<double>(n_bytes) * 8.0 / to_sec(recv_span);
    out.valid = true;
    return out;
  }

  RateSampler::Rates rates_over_window(double cwnd_bytes,
                                       std::uint32_t mss) const {
    const auto window_pkts = static_cast<std::size_t>(
        std::max(8.0, cwnd_bytes / static_cast<double>(mss)));
    return rates(window_pkts);
  }

  std::size_t history_size() const { return samples_.size(); }

 private:
  struct Sample {
    TimeNs sent_at;
    TimeNs acked_at;
    std::uint32_t bytes;
  };
  std::deque<Sample> samples_;
};

TEST(RateSamplerEquivalenceTest, RandomizedBitIdenticalToDeque) {
  RateSampler ring;
  ReferenceRateSampler deque;
  util::Rng rng(31);
  TimeNs sent = 0;
  TimeNs acked = from_ms(50);
  // 40000 acks: crosses every ring growth step and the 16384-sample
  // history cap (where the ring starts overwriting and the deque pops).
  for (int i = 0; i < 40000; ++i) {
    sent += static_cast<TimeNs>(rng.uniform() * 2e6);
    acked += static_cast<TimeNs>(rng.uniform() * 2e6);
    const auto bytes = static_cast<std::uint32_t>(rng.uniform_int(100, 3000));
    ring.on_ack(sent, acked, bytes);
    deque.on_ack(sent, acked, bytes);
    ASSERT_EQ(ring.history_size(), deque.history_size());
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 20000));
    const auto a = ring.rates(n);
    const auto b = deque.rates(n);
    ASSERT_EQ(a.valid, b.valid) << "ack " << i << " n " << n;
    ASSERT_EQ(a.send_bps, b.send_bps) << "ack " << i << " n " << n;
    ASSERT_EQ(a.recv_bps, b.recv_bps) << "ack " << i << " n " << n;
    const double cwnd = rng.uniform(0, 1e6);
    const auto aw = ring.rates_over_window(cwnd, 1500);
    const auto bw = deque.rates_over_window(cwnd, 1500);
    ASSERT_EQ(aw.valid, bw.valid);
    ASSERT_EQ(aw.send_bps, bw.send_bps);
  }
}

// --- golden transport regressions ---------------------------------------
//
// Values captured from the PR 2 build (std::map outstanding tracking,
// std::set scoreboard, deque rate sampler) on the same scenarios: the ring
// transport must reproduce the exact ACK stream, loss/RTO accounting, and
// completion times.

TEST(TransportRingGoldenTest, LossRetransmitSequenceMatchesSeed) {
  // Shallow buffer forces tail drops; fast retransmit recovers (no RTO).
  Network net(12e6, 20 * 1500);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 2000 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  Fnv fnv;
  flow->set_rtt_sample_handler([&fnv](FlowId, TimeNs t, TimeNs rtt) {
    fnv.mix(static_cast<std::uint64_t>(t));
    fnv.mix(static_cast<std::uint64_t>(rtt));
  });
  TimeNs fct = 0;
  flow->set_completion_handler([&fct](FlowId, TimeNs, TimeNs t) { fct = t; });
  net.run_until(from_sec(60));
  EXPECT_EQ(fnv.h, 7780397820737034334ULL);
  EXPECT_EQ(flow->acked_bytes(), 3000000);
  EXPECT_EQ(flow->lost_packets(), 127u);
  EXPECT_EQ(flow->rto_count(), 0u);
  EXPECT_EQ(flow->sent_packets(), 2127u);
  EXPECT_EQ(fct, 2124000000);
}

TEST(TransportRingGoldenTest, RtoBackoffSequenceMatchesSeed) {
  // 40% random loss: whole windows vanish, driving repeated RTO backoff.
  Network net(12e6, 1 << 20);
  net.link().set_random_loss(0.4, 17);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 50 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  TimeNs fct = 0;
  flow->set_completion_handler([&fct](FlowId, TimeNs, TimeNs t) { fct = t; });
  net.run_until(from_sec(120));
  EXPECT_EQ(fct, 852000000);
  EXPECT_EQ(flow->rto_count(), 2u);
  EXPECT_EQ(flow->lost_packets(), 50u);
  EXPECT_EQ(flow->sent_packets(), 100u);
}

TEST(TransportRingGoldenTest, WindowGrowthPastRingCapacityMatchesSeed) {
  // A 2000-packet window (far past the 64-slot initial ring) with 1%
  // random loss: the outstanding ring grows several times while holes and
  // retransmissions churn it, and the scoreboard window spans thousands of
  // sequences.
  Network net(1e9, 1 << 24);
  net.link().set_random_loss(0.01, 23);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(50);
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(2000));
  Fnv fnv;
  flow->set_rtt_sample_handler([&fnv](FlowId, TimeNs t, TimeNs rtt) {
    fnv.mix(static_cast<std::uint64_t>(t));
    fnv.mix(static_cast<std::uint64_t>(rtt));
  });
  net.run_until(from_sec(5));
  EXPECT_EQ(fnv.h, 10574145731213773768ULL);
  EXPECT_EQ(net.recorder().delivered(1).total(), 299892000);
  EXPECT_EQ(flow->sent_packets(), 201977u);
  EXPECT_EQ(flow->lost_packets(), 3990u);
  EXPECT_EQ(flow->rto_count(), 0u);
  EXPECT_EQ(flow->acked_bytes(), 293980500);
}

// --- Eq. 2 rate reads ---------------------------------------------------

std::uint64_t double_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// A window CC that reads the Eq. 2 rates wherever an algorithm can: in
// every on_ack (as BBR does), on losses and RTOs, and on every report.  It
// moves cwnd inside on_ack and the rate window inside on_report, then
// reads again: a read must keep using the window that was in force when
// the latest ACK arrived, before the algorithm's on_ack ran.
class RateProbe final : public CcAlgorithm {
 public:
  explicit RateProbe(Fnv* fnv) : fnv_(fnv) {}

  std::string name() const override { return "rate-probe"; }
  void init(CcContext& ctx) override {
    ctx.set_cwnd_bytes(10.0 * ctx.mss());
    ctx.set_pacing_rate_bps(0);
  }
  void on_ack(CcContext& ctx, const AckInfo&) override {
    const std::uint64_t before = read(ctx);
    // Additive increase of four packets per window, reset past 300.
    const double mss = ctx.mss();
    const double next = ctx.cwnd_bytes() + 4.0 * mss * mss / ctx.cwnd_bytes();
    ctx.set_cwnd_bytes(next > 300.0 * mss ? 10.0 * mss : next);
    if (read(ctx) != before) ++moved_reads;
  }
  void on_loss(CcContext& ctx, const LossInfo& loss) override {
    read(ctx);
    if (loss.new_congestion_event) {
      ctx.set_cwnd_bytes(std::max(ctx.cwnd_bytes() / 2.0, 4.0 * ctx.mss()));
    }
  }
  void on_rto(CcContext& ctx) override {
    read(ctx);
    ctx.set_cwnd_bytes(2.0 * ctx.mss());
  }
  void on_report(CcContext& ctx, const CcReport& r) override {
    mix(r.send_rate_bps, r.recv_rate_bps, r.rates_valid);
    const std::uint64_t before = read(ctx);
    // Cycle the rate window through cwnd (0) and fixed sizes around it.
    ++reports_;
    ctx.set_rate_window_bytes(static_cast<double>(reports_ % 7) * 12.0 *
                              ctx.mss());
    if (read(ctx) != before) ++moved_reads;
  }

  std::uint64_t reads = 0;
  std::uint64_t valid_reads = 0;
  std::uint64_t moved_reads = 0;  // a read changed without a new ACK

 private:
  // Folds one (S, R, valid) triple into the shared hash and returns the
  // triple's own hash, so paired reads can be compared.
  std::uint64_t mix(double send, double recv, bool valid) {
    Fnv one;
    for (std::uint64_t v : {double_bits(send), double_bits(recv),
                            std::uint64_t{valid}}) {
      fnv_->mix(v);
      one.mix(v);
    }
    return one.h;
  }
  std::uint64_t read(CcContext& ctx) {
    ++reads;
    if (ctx.rates_valid()) ++valid_reads;
    return mix(ctx.send_rate_bps(), ctx.recv_rate_bps(), ctx.rates_valid());
  }

  Fnv* fnv_;
  std::uint64_t reports_ = 0;
};

TEST(TransportRingGoldenTest, RateReadsMatchSeed) {
  // Random loss plus a competing window flow keep S and R moving.
  Network net(24e6, 60 * 1500);
  net.link().set_random_loss(0.002, 41);
  Fnv fnv;
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(30);
  auto probe_cc = std::make_unique<RateProbe>(&fnv);
  RateProbe* probe = probe_cc.get();
  TransportFlow* flow = net.add_flow(cfg, std::move(probe_cc));
  TransportFlow::Config cross;
  cross.id = 2;
  cross.rtt_prop = from_ms(45);
  cross.start_time = from_sec(2);
  net.add_flow(cross, std::make_unique<cc::ConstWindow>(60));
  net.run_until(from_sec(8));
  EXPECT_EQ(probe->moved_reads, 0u);
  EXPECT_GT(probe->valid_reads, 10000u);
  EXPECT_LT(probe->valid_reads, probe->reads);  // reads before any ACK
  EXPECT_GT(flow->lost_packets(), 0u);
  // Captured from the eager build, which cached the rates on every ACK.
  EXPECT_EQ(fnv.h, 1622973303972625042ULL);
}

// --- zero-allocation guarantee ------------------------------------------

// The steady-state ACK path — handle_ack (outstanding ring, rate-sampler
// prefix sums, RTT estimation, cc, RTO rearm) plus the ACK-clocked send
// path (retx/outstanding rings, bottleneck FIFO ring, event scheduling) —
// must not touch the heap once every structure has reached its high-water
// mark.  The flow runs against a bare link (no Network) so the check pins
// the transport itself, not the recorder's amortized series appends.
TEST(TransportRingTest, SteadyStateAckPathDoesNotAllocate) {
  EventLoop loop;
  BottleneckLink link(&loop, 12e6,
                      std::make_unique<DropTailQueue>(1 << 20));
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  TransportFlow flow(&loop, &link, cfg,
                     std::make_unique<cc::ConstWindow>(400));
  link.set_delivery_handler([&flow](const Packet& p, TimeNs t) {
    if (p.is_transport) flow.on_link_delivery(p, t);
  });
  link.set_drop_handler([](const Packet&) {});
  flow.start();
  // Warm-up past the rate sampler's 16384-sample history cap (~1000
  // ACKs/s on this link) so every ring is at its high-water mark.
  loop.run_until(from_sec(20));
  const std::uint64_t before = alloc_count();
  loop.run_until(loop.now() + from_sec(5));
  EXPECT_EQ(alloc_count(), before)
      << "steady-state ACK path must perform no heap allocations";
  EXPECT_GT(flow.acked_bytes(), 0);
}

TEST(TransportRingTest, SteadyStateLossRecoveryDoesNotAllocate) {
  // Same guarantee under sustained random loss: detect_losses, the
  // retransmit ring, and the scoreboard all cycle without heap traffic.
  EventLoop loop;
  BottleneckLink link(&loop, 12e6,
                      std::make_unique<DropTailQueue>(1 << 20));
  link.set_random_loss(0.02, 5);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  TransportFlow flow(&loop, &link, cfg,
                     std::make_unique<cc::ConstWindow>(400));
  link.set_delivery_handler([&flow](const Packet& p, TimeNs t) {
    if (p.is_transport) flow.on_link_delivery(p, t);
  });
  link.set_drop_handler([](const Packet&) {});
  flow.start();
  loop.run_until(from_sec(20));
  const std::uint64_t before = alloc_count();
  loop.run_until(loop.now() + from_sec(5));
  EXPECT_EQ(alloc_count(), before)
      << "loss recovery must perform no steady-state heap allocations";
  EXPECT_GT(flow.lost_packets(), 0u);
}

}  // namespace
}  // namespace nimbus::sim
