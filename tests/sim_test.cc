// Tests for the simulator substrate: event loop ordering/cancellation,
// queue disciplines (DropTail, PIE), bottleneck link timing, and the rate
// sampler.
#include <gtest/gtest.h>

#include <limits>

#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/pie.h"
#include "sim/queue_disc.h"
#include "sim/rate_sampler.h"

namespace nimbus::sim {
namespace {

// --- event loop ---

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(from_ms(30), [&]() { order.push_back(3); });
  loop.schedule(from_ms(10), [&]() { order.push_back(1); });
  loop.schedule(from_ms(20), [&]() { order.push_back(2); });
  loop.run_until(from_sec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), from_sec(1));
}

TEST(EventLoopTest, TiesAreFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(from_ms(5), [&order, i]() { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule(from_ms(10), [&]() { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, SchedulingFromCallback) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&]() {
    if (++count < 5) loop.schedule_in(from_ms(10), tick);
  };
  loop.schedule(0, tick);
  loop.run_until(from_sec(1));
  EXPECT_EQ(count, 5);
}

TEST(EventLoopTest, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int count = 0;
  loop.schedule(from_ms(10), [&]() { ++count; });
  loop.schedule(from_ms(30), [&]() { ++count; });
  loop.run_until(from_ms(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), from_ms(20));
  loop.run_until(from_ms(40));
  EXPECT_EQ(count, 2);
}

TEST(TimerTest, RearmCancelsPrevious) {
  EventLoop loop;
  int fired = 0;
  TimeNs fired_at = -1;
  Timer t(&loop, [&]() {
    ++fired;
    fired_at = loop.now();
  });
  t.arm(from_ms(10));
  t.arm(from_ms(20));
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fired_at, from_ms(20));
}

TEST(TimerTest, CancelWorks) {
  EventLoop loop;
  bool fired = false;
  Timer t(&loop, [&]() { fired = true; });
  t.arm(from_ms(10));
  EXPECT_TRUE(t.armed());
  t.cancel();
  EXPECT_FALSE(t.armed());
  loop.run();
  EXPECT_FALSE(fired);
}

// --- drop tail ---

Packet make_packet(FlowId id, std::uint64_t seq, std::uint32_t size = 1500) {
  Packet p;
  p.flow_id = id;
  p.seq = seq;
  p.size_bytes = size;
  return p;
}

TEST(DropTailTest, FifoOrder) {
  DropTailQueue q(100000);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.enqueue(make_packet(1, i), 0));
  for (int i = 0; i < 5; ++i) {
    auto p = q.dequeue(0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, static_cast<std::uint64_t>(i));
  }
  EXPECT_FALSE(q.dequeue(0).has_value());
}

TEST(DropTailTest, DropsWhenFull) {
  DropTailQueue q(3000);  // room for two 1500B packets
  EXPECT_TRUE(q.enqueue(make_packet(1, 0), 0));
  EXPECT_TRUE(q.enqueue(make_packet(1, 1), 0));
  EXPECT_FALSE(q.enqueue(make_packet(1, 2), 0));
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.bytes(), 3000);
}

TEST(DropTailTest, ByteAccounting) {
  DropTailQueue q(10000);
  q.enqueue(make_packet(1, 0, 1000), 0);
  q.enqueue(make_packet(1, 1, 500), 0);
  EXPECT_EQ(q.bytes(), 1500);
  q.dequeue(0);
  EXPECT_EQ(q.bytes(), 500);
  q.dequeue(0);
  EXPECT_EQ(q.bytes(), 0);
}

TEST(DropTailTest, BufferSizing) {
  // 96 Mbit/s * 100 ms = 1.2 MB at 1 BDP.
  EXPECT_EQ(buffer_bytes_for_bdp(96e6, from_ms(100), 1.0), 1200000);
  EXPECT_EQ(buffer_bytes_for_bdp(96e6, from_ms(100), 2.0), 2400000);
  // Tiny buffers are floored.
  EXPECT_EQ(buffer_bytes_for_bdp(1e6, from_ms(1), 0.1), 3000);
  EXPECT_EQ(buffer_bytes_for_bdp(96e6, from_ms(100), 0.0), 3000);
}

TEST(DropTailDeathTest, BufferSizingRejectsBadProducts) {
  const char* kMsg = "buffer_bytes_for_bdp: rate/8 x rtt x multiple";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(buffer_bytes_for_bdp(96e6, from_ms(50), nan), kMsg);
  EXPECT_DEATH(buffer_bytes_for_bdp(nan, from_ms(50), 2.0), kMsg);
  EXPECT_DEATH(buffer_bytes_for_bdp(96e6, from_ms(50), inf), kMsg);
  EXPECT_DEATH(buffer_bytes_for_bdp(inf, from_ms(50), 2.0), kMsg);
  EXPECT_DEATH(buffer_bytes_for_bdp(96e6, from_ms(50), -1.0), kMsg);
  // Finite but past int64.
  EXPECT_DEATH(buffer_bytes_for_bdp(96e6, from_ms(50), 1e300), kMsg);
}

// --- PIE ---

TEST(PieTest, NoDropsWhenIdleQueue) {
  PieQueue::Config cfg;
  cfg.capacity_bytes = 1'000'000;
  cfg.link_rate_bps = 96e6;
  PieQueue q(cfg);
  // Light load: enqueue/dequeue alternately; delay stays ~0.
  TimeNs now = 0;
  int drops = 0;
  for (int i = 0; i < 1000; ++i) {
    now += from_ms(1);
    if (!q.enqueue(make_packet(1, i), now)) ++drops;
    q.dequeue(now);
  }
  EXPECT_EQ(drops, 0);
  EXPECT_NEAR(q.drop_probability(), 0.0, 1e-6);
}

TEST(PieTest, DropProbabilityRisesUnderSustainedDelay) {
  PieQueue::Config cfg;
  cfg.capacity_bytes = 10'000'000;
  cfg.link_rate_bps = 10e6;
  cfg.target_delay = from_ms(15);
  PieQueue q(cfg);
  TimeNs now = 0;
  // Fill to ~100 ms of delay and keep it there past the burst allowance.
  for (int i = 0; i < 2000; ++i) {
    now += from_ms(1);
    q.enqueue(make_packet(1, i), now);
    if (i % 2 == 0) q.dequeue(now);  // drain slower than arrival
  }
  EXPECT_GT(q.drop_probability(), 0.01);
}

TEST(PieTest, EstimatedDelayMatchesQueue) {
  PieQueue::Config cfg;
  cfg.capacity_bytes = 10'000'000;
  cfg.link_rate_bps = 12e6;  // 1500 B = 1 ms
  PieQueue q(cfg);
  for (int i = 0; i < 10; ++i) q.enqueue(make_packet(1, i), 0);
  EXPECT_EQ(q.estimated_delay(), from_ms(10));
}

// --- link ---

TEST(LinkTest, SerializationTiming) {
  EventLoop loop;
  BottleneckLink link(&loop, 12e6, std::make_unique<DropTailQueue>(1 << 20));
  std::vector<TimeNs> deliveries;
  link.set_delivery_handler(
      [&](const Packet&, TimeNs t) { deliveries.push_back(t); });
  // Two back-to-back 1500B packets at 12 Mbit/s: 1 ms each.
  link.enqueue(make_packet(1, 0));
  link.enqueue(make_packet(1, 1));
  loop.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], from_ms(1));
  EXPECT_EQ(deliveries[1], from_ms(2));
}

TEST(LinkTest, WorkConservingAfterIdle) {
  EventLoop loop;
  BottleneckLink link(&loop, 12e6, std::make_unique<DropTailQueue>(1 << 20));
  std::vector<TimeNs> deliveries;
  link.set_delivery_handler(
      [&](const Packet&, TimeNs t) { deliveries.push_back(t); });
  link.enqueue(make_packet(1, 0));
  loop.schedule(from_ms(10), [&]() { link.enqueue(make_packet(1, 1)); });
  loop.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], from_ms(1));
  EXPECT_EQ(deliveries[1], from_ms(11));  // idle gap then 1 ms service
}

TEST(LinkTest, DropHandlerOnOverflow) {
  EventLoop loop;
  BottleneckLink link(&loop, 12e6, std::make_unique<DropTailQueue>(3000));
  int drops = 0;
  link.set_drop_handler([&](const Packet&) { ++drops; });
  // First packet goes straight to the transmitter (dequeued immediately);
  // the queue holds two more; the fourth overflows.
  for (int i = 0; i < 4; ++i) link.enqueue(make_packet(1, i));
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(link.dropped_packets(), 1u);
}

TEST(LinkTest, QueueDelayEstimate) {
  EventLoop loop;
  BottleneckLink link(&loop, 12e6, std::make_unique<DropTailQueue>(1 << 20));
  for (int i = 0; i < 13; ++i) link.enqueue(make_packet(1, i));
  // One packet is in service; 12 are queued -> 12 ms.
  EXPECT_EQ(link.current_queue_delay(), from_ms(12));
}

TEST(LinkTest, RandomLossDropsFraction) {
  EventLoop loop;
  BottleneckLink link(&loop, 1e9, std::make_unique<DropTailQueue>(1 << 28));
  link.set_random_loss(0.1, 21);
  int drops = 0;
  link.set_drop_handler([&](const Packet&) { ++drops; });
  for (int i = 0; i < 10000; ++i) link.enqueue(make_packet(1, i));
  EXPECT_NEAR(drops / 10000.0, 0.1, 0.02);
}

// --- rate sampler ---

TEST(RateSamplerTest, ConstantRates) {
  RateSampler s;
  // 1500 B packets sent every 1 ms, acked 50 ms later: S = R = 12 Mbit/s.
  for (int i = 0; i < 100; ++i) {
    const TimeNs sent = from_ms(i);
    s.on_ack(sent, sent + from_ms(50), 1500);
  }
  const auto r = s.rates(50);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.send_bps, 12e6, 1e3);
  EXPECT_NEAR(r.recv_bps, 12e6, 1e3);
}

TEST(RateSamplerTest, ReceiveSlowerThanSend) {
  RateSampler s;
  // Sent every 1 ms but acked every 2 ms: R = S/2.
  for (int i = 0; i < 100; ++i) {
    s.on_ack(from_ms(i), from_ms(50 + 2 * i), 1500);
  }
  const auto r = s.rates(50);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.send_bps / r.recv_bps, 2.0, 0.01);
}

TEST(RateSamplerTest, InvalidUntilEnoughSamples) {
  RateSampler s;
  s.on_ack(0, from_ms(50), 1500);
  s.on_ack(from_ms(1), from_ms(51), 1500);
  EXPECT_FALSE(s.rates(10).valid);
}

TEST(RateSamplerTest, WindowUsesRecentPackets) {
  RateSampler s;
  // First 50 packets at 12 Mbit/s, next 50 at 6 Mbit/s.
  TimeNs t = 0;
  for (int i = 0; i < 50; ++i) {
    s.on_ack(t, t + from_ms(50), 1500);
    t += from_ms(1);
  }
  for (int i = 0; i < 50; ++i) {
    s.on_ack(t, t + from_ms(50), 1500);
    t += from_ms(2);
  }
  const auto r = s.rates(20);  // only recent (slow) packets
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.send_bps, 6e6, 1e5);
}

}  // namespace
}  // namespace nimbus::sim
