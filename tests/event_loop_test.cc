// Tests for the allocation-free event core: FIFO determinism, O(1)
// cancellation via generation tags, the Timer rearm fast path, the
// steady-state zero-allocation guarantee (via a counting operator-new
// hook), and a golden-value regression pinning simulation output to the
// seed implementation bit for bit.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
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

namespace nimbus {
namespace {

using sim::EventCallback;
using sim::EventId;
using sim::EventLoop;
using sim::Timer;

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

// --- EventCallback ------------------------------------------------------

TEST(EventCallbackTest, InlineForSmallCaptures) {
  int x = 0;
  EventCallback cb([&x]() { ++x; });
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(x, 1);
}

TEST(EventCallbackTest, HeapFallbackForLargeCaptures) {
  struct Big {
    double payload[16];
  };
  Big big{};
  big.payload[0] = 42.0;
  double got = 0;
  EventCallback cb([big, &got]() { got = big.payload[0]; });
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(got, 42.0);
}

TEST(EventCallbackTest, MoveTransfersOwnership) {
  int calls = 0;
  EventCallback a([&calls]() { ++calls; });
  EventCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

// --- ordering & cancellation -------------------------------------------

TEST(EventCoreTest, SameTimeFiresInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    loop.schedule(from_ms(5), [&order, i]() { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventCoreTest, CallbackCanCancelLaterSameTimeEvent) {
  // The drain extracts the whole equal-time run before firing it; a
  // callback cancelling a later member of the same run must still win.
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids(4, 0);
  ids[1] = loop.schedule(from_ms(5), [&]() {
    order.push_back(1);
    loop.cancel(ids[2]);
  });
  ids[2] = loop.schedule(from_ms(5), [&order]() { order.push_back(2); });
  ids[3] = loop.schedule(from_ms(5), [&order]() { order.push_back(3); });
  loop.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventCoreTest, CallbackCanRescheduleLaterSameTimeEvent) {
  // Rescheduling a later same-time event from inside the run gives it a
  // fresh FIFO position after everything already queued at that time.
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids(4, 0);
  ids[1] = loop.schedule(from_ms(5), [&]() {
    order.push_back(1);
    ids[2] = loop.reschedule(ids[2], from_ms(5));  // same time, new position
  });
  ids[2] = loop.schedule(from_ms(5), [&order]() { order.push_back(2); });
  ids[3] = loop.schedule(from_ms(5), [&order]() { order.push_back(3); });
  loop.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order[2], 2);
}

TEST(EventCoreTest, SameTimeScheduleFromCallbackFiresAfterRun) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(from_ms(5), [&]() {
    order.push_back(1);
    loop.schedule(from_ms(5), [&order]() { order.push_back(9); });
  });
  loop.schedule(from_ms(5), [&order]() { order.push_back(2); });
  loop.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 9);
}

TEST(EventCoreTest, StopMidBurstKeepsRemainderPending) {
  // stop() from inside an equal-time run: the unfired remainder must
  // survive (re-linked into the wheel) and fire on the next run_until.
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(from_ms(5), [&loop, &order, i]() {
      order.push_back(i);
      if (i == 3) loop.stop();
    });
  }
  loop.run_until(from_sec(1));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(loop.pending_events(), 6u);
  loop.run_until(from_sec(1));
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventCoreTest, CancelledSameTimeEventsAreSkipped) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(
        loop.schedule(from_ms(5), [&order, i]() { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) loop.cancel(ids[i]);
  EXPECT_EQ(loop.pending_events(), 5u);
  loop.run();
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i));
  }
}

TEST(EventCoreTest, StaleIdCannotCancelRecycledSlot) {
  EventLoop loop;
  bool a_ran = false, b_ran = false;
  const EventId a = loop.schedule(from_ms(1), [&a_ran]() { a_ran = true; });
  loop.cancel(a);
  // b reuses a's slot (single-slot free list).
  const EventId b = loop.schedule(from_ms(2), [&b_ran]() { b_ran = true; });
  loop.cancel(a);  // stale generation: must not touch b
  loop.cancel(a);  // double cancel: no-op
  loop.run();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
  EXPECT_EQ(b & 0xfffffu, a & 0xfffffu);  // recycled the same slot
  EXPECT_NE(b, a);                        // under a fresh id
}

TEST(EventCoreTest, CancelAfterFireIsNoop) {
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.schedule(from_ms(1), [&fired]() { ++fired; });
  loop.run_until(from_ms(1));
  EXPECT_EQ(fired, 1);
  loop.cancel(id);  // must not disturb anything
  int later = 0;
  loop.schedule(from_ms(2), [&later]() { ++later; });
  loop.run_until(from_ms(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(later, 1);
}

TEST(EventCoreTest, RescheduleTakesFreshFifoPosition) {
  EventLoop loop;
  std::vector<char> order;
  const EventId x = loop.schedule(from_ms(1), [&order]() { order.push_back('x'); });
  loop.schedule(from_ms(5), [&order]() { order.push_back('y'); });
  loop.reschedule(x, from_ms(5));  // same time as y, but scheduled later
  loop.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'y');
  EXPECT_EQ(order[1], 'x');
}

TEST(EventCoreTest, SlotPoolIsRecycled) {
  EventLoop loop;
  int count = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) {
      loop.schedule_in(from_ms(1), [&count]() { ++count; });
    }
    loop.run_until(loop.now() + from_ms(2));
  }
  EXPECT_EQ(count, 500);
  // All rounds after the first reuse the same 10 slots.
  EXPECT_LE(loop.allocated_slots(), 10u);
}

// --- Timer --------------------------------------------------------------

TEST(TimerTest, RearmWhileArmedMovesDeadline) {
  EventLoop loop;
  int fired = 0;
  Timer t(&loop);
  t.arm(from_ms(10), [&fired]() { fired += 1; });
  t.arm(from_ms(30), [&fired]() { fired += 100; });  // fast path: rearm
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.deadline(), from_ms(30));
  loop.run_until(from_ms(20));
  EXPECT_EQ(fired, 0);  // first arm was superseded
  loop.run_until(from_ms(40));
  EXPECT_EQ(fired, 100);
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, RearmFromInsideCallback) {
  EventLoop loop;
  int ticks = 0;
  Timer t(&loop);
  std::function<void()> tick = [&]() {
    if (++ticks < 5) t.arm_in(from_ms(10), tick);
  };
  t.arm_in(from_ms(10), tick);
  loop.run_until(from_sec(1));
  EXPECT_EQ(ticks, 5);
}

TEST(TimerTest, CancelRearmStress) {
  // Deterministic stress on both sides of the wheel horizon (~134 ms):
  // near rounds (deadlines <= 90 ms, 100 ms rounds) and far rounds
  // (deadlines <= 900 ms, 1 s rounds).  Random arm/rearm/cancel ops hit
  // random timers at the round start and again mid-round, so re-arms move
  // deadlines both later (the far-anchor path) and earlier (the eager
  // fallback), across the horizon in both directions, and while the
  // window slide has already pulled some anchors.  Deadlines sit on a
  // coarse grid so ties are common.  Every firing's time and position
  // must match a reference model: the timers armed when the clock passes
  // their deadline fire in (final deadline, order of last arm) order.
  constexpr int kTimers = 16;
  constexpr int kRoundsPerRange = 100;
  struct ModelTimer {
    bool armed = false;
    TimeNs deadline = 0;
    std::uint64_t arm_order = 0;
  };
  struct Firing {
    int timer;
    TimeNs at;
    bool operator==(const Firing& o) const {
      return timer == o.timer && at == o.at;
    }
  };
  EventLoop loop;
  util::Rng rng(1234);
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(&loop));
  }
  std::vector<ModelTimer> model(kTimers);
  std::vector<Firing> fired;
  std::vector<Firing> expected;
  std::uint64_t arms = 0;

  const auto random_ops = [&](int count, TimeNs max_delay, TimeNs grid) {
    for (int op = 0; op < count; ++op) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, kTimers - 1));
      if (rng.uniform() < 0.3) {
        timers[i]->cancel();
        model[i].armed = false;
        continue;
      }
      const TimeNs delay = grid * rng.uniform_int(1, max_delay / grid);
      timers[i]->arm_in(delay, [&fired, &loop, i]() {
        fired.push_back({static_cast<int>(i), loop.now()});
      });
      model[i] = {true, loop.now() + delay, ++arms};
    }
  };
  const auto run_until_expecting = [&](TimeNs t_end) {
    std::vector<int> due;
    for (int i = 0; i < kTimers; ++i) {
      const ModelTimer& m = model[static_cast<std::size_t>(i)];
      if (m.armed && m.deadline <= t_end) due.push_back(i);
    }
    std::sort(due.begin(), due.end(), [&model](int a, int b) {
      const ModelTimer& ma = model[static_cast<std::size_t>(a)];
      const ModelTimer& mb = model[static_cast<std::size_t>(b)];
      return ma.deadline != mb.deadline ? ma.deadline < mb.deadline
                                        : ma.arm_order < mb.arm_order;
    });
    for (int i : due) {
      expected.push_back({i, model[static_cast<std::size_t>(i)].deadline});
      model[static_cast<std::size_t>(i)].armed = false;
    }
    loop.run_until(t_end);
  };

  for (const TimeNs range : {from_ms(90), from_ms(900)}) {
    const TimeNs round_len = range == from_ms(90) ? from_ms(100) : from_sec(1);
    const TimeNs grid = range / 18;
    for (int round = 0; round < kRoundsPerRange; ++round) {
      const TimeNs start = loop.now();
      random_ops(48, range, grid);
      run_until_expecting(start + round_len / 2);
      // Mid-round deadlines still land inside the round.
      random_ops(16, range / 2, grid);
      run_until_expecting(start + round_len);
    }
  }
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t k = 0; k < fired.size(); ++k) {
    ASSERT_EQ(fired[k], expected[k]) << "firing #" << k;
  }
  EXPECT_GT(fired.size(), 1000u);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(TimerTest, FarRearmKeepsOneHeapAnchor) {
  // Pins the O(1) far re-arm: an RTO-like timer re-armed 200 ms out (past
  // the ~134 ms wheel horizon) on every "ACK" of a 100 us ACK clock must
  // not cost a far-heap push per re-arm.  Its first far entry stays as the
  // anchor and is re-pushed only when the window slide reaches it — about
  // once per (200 - 134) ms of simulated time, ~16 times over the 1 s run.
  // Mid-sequence the timer is cancelled and its slot reused by another far
  // event, so the old anchor is left behind as a tombstone.
  constexpr int kAcks = 10000;
  constexpr TimeNs kAckGap = 100 * kNanosPerUs;
  EventLoop loop;
  obs::MetricsRegistry metrics;
  loop.attach_metrics(&metrics);
  const obs::Counter heap_inserts = metrics.counter("loop.far_heap_inserts");

  Timer rto(&loop);
  int rto_fires = 0;
  TimeNs rto_fired_at = -1;
  int other_fires = 0;
  TimeNs other_fired_at = -1;
  TimeNs other_deadline = 0;
  TimeNs last_deadline = 0;
  int acks = 0;
  std::function<void()> on_ack = [&]() {
    if (++acks < kAcks) loop.schedule_in(kAckGap, [&on_ack]() { on_ack(); });
    if (acks == kAcks / 2) {
      rto.cancel();  // frees the slot; the free list hands it out next
      other_deadline = loop.now() + from_ms(300);
      loop.schedule(other_deadline, [&]() {
        ++other_fires;
        other_fired_at = loop.now();
      });
    }
    rto.arm_in(from_ms(200), [&]() {
      ++rto_fires;
      rto_fired_at = loop.now();
    });
    last_deadline = rto.deadline();
  };
  loop.schedule_in(kAckGap, [&on_ack]() { on_ack(); });
  loop.run_until(from_sec(2));

  EXPECT_EQ(acks, kAcks);
  EXPECT_LE(*heap_inserts.v, 20u);  // one per re-arm would be 10000
  EXPECT_EQ(rto_fires, 1);
  EXPECT_EQ(rto_fired_at, last_deadline);
  EXPECT_EQ(other_fires, 1);
  EXPECT_EQ(other_fired_at, other_deadline);
  EXPECT_EQ(loop.pending_events(), 0u);
}

// --- zero-allocation guarantee -----------------------------------------

TEST(EventCoreTest, SteadyStateSchedulingDoesNotAllocate) {
  EventLoop loop;
  int count = 0;
  const auto pattern = [&]() {
    // Mixed steady-state load: plain schedule+fire, schedule+cancel, and
    // an SBO-sized capture (pointer + 40 payload bytes).
    struct Payload {
      int* counter;
      double pad[5];
      void operator()() const { ++*counter; }
    };
    for (int i = 0; i < 256; ++i) {
      loop.schedule_in(from_ms(1) + i, Payload{&count, {}});
      const EventId id = loop.schedule_in(from_ms(2) + i, Payload{&count, {}});
      loop.cancel(id);
    }
    loop.run_until(loop.now() + from_ms(10));
  };
  pattern();  // warm-up: grows heap/slot vectors to their high-water mark
  const std::uint64_t before = alloc_count();
  pattern();
  EXPECT_EQ(alloc_count(), before) << "steady-state schedule/cancel must "
                                      "perform no heap allocations";
}

TEST(EventCoreTest, TimerRearmDoesNotAllocate) {
  EventLoop loop;
  Timer t(&loop);
  std::uint64_t fired = 0;
  const auto pattern = [&]() {
    for (int i = 0; i < 256; ++i) {
      // Typical RTO usage: rearm while armed on every ACK.
      t.arm_in(from_ms(200), [&fired]() { ++fired; });
    }
    loop.run_until(loop.now() + from_sec(1));
  };
  pattern();
  const std::uint64_t before = alloc_count();
  pattern();
  EXPECT_EQ(alloc_count(), before) << "Timer::arm_in rearm must perform no "
                                      "heap allocations";
  EXPECT_EQ(fired, 2u);  // one fire per pattern invocation
}

// --- golden regression ---------------------------------------------------

// Exact output of this scenario under the seed event core (captured from
// commit 80dcab9's build; see ISSUE 2).  Any event reordering, RNG drift,
// or floating-point change in the rewrite shows up here as a hard failure.
TEST(EventCoreTest, GoldenScenarioBitIdenticalToSeed) {
  exp::ScenarioSpec spec;
  spec.name = "golden";
  spec.mu_bps = 48e6;
  spec.rtt = from_ms(50);
  spec.buffer_bdp = 2.0;
  spec.duration = from_sec(20);
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.record_rtt = true;
  spec.cross.push_back(exp::CrossSpec::poisson(8e6, 2));
  spec.cross.push_back(exp::CrossSpec::flow("cubic", 3, from_sec(5)));

  exp::ScenarioRun run = exp::run_scenario(spec);
  auto& net = *run.built.net;
  EXPECT_EQ(net.loop().processed_events(), 191116u);
  EXPECT_EQ(net.recorder().delivered(1).total(), 40747500);
  EXPECT_EQ(net.recorder().delivered(2).total(), 19888500);
  EXPECT_EQ(net.recorder().delivered(3).total(), 58378500);
  EXPECT_EQ(net.recorder().total_drops(), 1339u);
  const auto& q = net.recorder().probed_queue_delay();
  EXPECT_EQ(q.size(), 2000u);
  EXPECT_EQ(q.mean_in(0, spec.duration).value(), 55.012256128064031);
  const auto buckets =
      net.recorder().rtt_samples(1).bucket_means(0, spec.duration,
                                                 from_sec(5));
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 62.040456583453654);
  EXPECT_EQ(buckets[1], 111.60520900085015);
  EXPECT_EQ(buckets[2], 106.46282495072045);
  EXPECT_EQ(buckets[3], 123.08527478603838);
  EXPECT_EQ(run.mode_log->series().size(), 2000u);
}

// Multi-flow loss-heavy companion (ISSUE 3): random link loss plus three
// cross flows exercise the ring transport's SACK holes, retransmissions,
// and scoreboard growth under contention.  Values originally captured from
// the PR 2 build (std::map/std::set transport, deque rate sampler, map
// recorder); re-pinned in PR 6 when the detector switched from symmetric
// to periodic Hann (the eta shift flips a few Nimbus mode decisions, which
// changes the protagonist's trajectory in this contended scenario).
TEST(EventCoreTest, GoldenLossHeavyScenarioBitIdenticalToPr2) {
  exp::ScenarioSpec spec;
  spec.name = "golden-lossy";
  spec.mu_bps = 48e6;
  spec.rtt = from_ms(40);
  spec.buffer_bdp = 0.8;
  spec.random_loss = 0.003;
  spec.duration = from_sec(20);
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.record_rtt = true;
  spec.cross.push_back(exp::CrossSpec::flow("cubic", 2));
  spec.cross.push_back(exp::CrossSpec::flow("reno", 3, from_sec(4)));
  spec.cross.push_back(exp::CrossSpec::poisson(6e6, 4));

  exp::ScenarioRun run = exp::run_scenario(spec);
  auto& net = *run.built.net;
  EXPECT_EQ(net.loop().processed_events(), 186158u);
  EXPECT_EQ(net.recorder().delivered(1).total(), 55482000);
  EXPECT_EQ(net.recorder().delivered(2).total(), 23115000);
  EXPECT_EQ(net.recorder().delivered(3).total(), 12406500);
  EXPECT_EQ(net.recorder().delivered(4).total(), 15246000);
  EXPECT_EQ(net.recorder().total_drops(), 761u);
  EXPECT_EQ(
      net.recorder().probed_queue_delay().mean_in(0, spec.duration).value(),
      7.7336168084042018);
  const auto buckets = net.recorder().rtt_samples(1).bucket_means(
      0, spec.duration, from_sec(5));
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 53.134155924069844);
  EXPECT_EQ(buckets[1], 45.344368198615754);
  EXPECT_EQ(buckets[2], 47.060538747584118);
  EXPECT_EQ(buckets[3], 51.510750752522938);
  EXPECT_EQ(run.built.protagonist->lost_packets(), 247u);
  EXPECT_EQ(run.built.protagonist->rto_count(), 0u);
}

}  // namespace
}  // namespace nimbus
