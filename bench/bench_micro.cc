// Microbenchmarks (google-benchmark) for the primitives on the simulator's
// and detector's hot paths: the elasticity evaluation and per-report
// spectral path, the event loop, the per-ACK and per-delivery data
// structures, sweep cells (warm cache and cold compute), queue
// disciplines, and end-to-end scenario throughput.  Units, via items/sec:
//   *EventLoop*/*Timer* benches -> events processed (or scheduled) per sec
//   *AckPath*/*Delivery* benches -> ACK or delivery operations per second
//   *SweepCell* benches          -> sweep cells per second
//   *TraceIngest* benches        -> trace lines loaded per second
//   *SimulatedSecond* benches    -> simulated seconds per wall second
//
// Every benchmark measures current code only.  scripts/bench_ab.sh builds
// this binary at a base commit and at the working tree and compares the
// two run by run; scripts/bench_report.sh records the numbers and gates
// the two same-binary pairs (warm vs cold sweep cell, counters on vs off).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>

#include "cc/cubic.h"
#include "core/elasticity.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/link_schedule.h"
#include "sim/loss_detector.h"
#include "sim/network.h"
#include "sim/rate_sampler.h"
#include "sim/recorder.h"
#include "sim/seq_ring.h"
#include "util/ring_deque.h"
#include "util/rng.h"

namespace nimbus {
namespace {

void BM_ElasticityEvaluate(benchmark::State& state) {
  core::ElasticityDetector det;
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) det.add_sample(rng.uniform(0, 1e8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.evaluate(5.0));
  }
}
BENCHMARK(BM_ElasticityEvaluate);

// --- per-report spectral path -------------------------------------------

// The detector work one Nimbus report costs in steady state: one z sample
// in, eta at both pulse frequencies (watchers evaluate f_pc AND f_pd every
// report), and the conflict check's band peak, on the production
// sliding-DFT ElasticityDetector.  Items = reports.
void BM_SpectralDetectorIncremental(benchmark::State& state) {
  constexpr int kReports = 256;
  core::ElasticityDetector det;
  util::Rng rng(5);
  std::size_t t = 0;
  auto z_sample = [&] {
    const double s =
        12e6 +
        6e6 * std::sin(2.0 * M_PI * 5.0 * static_cast<double>(t) / 100.0) +
        rng.normal(0.0, 8e5);
    ++t;
    return s;
  };
  for (int i = 0; i < 600; ++i) det.add_sample(z_sample());
  double sink = 0.0;
  for (auto _ : state) {
    for (int r = 0; r < kReports; ++r) {
      det.add_sample(z_sample());
      sink += det.evaluate(5.0).eta;
      sink += det.evaluate(6.0).eta;
      sink += det.magnitude_near(5.0);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kReports);
}
BENCHMARK(BM_SpectralDetectorIncremental);

// --- event loop ---------------------------------------------------------

// An ACK-sized payload (pointer + 48 bytes), the hottest real capture.
struct AckSizedEvent {
  std::uint64_t* counter;
  double pad[6];
  void operator()() const { ++*counter; }
};

// Steady-state throughput: a fixed population of self-rescheduling events
// (the shape of a long simulation — every transmission, ACK, and timer
// reschedules something).  The loop is warmed up first, so the pool and
// heap are at their high-water marks and the core runs its zero-allocation
// path.  This is the headline "events per second" number in BENCH_*.json.
// Items = events processed.
void steady_state_workload(benchmark::State& state,
                           obs::MetricsRegistry* metrics) {
  constexpr int kActive = 1024;          // concurrent pending events
  constexpr TimeNs kMaxGap = from_ms(2); // uniform delay in [1, 2 ms)
  sim::EventLoop loop;
  if (metrics != nullptr) loop.attach_metrics(metrics);
  std::uint64_t count = 0;
  struct Tick {
    sim::EventLoop* loop;
    std::uint64_t* count;
    std::uint64_t rng;  // xorshift64 stream, one per event chain
    double pad[4];      // pad to ACK size (56 bytes)
    void operator()() {
      ++*count;
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const TimeNs delay =
          1 + static_cast<TimeNs>(rng % static_cast<std::uint64_t>(kMaxGap));
      loop->schedule_in(delay, *this);
    }
  };
  for (int i = 0; i < kActive; ++i) {
    loop.schedule_in(1 + i,
                     Tick{&loop, &count,
                          0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1),
                          {}});
  }
  loop.run_until(loop.now() + from_ms(50));  // warm-up to steady state
  std::uint64_t processed = 0;
  for (auto _ : state) {
    const std::uint64_t before = loop.processed_events();
    loop.run_until(loop.now() + from_ms(20));
    processed += loop.processed_events() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  benchmark::DoNotOptimize(count);
}

void BM_EventLoopSteadyState(benchmark::State& state) {
  steady_state_workload(state, nullptr);
}
BENCHMARK(BM_EventLoopSteadyState);

// Counters-on twin of BM_EventLoopSteadyState: the same workload with a
// MetricsRegistry attached, so every fire bumps loop.events_fired and
// every reschedule a wheel/heap insert counter.  This is the telemetry
// overhead the PR gate holds to within 10% of the off number
// (scripts/bench_report.sh: pair floor 0.90).
void BM_EventLoopSteadyStateCountersOn(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  steady_state_workload(state, &metrics);
}
BENCHMARK(BM_EventLoopSteadyStateCountersOn);

// Schedule a burst of events at pseudo-random times, then drain.  The
// random times exercise real heap traffic (monotone times degenerate to
// append-only).  Items = events processed.
void BM_EventLoopScheduleFire(benchmark::State& state) {
  constexpr int kEvents = 4096;
  util::Rng rng(11);
  std::vector<TimeNs> delays(kEvents);
  for (auto& d : delays) {
    d = 1 + static_cast<TimeNs>(rng.uniform() * 1e9);
  }
  std::uint64_t count = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule_in(delays[static_cast<std::size_t>(i)],
                       AckSizedEvent{&count, {}});
    }
    loop.run_until(from_sec(2));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopScheduleFire);

// Schedule + cancel churn: each new event cancels the previous pending
// one, so all but the last are cancelled before firing (the transport
// RTO / pacing pattern).  Items = scheduled events.
void BM_EventLoopChurn(benchmark::State& state) {
  constexpr int kEvents = 4096;
  util::Rng rng(13);
  std::vector<TimeNs> delays(kEvents);
  for (auto& d : delays) {
    d = 1 + static_cast<TimeNs>(rng.uniform() * 1e9);
  }
  std::uint64_t count = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    std::uint64_t pending_id = 0;
    bool have_pending = false;
    for (int i = 0; i < kEvents; ++i) {
      if (have_pending) loop.cancel(pending_id);
      pending_id = loop.schedule_in(delays[static_cast<std::size_t>(i)],
                                    AckSizedEvent{&count, {}});
      have_pending = true;
    }
    loop.run_until(from_sec(2));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopChurn);

// Per-ACK RTO rearming: the timer is re-armed on every "ACK" and only
// fires once at the end.  Items = rearm operations.
void BM_TimerRearm(benchmark::State& state) {
  constexpr int kRearms = 4096;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    sim::Timer rto(&loop, [&fired]() { ++fired; });
    for (int i = 0; i < kRearms; ++i) rto.arm_in(from_ms(200));
    loop.run_until(from_sec(1));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kRearms);
}
BENCHMARK(BM_TimerRearm);

// Per-ACK pacing re-arm: a paced flow whose next send time has not moved
// re-arms its pacing timer to the same near deadline on every ACK, and the
// timer fires once.  The deadline stays in its wheel bucket, so each
// re-arm updates the slot in place.  Items = rearm operations.
void BM_TimerRearmSameBucket(benchmark::State& state) {
  constexpr int kRearms = 4096;
  std::uint64_t fired = 0;
  sim::EventLoop loop;
  sim::Timer pacing(&loop, [&fired]() { ++fired; });
  for (auto _ : state) {
    const TimeNs deadline = loop.now() + 250 * kNanosPerUs;
    for (int i = 0; i < kRearms; ++i) pacing.arm(deadline);
    loop.run_until(deadline);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kRearms);
}
BENCHMARK(BM_TimerRearmSameBucket);

// A phase start wakes every flow at once: k events at one deadline, which
// the loop drains as one batched equal-time run.  Items = events
// processed.
void BM_EventLoopSameTimeBurst(benchmark::State& state) {
  constexpr int kEvents = 4096;
  std::uint64_t count = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule(from_ms(5), AckSizedEvent{&count, {}});
    }
    loop.run_until(from_sec(1));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopSameTimeBurst);

// k events due inside one wheel bucket (2^13 ns), cancelled in a random
// order: a cancel unlinks its slot from the bucket in O(1), so the whole
// pass is O(k) (a bucket scan per cancel would make it O(k^2)).
// Items = cancelled events.
void BM_EventLoopSameBucketCancel(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  util::Rng rng(17);
  std::vector<std::size_t> cancel_order(k);
  for (std::size_t i = 0; i < k; ++i) cancel_order[i] = i;
  for (std::size_t i = k - 1; i > 0; --i) {
    std::swap(cancel_order[i],
              cancel_order[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  std::uint64_t count = 0;
  sim::EventLoop loop;
  std::vector<sim::EventId> ids(k);
  for (auto _ : state) {
    // The start of a bucket 1 ms ahead; every offset stays inside it.
    const TimeNs base = (loop.now() + from_ms(1)) >> 13 << 13;
    for (std::size_t i = 0; i < k; ++i) {
      ids[i] = loop.schedule(base + static_cast<TimeNs>(i % 4096),
                             AckSizedEvent{&count, {}});
    }
    for (std::size_t i : cancel_order) loop.cancel(ids[i]);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_EventLoopSameBucketCancel)->Arg(64)->Arg(1024);

// --- ACK path: outstanding-packet tracking ------------------------------

// Steady-state ACK clocking over a W-packet window on the seq-indexed ring
// the transport uses: every ACK retires the lowest outstanding sequence
// and sends a new one at the frontier; every 16th ACK opens a SACK hole
// (erase mid-window, later re-inserted as a retransmission) and walks the
// ring from its lowest sequence to just past the hole with for_each_in.
// Items = ACKs.
void BM_AckPathOutstandingRing(benchmark::State& state) {
  constexpr std::uint64_t kWindow = 256;
  constexpr int kAcks = 8192;
  struct Rec {
    TimeNs sent_at;
    bool retransmit;
  };
  sim::SeqRing<Rec> out;
  std::uint64_t frontier = 0;
  for (; frontier < kWindow; ++frontier) {
    out.insert(frontier, {static_cast<TimeNs>(frontier + 1), false});
  }
  std::uint64_t sink = 0;
  std::uint64_t hole = 0;
  bool have_hole = false;
  for (auto _ : state) {
    for (int a = 0; a < kAcks; ++a) {
      const std::uint64_t cum = frontier - kWindow;
      out.erase(cum);
      // No-op in the common hole-free case.
      while (!out.empty() && out.lowest() <= cum) out.erase(out.lowest());
      if (a % 16 == 7) {
        if (have_hole) {
          // Retransmit the hole.
          out.insert(hole, {static_cast<TimeNs>(hole + 1), false});
          have_hole = false;
        } else {
          hole = cum + kWindow / 2;
          out.erase(hole);  // SACK above a loss
          if (!out.empty()) {
            out.for_each_in(out.lowest(), hole + 3, [&](std::uint64_t, Rec& r) {
              sink += static_cast<std::uint64_t>(r.sent_at != 0);
            });
          }
          have_hole = true;
        }
      }
      out.insert(frontier, {static_cast<TimeNs>(frontier + 1), false});
      ++frontier;
    }
    benchmark::DoNotOptimize(sink);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * kAcks);
}
BENCHMARK(BM_AckPathOutstandingRing);

// Loss detection over a lossy window, the regime of fig26's Vivace cell:
// a 2048-packet flight on a synthetic ACK clock (one ACK per tick, so the
// RTT is 2048 ticks) where 30% of sends are dropped.  SACKs leave holes
// all over the window, each declared loss is re-sent young into the same
// window (and dropped again 30% of the time), and every ACK runs
// LossDetector::collect as the transport does.  Items = ACKs.
void BM_LossDetectLossyWindow(benchmark::State& state) {
  constexpr std::uint64_t kFlight = 2048;
  constexpr TimeNs kMinAge = kFlight - kFlight / 8;
  constexpr int kAcks = 8192;
  struct InFlight {
    std::uint64_t seq;
    bool dropped;
  };
  sim::SeqRing<sim::SentRecord> out;
  sim::LossDetector detector;
  util::RingDeque<InFlight> flight;
  util::RingDeque<std::uint64_t> retx;
  util::Rng rng(11);
  TimeNs now = 0;
  std::uint64_t snd_nxt = 0;
  std::uint64_t highest = 0;
  std::uint64_t lost = 0;
  auto lost_below = [&] { return highest >= 3 ? highest - 2 : 0; };
  auto send = [&] {
    std::uint64_t seq = snd_nxt;
    if (retx.empty()) {
      ++snd_nxt;
    } else {
      seq = retx.front();
      retx.pop_front();
    }
    out.insert(seq, detector.on_send(seq, now, lost_below()));
    flight.push_back({seq, rng.uniform() < 0.3});
  };
  // One tick: the oldest send's ACK arrives (unless it was dropped), loss
  // detection runs, and one packet goes out in its place.
  auto tick = [&] {
    ++now;
    const InFlight f = flight.front();
    flight.pop_front();
    if (!f.dropped) {
      out.erase(f.seq);
      highest = std::max(highest, f.seq);
    }
    if (lost_below() > 0 && !out.empty()) {
      for (std::uint64_t seq :
           detector.collect(out, lost_below(), now, kMinAge)) {
        out.erase(seq);
        retx.push_back(seq);
        ++lost;
      }
    }
    send();
  };
  for (std::uint64_t i = 0; i < kFlight; ++i) send();
  // Warm-up: every ring reaches its high-water mark before timing.
  for (int a = 0; a < 4 * kAcks; ++a) tick();
  for (auto _ : state) {
    for (int a = 0; a < kAcks; ++a) tick();
    benchmark::DoNotOptimize(lost);
  }
  state.SetItemsProcessed(state.iterations() * kAcks);
}
BENCHMARK(BM_LossDetectLossyWindow);

// --- ACK path: rate sampling --------------------------------------------

// The real per-ACK pattern: record the sample, then evaluate Eq. (2) over
// one cwnd of packets (Nimbus and BBR read the rates on every ACK).
// Items = ACKs.
void BM_AckPathRateSamplerRing(benchmark::State& state) {
  const double cwnd_bytes = state.range(0) * 1500.0;
  constexpr int kAcks = 4096;
  sim::RateSampler s;
  TimeNs sent = 0;
  TimeNs acked = from_ms(50);
  double sink = 0;
  for (auto _ : state) {
    for (int a = 0; a < kAcks; ++a) {
      sent += 1'000'000;
      acked += 1'000'000;
      s.on_ack(sent, acked, 1500);
      sink += s.rates_over_window(cwnd_bytes).send_bps;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kAcks);
}
BENCHMARK(BM_AckPathRateSamplerRing)->Arg(64)->Arg(256)->Arg(1024);

// Five fresh flows, ACKed in turn, each for its first kMaxHistory ACKs:
// every flow's sample history grows from empty to its cap, the cost each
// new flow pays once.  Items = ACKs.
void BM_AckPathRateSamplerFreshFlow(benchmark::State& state) {
  constexpr int kFlows = 5;
  constexpr auto kAcks = static_cast<int>(sim::RateSampler::kMaxHistory);
  double sink = 0;
  for (auto _ : state) {
    std::array<sim::RateSampler, kFlows> flows;
    TimeNs sent = 0;
    TimeNs acked = from_ms(50);
    for (int a = 0; a < kAcks; ++a) {
      sent += 1'000'000;
      acked += 1'000'000;
      for (sim::RateSampler& s : flows) s.on_ack(sent, acked, 1500);
    }
    for (const sim::RateSampler& s : flows) sink += s.rates(64).send_bps;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kFlows * kAcks);
}
BENCHMARK(BM_AckPathRateSamplerFreshFlow);

// --- delivery path ------------------------------------------------------

// Interleaved deliveries + RTT samples across 8 flows, one tracked, driven
// the way Network drives sim::Recorder: track, then wire each flow's ACK
// handler once to its rtt_series() pointer (null for an untracked flow,
// which Network gives no handler at all).  Each iteration records one
// recorder lifetime (fresh object, 32k deliveries) so successive
// iterations measure the same state shape.  Items = deliveries.
void BM_DeliveryPathRecorderFlat(benchmark::State& state) {
  constexpr int kDeliveries = 32768;
  sim::Packet p;
  p.size_bytes = 1500;
  for (auto _ : state) {
    sim::Recorder rec;
    rec.track_flow(1);
    std::array<util::TimeSeries*, 9> rtt{};
    for (sim::FlowId f = 1; f < rtt.size(); ++f) rtt[f] = rec.rtt_series(f);
    TimeNs t = 0;
    for (int i = 0; i < kDeliveries; ++i) {
      t += 10000;
      p.flow_id = static_cast<sim::FlowId>(1 + (i & 7));
      rec.on_delivery(p, t);
      if (util::TimeSeries* s = rtt[p.flow_id]) s->add(t, 50.0);  // ms
    }
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(state.iterations() * kDeliveries);
}
BENCHMARK(BM_DeliveryPathRecorderFlat);

// One flow's delivered-bytes counter at 8000 pkt/s (a 96 Mbit/s flow):
// ~8 adds per 1 ms bucket, so most adds overwrite the last sample.  Items
// = adds.
void BM_DeliveryByteCounterBucketed(benchmark::State& state) {
  constexpr int kAdds = 32768;
  constexpr TimeNs kSpacing = 125'000;
  std::int64_t sink = 0;
  for (auto _ : state) {
    util::ByteCounter c;
    TimeNs t = 0;
    for (int i = 0; i < kAdds; ++i) {
      t += kSpacing;
      c.add(t, 1500);
    }
    // The consumer side: one per-second reduction, as the benches do.
    sink += static_cast<std::int64_t>(
        c.bucket_rates_bps(0, kAdds * kSpacing, from_sec(1)).size());
    sink += c.total();
    benchmark::DoNotOptimize(sink);
    benchmark::DoNotOptimize(c.samples());
  }
  state.SetItemsProcessed(state.iterations() * kAdds);
}
BENCHMARK(BM_DeliveryByteCounterBucketed);

// --- trace ingest --------------------------------------------------------

// Mahimahi trace ingest, the set-up cost of every trace-driven link: a
// seeded 60 s trace at 48 Mbit/s (~240k lines, ~1.4 MB) whose rate
// follows a mean-reverting log-rate walk within +/-25%, shaped like
// perfbench's varlink traces, is written to a temp file once and loaded
// by RateSchedule::from_trace_file at 1 s buckets.  Items = trace lines.
void BM_TraceIngest(benchmark::State& state) {
  namespace fs = std::filesystem;
  constexpr double kMu = 48e6, kPktBits = 1504 * 8;
  constexpr int kLenMs = 60'000, kStepMs = 100;
  util::Rng rng(29);
  std::vector<std::int64_t> ms;
  double x = 0.0, credit = 0.0, rate = kMu;
  for (int t = 0; t < kLenMs; ++t) {
    if (t % kStepMs == 0) {
      x = std::clamp(0.95 * x + 0.1 * std::sqrt(0.1) * rng.normal(), -0.25,
                     0.25);
      rate = kMu * std::exp(x);
    }
    credit += rate / kPktBits / 1000.0;
    for (; credit >= 1.0; credit -= 1.0) ms.push_back(t);
  }
  const fs::path path =
      fs::temp_directory_path() / "nimbus-bench-trace-ingest.trace";
  sim::write_trace_file(path.string(), ms);
  sim::RateSchedule::TraceConfig cfg;
  cfg.bucket = from_sec(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::RateSchedule::from_trace_file(path.string(), cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ms.size()));
  fs::remove(path);
}
BENCHMARK(BM_TraceIngest)->Unit(benchmark::kMicrosecond);

// --- sweep cells: warm disk cache vs cold compute -----------------------

// The content-addressed sweep engine: a cell that is in the result cache
// costs one small-file read + checksum instead of a network build and
// event-loop run.  Cold runs the real simulation (cache off); warm serves
// the identical cells from a pre-populated cache directory.  Both run the
// same run_scenarios_cached entry point single-threaded, so the ratio is
// the per-cell memoisation speedup.  Items = sweep cells.
std::vector<exp::ScenarioSpec> sweep_cell_specs() {
  std::vector<exp::ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    exp::ScenarioSpec spec;
    spec.name = "bench/sweep-cell";
    spec.mu_bps = 96e6;
    spec.duration = from_sec(2);
    spec.protagonist.use_nimbus_config = true;
    spec.cross.push_back(exp::CrossSpec::poisson(24e6, 2));
    spec.cross.push_back(exp::CrossSpec::flow("cubic", 3));
    specs.push_back(spec.with_seed(exp::derive_seed(31, i)));
  }
  return specs;
}

exp::CellResult sweep_cell_collect(const exp::ScenarioSpec& spec,
                                   exp::ScenarioRun& run) {
  return exp::CellResult::scalar(
      run.built.net->recorder().delivered(1).rate_bps(from_sec(1),
                                                      spec.duration));
}

void BM_SweepCellWarmCache(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto specs = sweep_cell_specs();
  const fs::path dir =
      fs::temp_directory_path() / "nimbus-bench-sweep-cache";
  fs::remove_all(dir);
  const exp::RunConfig serial;  // one job
  {
    exp::ResultCache warmup(dir.string(), exp::ResultCache::Mode::kReadWrite);
    exp::run_scenarios_cached(specs, sweep_cell_collect, nullptr, nullptr,
                              serial, warmup);
  }
  exp::ResultCache cache(dir.string(), exp::ResultCache::Mode::kRead);
  for (auto _ : state) {
    const auto cells = exp::run_scenarios_cached(
        specs, sweep_cell_collect, nullptr, nullptr, serial, cache);
    benchmark::DoNotOptimize(cells);
  }
  if (cache.stats().misses > 0) {
    state.SkipWithError("warm cache missed; measurement invalid");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_SweepCellWarmCache);

void BM_SweepCellColdCompute(benchmark::State& state) {
  const auto specs = sweep_cell_specs();
  exp::ResultCache off("", exp::ResultCache::Mode::kOff);
  const exp::RunConfig serial;  // one job
  for (auto _ : state) {
    const auto cells = exp::run_scenarios_cached(
        specs, sweep_cell_collect, nullptr, nullptr, serial, off);
    benchmark::DoNotOptimize(cells);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_SweepCellColdCompute)->Unit(benchmark::kMillisecond);

// --- queue disc ---------------------------------------------------------

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  sim::DropTailQueue q(1 << 24);
  sim::Packet p;
  p.size_bytes = 1500;
  for (auto _ : state) {
    q.enqueue(p, 0);
    benchmark::DoNotOptimize(q.dequeue(0));
  }
}
BENCHMARK(BM_DropTailEnqueueDequeue);

// --- end-to-end scenario throughput -------------------------------------

void BM_SimulatedSecondCubic(benchmark::State& state) {
  // Cost of simulating one second of a saturated 96 Mbit/s link.
  for (auto _ : state) {
    sim::Network net(96e6, 1 << 21);
    sim::TransportFlow::Config fc;
    fc.id = 1;
    fc.rtt_prop = from_ms(50);
    net.add_flow(fc, std::make_unique<cc::Cubic>());
    net.run_until(from_sec(1));
    benchmark::DoNotOptimize(net.recorder().delivered(1).total());
  }
  state.SetItemsProcessed(state.iterations());  // simulated seconds
}
BENCHMARK(BM_SimulatedSecondCubic)->Unit(benchmark::kMillisecond);

void BM_SimulatedSecondScenario(benchmark::State& state) {
  // A fig08-style scenario slice: Nimbus protagonist + Poisson + Cubic
  // cross traffic on 96 Mbit/s, 10 simulated seconds per iteration.
  // items/sec = simulated seconds per wall second.
  constexpr double kSimSeconds = 10.0;
  exp::ScenarioSpec spec;
  spec.name = "bench/scenario-slice";
  spec.mu_bps = 96e6;
  spec.duration = from_sec(kSimSeconds);
  spec.protagonist.use_nimbus_config = true;
  spec.cross.push_back(exp::CrossSpec::poisson(16e6, 2));
  spec.cross.push_back(exp::CrossSpec::flow("cubic", 3));
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::ScenarioRun run = exp::run_scenario(spec);
    events += run.built.net->loop().processed_events();
    benchmark::DoNotOptimize(run.built.net->loop().processed_events());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSimSeconds));
  state.counters["events_per_sim_sec"] = benchmark::Counter(
      static_cast<double>(events) /
      (static_cast<double>(state.iterations()) * kSimSeconds));
}
BENCHMARK(BM_SimulatedSecondScenario)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nimbus

BENCHMARK_MAIN();
