// Microbenchmarks (google-benchmark) for the primitives on the simulator's
// and detector's hot paths: FFT (radix-2 and Bluestein), Goertzel, the
// elasticity evaluation and per-report spectral path, the event loop,
// the per-ACK and per-delivery data structures, sweep cells (warm cache
// and cold compute), queue disciplines, and end-to-end scenario
// throughput.  Units, via items/sec:
//   *EventLoop*/*Timer* benches -> events processed (or scheduled) per sec
//   *AckPath*/*Delivery* benches -> ACK or delivery operations per second
//   *SweepCell* benches          -> sweep cells per second
//   *SimulatedSecond* benches    -> simulated seconds per wall second
//
// Every benchmark measures current code only.  scripts/bench_ab.sh builds
// this binary at a base commit and at the working tree and compares the
// two run by run; scripts/bench_report.sh records the numbers and gates
// the two same-binary pairs (warm vs cold sweep cell, counters on vs off).
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <filesystem>

#include "cc/cubic.h"
#include "core/elasticity.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/rate_sampler.h"
#include "sim/recorder.h"
#include "sim/seq_ring.h"
#include "spectral/fft.h"
#include "spectral/goertzel.h"
#include "util/rng.h"

namespace nimbus {
namespace {

std::vector<double> random_signal(std::size_t n) {
  util::Rng rng(5);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

void BM_FftRadix2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<spectral::Complex> data(n);
  util::Rng rng(7);
  for (auto& c : data) c = {rng.uniform(-1, 1), 0.0};
  for (auto _ : state) {
    auto copy = data;
    spectral::fft_radix2(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_FftRadix2)->Arg(256)->Arg(512)->Arg(4096);

void BM_FftBluestein500(benchmark::State& state) {
  const auto sig = random_signal(500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral::magnitude_spectrum(sig));
  }
}
BENCHMARK(BM_FftBluestein500);

void BM_Goertzel500(benchmark::State& state) {
  const auto sig = random_signal(500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral::goertzel_magnitude(sig, 25));
  }
}
BENCHMARK(BM_Goertzel500);

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
    sim::Timer rto(&loop);
    for (int i = 0; i < kRearms; ++i) {
      rto.arm_in(from_ms(200), [&fired]() { ++fired; });
    }
    loop.run_until(from_sec(1));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kRearms);
}
BENCHMARK(BM_TimerRearm);

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

// --- ACK path: outstanding-packet tracking ------------------------------

// Steady-state ACK clocking over a W-packet window on the seq-indexed ring
// the transport uses: every ACK retires the lowest outstanding sequence
// and sends a new one at the frontier; every 16th ACK opens a SACK hole
// (erase mid-window, later re-inserted as a retransmission) and runs the
// detect_losses scan over the hole region.  Items = ACKs.
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
      sink += s.rates_over_window(cwnd_bytes, 1500).send_bps;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kAcks);
}
BENCHMARK(BM_AckPathRateSamplerRing)->Arg(64)->Arg(256)->Arg(1024);

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
      p.enqueued_at = t - 5000;
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
  const exp::RunConfig serial;  // one job, no shard
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
  const exp::RunConfig serial;  // one job, no shard
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
