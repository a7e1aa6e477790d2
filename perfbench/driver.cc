// Benchmark driver: runs one workload's scenario sweep against the nimbus
// library for a fixed wall-clock budget and prints one JSON object of raw
// measurements as the last line of stdout.  perfbench/run.py builds this
// binary, runs it, and reduces the raw samples to the reported metrics.
//
//   perfbench_driver --workload <classes|phases|varlink|impairment>
//                    --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Every input (cell parameters, scenario seeds, generated link traces)
// derives from --seed alone.  A run has three phases:
//   1. inputs: generate the sweep's link traces into --work-dir;
//   2. set-up: build the cell specs and assemble every cell's network
//      (exp::build_network, which parses trace files), several times;
//   3. measure: run whole sweeps until --seconds have elapsed (at least
//      kMinSweeps), timing each cell and checking that every repeat of a
//      cell reproduces its first outcome bit for bit.
// With --trace 1 the simulator's counters are on (NIMBUS_OBS=counters, set
// by run.py) and the driver adds outside-in spans around the calls into
// each layer: scenario assembly, the event loop, scoring, teardown, spec
// canonicalization, the result cache, and a replay of each cell's z(t)
// samples through a fresh ElasticityDetector.
//
// All timings are thread CPU time.  Host speed on a shared machine drifts by
// tens of percent within seconds, so a fixed reference kernel
// (reference_kernel) runs before and after every cell and every set-up
// repetition, and run.py scales each time by the kernel's.  The link rate
// is the same in every cell (kMu): simulated work then depends on the
// workload, not on the seed, which only moves RNG streams and small
// parameter draws.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/elasticity.h"
#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/spec_canon.h"
#include "sim/link_schedule.h"

namespace {

using namespace nimbus;
using Clock = std::chrono::steady_clock;

// Keeps the results of timed reference work observable.
volatile double g_sink = 0;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Fixed reference work timed around every cell and set-up, shaped like the
/// simulator's own: pushes and pops on a binary heap of random keys (the
/// event queue) and a one-bin sliding DFT over a 512-sample ring (the
/// detector).  Returns the thread CPU seconds it took.
double reference_kernel() {
  const double t0 = thread_cpu_s();
  std::vector<std::uint64_t> heap;
  heap.reserve(1 << 12);
  std::vector<double> ring(512, 0.0);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  double re = 0, im = 0;
  for (int i = 0; i < 50000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() >= (1 << 12)) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      acc += heap.back();
      heap.pop_back();
    }
    const double v = static_cast<double>(x >> 40);
    const double delta = v - ring[i & 511];
    ring[i & 511] = v;
    const double c = std::cos(0.0123 * i), sn = std::sin(0.0123 * i);
    const double nr = (re + delta) * c - im * sn;
    im = (re + delta) * sn + im * c;
    re = nr;
  }
  g_sink = g_sink + static_cast<double>(acc & 0xff) + re + im;
  return thread_cpu_s() - t0;
}

constexpr int kMinSweeps = 2;
constexpr std::size_t kSetupReps = 25, kMinSetupReps = 5;
constexpr double kSetupBudgetS = 1.5;
constexpr double kMu = 48e6;
// Scoring starts after one FFT window plus smoothing (exp::score_accuracy).
constexpr TimeNs kWarmup = from_sec(10);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed must be an integer");
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) {
        usage("--seconds must be a positive number");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 ||
      a.work_dir.empty()) {
    usage("--workload, --seed, --seconds and --work-dir are required");
  }
  return a;
}

/// The benchmark's own input stream (splitmix64), so cell parameters depend
/// on --seed and nothing else.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : s_(exp::mix_seed(seed ^ 0x5eedULL)) {}
  std::uint64_t next() { return s_ = exp::mix_seed(s_); }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  double normal() {
    const double u1 = uniform(1e-12, 1.0), u2 = uniform(0.0, 1.0);
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// A stretch of simulated time whose mode decisions are scored against a
/// known truth: is elastic cross traffic present?
struct Window {
  TimeNs t0, t1;
  bool elastic;
};

struct Cell {
  exp::ScenarioSpec spec;
  std::vector<Window> truth;
};

exp::ScenarioSpec nimbus_spec(const std::string& name, TimeNs duration,
                              std::uint64_t seed) {
  exp::ScenarioSpec spec;
  spec.name = name;
  spec.mu_bps = kMu;
  spec.duration = duration;
  spec.seed = seed;
  spec.protagonist.use_nimbus_config = true;
  spec.protagonist.nimbus.known_mu_bps = kMu;
  return spec;
}

/// A cell with one cross class for its whole duration: poisson or cbr
/// (inelastic), or a congestion-controlled scheme, or "mix" (Poisson plus
/// NewReno; elastic).
Cell constant_cell(const std::string& workload, const std::string& kind,
                   double share, TimeNs cross_rtt, std::uint64_t seed) {
  Cell c;
  c.spec = nimbus_spec(workload + "/" + kind, from_sec(30), seed);
  exp::ScenarioSpec& spec = c.spec;
  if (kind == "poisson") {
    spec.cross.push_back(exp::CrossSpec::poisson(share * kMu, 2));
  } else if (kind == "cbr") {
    spec.cross.push_back(exp::CrossSpec::cbr(share * kMu, 2));
  } else if (kind == "mix") {
    spec.cross.push_back(exp::CrossSpec::poisson(share * kMu / 2, 2));
    exp::CrossSpec f = exp::CrossSpec::flow("newreno", 3);
    f.rtt = cross_rtt;
    spec.cross.push_back(f);
  } else {
    exp::CrossSpec f = exp::CrossSpec::flow(kind, 2);
    f.rtt = cross_rtt;
    spec.cross.push_back(f);
  }
  c.truth = {{kWarmup, spec.duration, kind != "poisson" && kind != "cbr"}};
  return c;
}

// Constant-µ classification grid (Table 1 / Fig. 15): every cross class
// the detector must tell apart, at seed-drawn loads and cross RTTs.
std::vector<Cell> classes_cells(std::uint64_t seed) {
  Draw d(seed);
  std::vector<Cell> cells;
  std::uint64_t i = 0;
  for (const char* kind : {"poisson", "cbr", "cubic", "newreno", "mix"}) {
    for (int rep = 0; rep < 3; ++rep) {
      const double share = d.uniform(0.35, 0.45);
      const TimeNs cross_rtt = from_ms(d.uniform(45, 55));
      cells.push_back(constant_cell("classes", kind, share, cross_rtt,
                                    exp::derive_seed(seed, i++)));
    }
  }
  return cells;
}

// Dynamic cross traffic (Fig. 8): alternating elastic and inelastic
// phases, so every cell exercises mode switches, the rate reset, and the
// burst of flow starts and stops at each phase boundary.  Decisions are
// scored from kSettle after each boundary, once the detector's window has
// refilled.
std::vector<Cell> phases_cells(std::uint64_t seed) {
  struct Phase {
    double poisson_share;
    int cubic_flows;
  };
  constexpr Phase kPhases[] = {{0.2, 1}, {0.5, 0}, {0.0, 2},
                               {0.3, 0}, {0.25, 1}, {0.4, 0}};
  constexpr TimeNs kPhaseLen = from_sec(15);
  constexpr TimeNs kSettle = from_sec(8);
  Draw d(seed);
  std::vector<Cell> cells;
  for (std::uint64_t i = 0; i < 12; ++i) {
    Cell c;
    c.spec = nimbus_spec("phases", kPhaseLen * std::size(kPhases),
                         exp::derive_seed(seed, i));
    sim::FlowId next = 10;
    for (std::size_t p = 0; p < std::size(kPhases); ++p) {
      const TimeNs a = kPhaseLen * static_cast<TimeNs>(p), b = a + kPhaseLen;
      const Phase& ph = kPhases[p];
      if (ph.poisson_share > 0) {
        const double share = ph.poisson_share * d.uniform(0.9, 1.1);
        c.spec.cross.push_back(
            exp::CrossSpec::poisson(share * kMu, next++, a, b));
      }
      for (int k = 0; k < ph.cubic_flows; ++k) {
        exp::CrossSpec f = exp::CrossSpec::flow("cubic", next++, a, b);
        f.rtt = from_ms(d.uniform(45, 55));
        c.spec.cross.push_back(f);
      }
      c.truth.push_back(
          {std::max(a + kSettle, kWarmup), b, ph.cubic_flows > 0});
    }
    cells.push_back(std::move(c));
  }
  return cells;
}

// A Mahimahi trace whose rate follows a mean-reverting log-rate walk
// (within ±25% of kMu), written one delivery opportunity per line.
void write_walk_trace(const std::string& path, Draw& d) {
  constexpr double kPktBits = 1504 * 8;
  constexpr int kLenMs = 60'000, kStepMs = 100;
  const double sigma = d.uniform(0.08, 0.12);
  std::vector<std::int64_t> ms;
  double x = 0.0, credit = 0.0, rate = kMu;
  for (int t = 0; t < kLenMs; ++t) {
    if (t % kStepMs == 0) {
      x += -0.05 * x + sigma * std::sqrt(0.1) * d.normal();
      x = std::clamp(x, -0.25, 0.25);
      rate = kMu * std::exp(x);
    }
    credit += rate / kPktBits / 1000.0;
    for (; credit >= 1.0; credit -= 1.0) ms.push_back(t);
  }
  sim::write_trace_file(path, ms);
}

std::vector<std::string> varlink_traces(const Args& a) {
  Draw d(a.seed ^ 0x7aceULL);
  std::vector<std::string> paths;
  for (int i = 0; i < 2; ++i) {
    paths.push_back(a.work_dir + "/walk" + std::to_string(i) + ".trace");
    write_walk_trace(paths.back(), d);
  }
  return paths;
}

// Time-varying µ (sim/link_schedule.h): sinusoids inside the detector's
// graceful envelope, a random walk, and seed-generated Mahimahi traces at
// 1 s bucketing, each against inelastic and elastic cross traffic.
std::vector<Cell> varlink_cells(std::uint64_t seed,
                                const std::vector<std::string>& traces) {
  Draw d(seed);
  std::vector<Cell> cells;
  std::uint64_t i = 0;
  for (const char* kind : {"poisson", "cubic"}) {
    std::vector<exp::LinkSpec> links;
    links.push_back(exp::LinkSpec::sine(d.uniform(0.05, 0.15),
                                        from_sec(d.uniform(8, 12))));
    links.push_back(exp::LinkSpec::sine(d.uniform(0.1, 0.2),
                                        from_sec(d.uniform(25, 35))));
    links.push_back(exp::LinkSpec::random_walk(d.uniform(0.15, 0.2)));
    for (const std::string& path : traces) {
      exp::LinkSpec l = exp::LinkSpec::trace(path);
      l.trace_bucket = from_sec(1);
      links.push_back(l);
    }
    for (const exp::LinkSpec& link : links) {
      Cell c = constant_cell("varlink", kind, 0.4, from_ms(50),
                             exp::derive_seed(seed, i++));
      c.spec.link = link;
      if (link.kind == exp::LinkSpec::Kind::kTrace) {
        // Size buffers and the known µ off the trace's own mean.
        sim::RateSchedule::TraceConfig tc;
        tc.bucket = link.trace_bucket;
        c.spec.mu_bps = exp::trace_mean_rate_bps(link.trace_path, tc);
        c.spec.protagonist.nimbus.known_mu_bps = c.spec.mu_bps;
      }
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

sim::ImpairmentConfig ge_loss(double rate) {
  sim::ImpairmentConfig c;
  c.ge_enabled = true;
  c.ge_q = 1.0 / 8.0;  // mean burst of 8 packets
  c.ge_p = rate * c.ge_q / (1.0 - rate);
  return c;
}

// Adversarial paths (sim/impairment.h) inside the detector's graceful
// envelope: bursty forward loss, ACK-path loss, jitter with and without
// reordering, and link flaps.
std::vector<Cell> impairment_cells(std::uint64_t seed) {
  Draw d(seed);
  std::vector<Cell> cells;
  std::uint64_t i = 0;
  for (const char* kind : {"poisson", "cubic"}) {
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<exp::ImpairmentSpec> imps(5);
      imps[0].forward = ge_loss(d.uniform(0.003, 0.008));
      imps[1].reverse = ge_loss(d.uniform(0.05, 0.10));
      imps[2].forward.jitter = from_ms(d.uniform(1, 3));
      imps[2].forward.reorder = true;
      imps[3].forward.jitter = from_ms(d.uniform(8, 12));
      imps[4].forward.flap_period = from_sec(10);
      imps[4].forward.flap_duration = from_sec(d.uniform(0.5, 1.5));
      imps[4].forward.flap_offset = from_sec(12);
      for (const exp::ImpairmentSpec& imp : imps) {
        Cell c = constant_cell("impairment", kind, 0.4, from_ms(50),
                               exp::derive_seed(seed, i++));
        c.spec.impairment = imp;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<Cell> make_cells(const Args& a,
                             const std::vector<std::string>& traces) {
  if (a.workload == "classes") return classes_cells(a.seed);
  if (a.workload == "phases") return phases_cells(a.seed);
  if (a.workload == "varlink") return varlink_cells(a.seed, traces);
  if (a.workload == "impairment") return impairment_cells(a.seed);
  usage("unknown workload " + a.workload);
}

// ---------------------------------------------------------------------------
// Scoring.
// ---------------------------------------------------------------------------

/// What a cell produced.  Every repeat of a cell must reproduce it exactly.
struct Outcome {
  double agree = 0;         // scored mode decisions matching the truth
  double scored = 0;        // mode decisions inside the truth windows
  double delay_ms = 0;      // mean probed queueing delay after warmup
  double mode_switches = 0;
  double reports = 0;       // z(t) samples: detector evaluations
  double events = 0;        // simulated events

  std::vector<double> values() const {
    return {agree, scored, delay_ms, mode_switches, reports, events};
  }
};

Outcome score(const Cell& c, const exp::ScenarioRun& run) {
  Outcome o;
  const util::TimeSeries& modes = run.mode_log->series();
  for (const Window& w : c.truth) {
    for (double v : modes.values_in(w.t0, w.t1)) {
      o.scored += 1;
      if ((v > 0.5) == w.elastic) o.agree += 1;
    }
  }
  for (std::size_t k = 1; k < modes.size(); ++k) {
    if (modes.values()[k] != modes.values()[k - 1]) o.mode_switches += 1;
  }
  o.delay_ms = run.built.net->recorder()
                   .probed_queue_delay()
                   .mean_in(kWarmup, c.spec.duration)
                   .value_or(-1);
  o.reports = static_cast<double>(run.z_log->size());
  o.events = static_cast<double>(run.built.net->loop().processed_events());
  return o;
}

// ---------------------------------------------------------------------------
// Measurement.  Every time below is thread CPU time in seconds.
// ---------------------------------------------------------------------------

/// Per-cell samples, one entry per repeat.
struct CellSamples {
  std::vector<double> cpu_s;  // run_scenario + scoring + teardown
  std::vector<double> ref_s;  // reference kernel, mean of before and after
  // Trace-mode spans.
  std::vector<double> assemble_s, simulate_s, score_s, teardown_s;
  std::vector<double> canon_s, cache_store_s, cache_load_s;
  std::vector<double> detector_s_per_sample;
  std::vector<double> first;               // first repeat's outcome values
  std::map<std::string, double> counters;  // first repeat's snapshot
};

struct RunState {
  std::vector<std::string> failures;
  long attempted = 0;
  long failed = 0;
};

void fail(RunState& st, const Cell& c, const std::string& why) {
  ++st.failed;
  if (st.failures.size() < 8) st.failures.push_back(c.spec.name + ": " + why);
}

bool outcome_sane(const Outcome& o) {
  for (double v : o.values()) {
    if (!std::isfinite(v)) return false;
  }
  return o.scored > 0 && o.agree <= o.scored && o.delay_ms >= 0 &&
         o.reports > 0 && o.events > 0;
}

// Replays a cell's z(t) samples through a fresh detector, evaluating Eq. 3
// at the competitive pulse frequency after every sample, as Nimbus does per
// report.  Returns seconds per sample.
double replay_detector(const std::vector<double>& z) {
  core::ElasticityDetector det;
  double acc = 0;
  const double t0 = thread_cpu_s();
  for (double v : z) {
    det.add_sample(v);
    if (det.ready()) acc += det.evaluate(5.0).eta;
  }
  const double s = thread_cpu_s() - t0;
  g_sink = g_sink + acc;
  return s / static_cast<double>(z.size());
}

void run_cell(const Cell& c, bool trace, exp::ResultCache* cache,
              CellSamples& s, RunState& st) {
  ++st.attempted;
  const double ref_before = reference_kernel();
  double t_assembled = 0;
  const exp::ScenarioSetup hook = [&](const exp::ScenarioSpec&,
                                      exp::BuiltScenario&) {
    t_assembled = thread_cpu_s();
  };
  const double t0 = thread_cpu_s();
  double t_run = 0, t_scored = 0, t_extracted = 0;
  Outcome o;
  std::vector<double> z;
  bool finished = false;
  {
    exp::ScenarioRun run = exp::run_scenario(c.spec, hook);
    t_run = thread_cpu_s();
    finished = run.built.net->loop().now() == c.spec.duration &&
               run.mode_log != nullptr;
    if (finished) o = score(c, run);
    t_scored = thread_cpu_s();
    if (trace && finished) {
      z = run.z_log->values();
      if (s.counters.empty() && run.telemetry != nullptr) {
        for (const auto& kv : run.telemetry->metrics.snapshot()) {
          s.counters[kv.first] = kv.second;
        }
      }
    }
    t_extracted = thread_cpu_s();
  }
  const double t_end = thread_cpu_s();
  s.ref_s.push_back((ref_before + reference_kernel()) / 2);
  // The trace-only extraction between scoring and teardown is not part of
  // the cell's time.
  s.cpu_s.push_back((t_scored - t0) + (t_end - t_extracted));

  if (!finished) {
    fail(st, c, "run stopped before the scenario duration");
    return;
  }
  const std::vector<double> values = o.values();
  if (s.first.empty()) {
    s.first = values;
    if (!outcome_sane(o)) fail(st, c, "outcome out of range");
  } else if (values != s.first) {
    fail(st, c, "repeat differs from the first run of the same cell");
  }

  if (!trace) return;
  s.assemble_s.push_back(t_assembled - t0);
  s.simulate_s.push_back(t_run - t_assembled);
  s.score_s.push_back(t_scored - t_run);
  s.teardown_s.push_back(t_end - t_extracted);

  double t = thread_cpu_s();
  const exp::Hash128 h = exp::spec_hash(c.spec);
  s.canon_s.push_back(thread_cpu_s() - t);
  t = thread_cpu_s();
  cache->store(h, c.spec.seed, exp::CellResult::vec(values));
  s.cache_store_s.push_back(thread_cpu_s() - t);
  t = thread_cpu_s();
  const auto loaded = cache->load(h, c.spec.seed);
  s.cache_load_s.push_back(thread_cpu_s() - t);
  if (!loaded.has_value() || loaded->values != values) {
    fail(st, c, "result cache did not return the stored outcome");
  }
  s.detector_s_per_sample.push_back(replay_detector(z));
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out + "\"";
}

std::string arr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

std::string per_cell(const std::vector<CellSamples>& cells,
                     std::vector<double> CellSamples::*field) {
  std::string out = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out += ',';
    out += arr(cells[i].*field);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);

  // 1. Inputs.
  std::vector<std::string> traces;
  if (a.workload == "varlink") traces = varlink_traces(a);

  // 2. Set-up, repeated (kSetupReps times, or fewer once kSetupBudgetS of
  // wall time is spent); the last repetition's cells are the ones measured.
  std::vector<double> setup_s, setup_ref_s;
  std::vector<Cell> cells;
  const auto setup_start = Clock::now();
  while (setup_s.size() < kMinSetupReps ||
         (setup_s.size() < kSetupReps &&
          secs(setup_start, Clock::now()) < kSetupBudgetS)) {
    const double ref_before = reference_kernel();
    const double t0 = thread_cpu_s();
    cells = make_cells(a, traces);
    for (const Cell& c : cells) exp::build_network(c.spec);
    setup_s.push_back(thread_cpu_s() - t0);
    setup_ref_s.push_back((ref_before + reference_kernel()) / 2);
  }

  std::unique_ptr<exp::ResultCache> cache;
  if (a.trace) {
    cache = std::make_unique<exp::ResultCache>(
        a.work_dir + "/cache", exp::ResultCache::Mode::kReadWrite);
    exp::code_fingerprint();  // hashes the executable once, outside spans
  }

  // 3. Measure whole sweeps until the budget is spent.
  RunState st;
  std::vector<CellSamples> samples(cells.size());
  int sweeps = 0;
  const auto start = Clock::now();
  while (sweeps < kMinSweeps || secs(start, Clock::now()) < a.seconds) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      run_cell(cells[i], a.trace, cache.get(), samples[i], st);
    }
    ++sweeps;
  }
  const double measured_s = secs(start, Clock::now());

  std::string out = "{";
  out += "\"workload\":" + json_str(a.workload);
  out += ",\"cells\":" + std::to_string(cells.size());
  out += ",\"sweeps\":" + std::to_string(sweeps);
  out += ",\"measured_s\":" + num(measured_s);
  out += ",\"attempted\":" + std::to_string(st.attempted);
  out += ",\"failed\":" + std::to_string(st.failed);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < st.failures.size(); ++i) {
    if (i != 0) out += ',';
    out += json_str(st.failures[i]);
  }
  out += "],\"setup_s\":" + arr(setup_s);
  out += ",\"setup_ref_s\":" + arr(setup_ref_s);
  out += ",\"cpu_s\":" + per_cell(samples, &CellSamples::cpu_s);
  out += ",\"ref_s\":" + per_cell(samples, &CellSamples::ref_s);
  out += ",\"outcomes\":" + per_cell(samples, &CellSamples::first);
  if (a.trace) {
    const std::pair<const char*, std::vector<double> CellSamples::*> spans[] =
        {{"assemble_s", &CellSamples::assemble_s},
         {"simulate_s", &CellSamples::simulate_s},
         {"score_s", &CellSamples::score_s},
         {"teardown_s", &CellSamples::teardown_s},
         {"canon_s", &CellSamples::canon_s},
         {"cache_store_s", &CellSamples::cache_store_s},
         {"cache_load_s", &CellSamples::cache_load_s},
         {"detector_s_per_sample", &CellSamples::detector_s_per_sample}};
    out += ",\"spans\":{";
    for (std::size_t k = 0; k < std::size(spans); ++k) {
      if (k != 0) out += ',';
      out += json_str(spans[k].first) + ":" + per_cell(samples, spans[k].second);
    }
    std::map<std::string, double> totals;
    for (const CellSamples& s : samples) {
      for (const auto& kv : s.counters) totals[kv.first] += kv.second;
    }
    out += "},\"counters\":{";
    for (auto it = totals.begin(); it != totals.end(); ++it) {
      if (it != totals.begin()) out += ',';
      out += json_str(it->first) + ":" + num(it->second);
    }
    out += "}";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
