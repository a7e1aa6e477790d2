#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "util/check.h"

namespace nimbus::exp {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  // splitmix64 over base + index: distinct, scheduling-independent streams.
  return mix_seed(base + 0x9e3779b97f4a7c15ULL * index);
}

ParallelRunner::ParallelRunner(int jobs) : jobs_(jobs) {
  NIMBUS_CHECK_MSG(jobs >= 1, "ParallelRunner needs at least one job");
}

void ParallelRunner::for_each(std::size_t n,
                              const std::function<void(std::size_t)>& task,
                              const std::function<void(std::size_t)>& on_done) {
  if (n == 0) return;
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      task(i);
      if (on_done) on_done(i);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards done/next_report/error state and on_done calls
  std::vector<char> done(n, 0);
  std::size_t next_report = 0;
  std::exception_ptr first_error;
  std::size_t first_failed = n;  // lowest index whose task or cb threw

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        first_failed = std::min(first_failed, i);
        next.store(n, std::memory_order_relaxed);  // stop issuing new work
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      done[i] = 1;
      if (on_done) {
        // Drain the completed in-order prefix, but never past a failed
        // index: the serial path reports every task before the throwing
        // one and none after, and the parallel path must match.
        try {
          while (next_report < n && next_report < first_failed &&
                 done[next_report]) {
            on_done(next_report);
            ++next_report;
          }
        } catch (...) {
          // Callbacks must fail like the serial path: capture and rethrow
          // on the caller's thread, never terminate a worker.
          if (!first_error) first_error = std::current_exception();
          first_failed = std::min(first_failed, next_report);
          next.store(n, std::memory_order_relaxed);
          return;
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

/// Events a watchdog post-mortem keeps from the tail of the flight
/// recorder.  Small on purpose: the tail rides inside the in-memory
/// CellResult of every failed cell, and the last moments before a budget
/// trip are what diagnoses it (a cwnd-collapse storm, a blackout that
/// never ended, a mode-switch flap).
constexpr std::size_t kTraceTailEvents = 16;

/// One flight-recorder event as a printable line (the watchdog tail and
/// the sweep manifest share this format).
std::string format_trace_event(const obs::TraceEvent& e) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "t=%.6fs %s flow=%u a=%u b=%u v0=%g v1=%g v2=%g",
                to_sec(static_cast<TimeNs>(e.t)),
                obs::trace_kind_name(static_cast<obs::TraceKind>(e.kind)),
                static_cast<unsigned>(e.flow), e.a, e.b, e.v0, e.v1, e.v2);
  return buf;
}

/// Attaches the per-cell telemetry roll-up to `r`: run-level facts from
/// the event loop (always available and deterministic), the full counter
/// snapshot when counters are on, and trace-ring occupancy when tracing.
/// Wall-clock consumption is deliberately absent — everything here must
/// be identical across reruns and job counts (tests diff manifests).
void attach_cell_obs(CellResult& r, const ScenarioRun& run,
                     const RunBudget& b) {
  const sim::EventLoop& loop = run.built.net->loop();
  r.obs_counters.emplace_back(
      "run.events_processed", static_cast<double>(loop.processed_events()));
  r.obs_counters.emplace_back("run.sim_now_sec", to_sec(loop.now()));
  if (b.max_events != 0) {
    r.obs_counters.emplace_back(
        "run.event_budget_frac",
        static_cast<double>(loop.processed_events()) /
            static_cast<double>(b.max_events));
  }
  if (run.telemetry == nullptr) return;
  if (run.telemetry->counters_on()) {
    for (auto& kv : run.telemetry->metrics.snapshot()) {
      r.obs_counters.emplace_back(std::move(kv));
    }
  }
  if (run.telemetry->trace_on()) {
    const obs::FlightRecorder& rec = run.telemetry->recorder;
    r.obs_counters.emplace_back("obs.trace_ring.events",
                                static_cast<double>(rec.size()));
    r.obs_counters.emplace_back("obs.trace_ring.capacity",
                                static_cast<double>(rec.capacity()));
    r.obs_counters.emplace_back("obs.trace_ring.dropped",
                                static_cast<double>(rec.dropped()));
  }
}

/// Watchdog post-mortem: the failed cell carries the final counter
/// snapshot plus the last kTraceTailEvents flight-recorder events, so
/// "TIMEOUT" in a bench log is diagnosable without an instrumented rerun.
void attach_failure_diagnostics(CellResult& r, const ScenarioRun& run,
                                const RunBudget& b) {
  attach_cell_obs(r, run, b);
  if (run.telemetry == nullptr || !run.telemetry->trace_on()) return;
  const auto events = run.telemetry->recorder.snapshot();
  const std::size_t start =
      events.size() > kTraceTailEvents ? events.size() - kTraceTailEvents : 0;
  for (std::size_t i = start; i < events.size(); ++i) {
    r.obs_trace_tail.push_back(format_trace_event(events[i]));
  }
}

// -------------------------------------------------------------------------
// Sweep manifest (JSONL, one row per cell in spec order plus a trailing
// sweep summary).  Written once per run_scenarios_cached call, after the
// whole map completes, on the calling thread — so the file is identical
// under any NIMBUS_JOBS (tests diff parallel vs serial byte for byte).
// -------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// JSON number or null: NaN/inf have no JSON spelling, and a manifest
/// that fails `python3 -m json.tool` per line is worse than a null.
void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// Manifest files are numbered per process in call order
/// (manifest-0.jsonl, manifest-1.jsonl, ...): a bench that runs several
/// sweeps gets one manifest each, deterministically named.
int next_manifest_index() {
  static std::atomic<int> n{0};
  return n.fetch_add(1, std::memory_order_relaxed);
}

void write_sweep_manifest(const std::vector<ScenarioSpec>& specs,
                          const std::vector<CellResult>& results,
                          const ResultCache& c, const RunConfig& cfg) {
  if (cfg.obs_dir.empty() || cfg.obs == obs::Mode::kOff) return;
  char path[512];
  std::snprintf(path, sizeof(path), "%s/manifest-%d.jsonl",
                cfg.obs_dir.c_str(), next_manifest_index());
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARNING: cannot write sweep manifest %s\n", path);
    return;
  }
  long computed = 0, cached = 0, failed = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CellResult& r = results[i];
    if (r.from_cache) {
      ++cached;
    } else if (!r.valid) {
      ++failed;
    } else {
      ++computed;
    }
    std::string row = "{\"cell\":" + std::to_string(i);
    row += ",\"name\":\"" + json_escape(specs[i].name) + "\"";
    row += ",\"seed\":" + std::to_string(specs[i].seed);
    row += ",\"stem\":\"" + json_escape(obs_artifact_stem(specs[i])) + "\"";
    row += ",\"valid\":";
    row += r.valid ? "true" : "false";
    row += ",\"from_cache\":";
    row += r.from_cache ? "true" : "false";
    row += ",\"fail\":\"";
    row += r.fail_label();
    row += "\",\"values\":[";
    for (std::size_t k = 0; k < r.values.size(); ++k) {
      if (k != 0) row += ',';
      append_json_number(row, r.values[k]);
    }
    row += "],\"obs\":{";
    for (std::size_t k = 0; k < r.obs_counters.size(); ++k) {
      if (k != 0) row += ',';
      row += "\"" + json_escape(r.obs_counters[k].first) + "\":";
      append_json_number(row, r.obs_counters[k].second);
    }
    row += '}';
    if (!r.obs_trace_tail.empty()) {
      row += ",\"trace_tail\":[";
      for (std::size_t k = 0; k < r.obs_trace_tail.size(); ++k) {
        if (k != 0) row += ',';
        row += "\"" + json_escape(r.obs_trace_tail[k]) + "\"";
      }
      row += ']';
    }
    row += "}\n";
    std::fputs(row.c_str(), f);
  }
  const ResultCache::Stats st = c.stats();
  std::string summary = "{\"sweep\":{\"cells\":" + std::to_string(specs.size());
  summary += ",\"computed\":" + std::to_string(computed);
  summary += ",\"from_cache\":" + std::to_string(cached);
  summary += ",\"failed\":" + std::to_string(failed);
  summary += ",\"cache\":{\"hits\":" + std::to_string(st.hits);
  summary += ",\"misses\":" + std::to_string(st.misses);
  summary += ",\"corrupt\":" + std::to_string(st.corrupt);
  summary += ",\"stores\":" + std::to_string(st.stores) + "}}}\n";
  std::fputs(summary.c_str(), f);
  std::fclose(f);
}

}  // namespace

std::vector<CellResult> run_scenarios_cached(
    const std::vector<ScenarioSpec>& specs, const CellCollect& collect,
    const std::function<void(std::size_t, CellResult&)>& on_result,
    const ScenarioSetup& setup, const RunConfig& cfg, ResultCache& c) {
  const auto run_cell = [&](const ScenarioSpec& spec) -> CellResult {
    const bool cacheable = c.enabled() && spec_cacheable(spec);
    Hash128 h;
    if (cacheable) {
      h = spec_hash(spec);
      if (auto hit = c.load(h, spec.seed)) return *hit;
    }
    ScenarioRun run = run_scenario(spec, setup, cfg);
    if (run.budget_stop() != sim::EventLoop::BudgetStop::kNone) {
      // The run is truncated: don't score it, don't cache it — but do say
      // what it was doing when the watchdog fired.
      CellResult r = CellResult::failed(
          run.budget_stop() == sim::EventLoop::BudgetStop::kWall
              ? CellResult::Fail::kTimeout
              : CellResult::Fail::kEventBudget);
      attach_failure_diagnostics(r, run, cfg.budget);
      return r;
    }
    CellResult r = collect(spec, run);
    attach_cell_obs(r, run, cfg.budget);
    // The disk entry serializes values only (result_cache.cc); the
    // telemetry sidecar stays in memory with this process's result.
    if (cacheable) c.store(h, spec.seed, r);
    return r;
  };
  std::vector<CellResult> results(specs.size());
  std::function<void(std::size_t)> done;
  if (on_result) done = [&](std::size_t i) { on_result(i, results[i]); };
  ParallelRunner(cfg.jobs).for_each(
      specs.size(), [&](std::size_t i) { results[i] = run_cell(specs[i]); },
      done);
  write_sweep_manifest(specs, results, c, cfg);
  return results;
}

}  // namespace nimbus::exp
