// Parallel experiment execution: run_scenarios_cached, the one sweep
// runner, on top of ParallelRunner, its thread pool.
//
// Scenarios are embarrassingly parallel: each one owns its Network (and
// therefore its EventLoop, RNG streams, and recorder), so a batch of specs
// runs across a thread pool with zero shared mutable state.  Results land
// at their spec's index and callbacks fire in spec order regardless of
// completion order; derive_seed(base, i) gives scheduling-independent
// per-scenario seeds; Options::serial (or jobs = 1) is the in-order
// reference path tests compare parallel runs against.
//
// Worker count: Options::jobs if > 0, else NIMBUS_JOBS (a positive whole
// number; anything else CHECK-fails), else hardware concurrency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "exp/result_cache.h"
#include "exp/scenario.h"

namespace nimbus::exp {

/// Resolves a job count: `jobs` if > 0, else NIMBUS_JOBS, else hardware
/// concurrency (at least 1).
int resolve_jobs(int jobs = 0);

/// Deterministic per-scenario seed derivation (splitmix64 of base + index).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

class ParallelRunner {
 public:
  struct Options {
    int jobs = 0;         // 0 = NIMBUS_JOBS, then hardware_concurrency
    bool serial = false;  // reference path: in-order on the calling thread
  };

  ParallelRunner();  // default options
  explicit ParallelRunner(Options opts);

  /// Runs task(i) for every i in [0, n); blocks until all complete.  The
  /// optional on_done(i) fires exactly once per successful task,
  /// serialized and in index order (task i's callback runs only after
  /// tasks 0..i-1 reported).  The first exception thrown by a task or
  /// callback is rethrown here after the pool drains; callbacks stop at
  /// the lowest failed index, matching the serial path (which reports
  /// every task before the throwing one and none after).
  void for_each(std::size_t n, const std::function<void(std::size_t)>& task,
                const std::function<void(std::size_t)>& on_done = nullptr);

  /// Maps indices to results, in input order.  `on_result` fires in index
  /// order (serialized) as the completed prefix grows.
  template <typename R>
  std::vector<R> map(
      std::size_t n, const std::function<R(std::size_t)>& fn,
      const std::function<void(std::size_t, R&)>& on_result = nullptr) {
    // Workers write out[i] concurrently; std::vector<bool> packs bits into
    // shared words, which would be a data race.  Map to char/int instead.
    static_assert(!std::is_same_v<R, bool>,
                  "ParallelRunner::map<bool> races on vector<bool> storage");
    std::vector<R> out(n);
    std::function<void(std::size_t)> done;
    if (on_result) done = [&](std::size_t i) { on_result(i, out[i]); };
    for_each(n, [&](std::size_t i) { out[i] = fn(i); }, done);
    return out;
  }

  int jobs() const { return jobs_; }
  bool serial() const { return serial_; }

 private:
  int jobs_;
  bool serial_;
};

/// Reduces one finished run to its cacheable scored summary.
using CellCollect =
    std::function<CellResult(const ScenarioSpec&, ScenarioRun&)>;

/// Per-cell watchdog config for run_scenarios_cached, from the environment:
/// NIMBUS_CELL_MAX_EVENTS (simulated-event budget, a whole number) and
/// NIMBUS_CELL_WALL_SEC (wall-clock seconds).  Unset or empty = unlimited;
/// any other value must be a positive number (positive_env_number), or
/// the process CHECK-fails naming the variable.
RunBudget cell_budget_from_env();

/// The one sweep runner: every sweep in the benches and examples goes
/// through it, and run_scenario is the single-run primitive underneath.  Builds and runs
/// every spec, each on its own network/loop, reduces each finished run to
/// a CellResult via `collect` (on the worker thread, network still alive),
/// and returns the results in spec order; `on_result` fires in spec order,
/// so benches print rows from it without interleaving.  `setup` (if given)
/// runs per scenario on the worker after assembly, before the loop starts;
/// it must only touch the BuiltScenario it is handed (and thread-safe
/// captures).
///
/// Memoisation: a cell is keyed by (spec_hash, spec.seed,
/// code_fingerprint); a hit returns the stored CellResult without building
/// a network, a miss runs the scenario and (in readwrite mode) stores
/// `collect`'s values.  `collect` and `setup` are code in the fingerprinted
/// binary, so stored values depend only on (spec, seed, binary) — given
/// the contract that within one binary a spec (name included) has exactly
/// one collect/setup pair.  Specs that cannot be canonicalized
/// (spec_cacheable false) always compute.
///
/// Sharding: under an active NIMBUS_SHARD, out-of-shard cells are served
/// from the cache or come back valid=false with no values — see
/// result_cache.h.  Read results through value(i) (NaN when missing),
/// never values[i], and guard anything built from a variable-length result
/// against an empty one.
///
/// Watchdog: each computed cell runs under `budget` (null: the
/// NIMBUS_CELL_MAX_EVENTS / NIMBUS_CELL_WALL_SEC env config; default
/// unlimited).  A cell whose event loop trips the budget comes back
/// valid=false with fail = kTimeout (wall) or kEventBudget (events)
/// instead of stalling the suite; failed cells are never stored in the
/// cache and `collect` is not called on their truncated runs.
std::vector<CellResult> run_scenarios_cached(
    const std::vector<ScenarioSpec>& specs, const CellCollect& collect,
    ParallelRunner::Options opts = {},
    const std::function<void(std::size_t, CellResult&)>& on_result = nullptr,
    const ScenarioSetup& setup = nullptr,
    ResultCache* cache = nullptr,        // null: the NIMBUS_CACHE env cache
    const ShardConfig* shard = nullptr,  // null: the NIMBUS_SHARD env config
    const RunBudget* budget = nullptr);  // null: the env cell budget

}  // namespace nimbus::exp
