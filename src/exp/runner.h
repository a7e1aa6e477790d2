// Parallel experiment execution: run_scenarios_cached, the one sweep
// runner, on top of ParallelRunner, its thread pool.
//
// Scenarios are embarrassingly parallel: each one owns its Network (and
// therefore its EventLoop, RNG streams, and recorder), so a batch of specs
// runs across a thread pool with zero shared mutable state.  Results land
// at their spec's index and callbacks fire in spec order regardless of
// completion order; derive_seed(base, i) gives scheduling-independent
// per-scenario seeds; jobs = 1 is the in-order reference path tests
// compare parallel runs against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "exp/result_cache.h"
#include "exp/scenario.h"

namespace nimbus::exp {

/// Deterministic per-scenario seed derivation (splitmix64 of base + index).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

class ParallelRunner {
 public:
  /// `jobs` >= 1 workers; 1 runs every task in order on the calling thread.
  explicit ParallelRunner(int jobs);

  /// Runs task(i) for every i in [0, n); blocks until all complete.  The
  /// optional on_done(i) fires exactly once per successful task,
  /// serialized and in index order (task i's callback runs only after
  /// tasks 0..i-1 reported).  The first exception thrown by a task or
  /// callback is rethrown here after the pool drains; callbacks stop at
  /// the lowest failed index, matching the serial path (which reports
  /// every task before the throwing one and none after).
  void for_each(std::size_t n, const std::function<void(std::size_t)>& task,
                const std::function<void(std::size_t)>& on_done = nullptr);

  int jobs() const { return jobs_; }

 private:
  int jobs_;
};

/// Reduces one finished run to its cacheable scored summary.
using CellCollect =
    std::function<CellResult(const ScenarioSpec&, ScenarioRun&)>;

/// The one sweep runner: every sweep in the benches and examples goes
/// through it, over run_scenario.  Builds and runs every spec on its own
/// network/loop, reduces each finished run to a CellResult via `collect`
/// (on the worker thread, network still alive), and returns the results
/// in spec order; `on_result` fires in spec order, so benches print rows
/// from it without interleaving.  `setup` (if given) runs per scenario on
/// the worker after assembly, before the loop starts; it must only touch
/// the BuiltScenario it is handed (and thread-safe captures).  `cfg` gives
/// the worker count, shard, watchdog budget and telemetry.
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
/// Missing values: out-of-shard cells not in the cache (result_cache.h)
/// and cells whose event loop trips cfg.budget come back valid=false, with
/// fail = kShardSkip, kTimeout (wall) or kEventBudget (events).  Failed
/// cells are never cached and `collect` never sees a truncated run.  Read
/// results through value(i) (NaN when missing), never values[i], and guard
/// anything built from a variable-length result against an empty one.
std::vector<CellResult> run_scenarios_cached(
    const std::vector<ScenarioSpec>& specs, const CellCollect& collect,
    const std::function<void(std::size_t, CellResult&)>& on_result = nullptr,
    const ScenarioSetup& setup = nullptr,
    const RunConfig& cfg = process_config(),
    ResultCache& cache = process_cache());

}  // namespace nimbus::exp
