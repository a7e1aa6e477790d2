// Disk-backed memoisation of scored sweep cells, plus the process-level
// shard partition.
//
// A cell is one (ScenarioSpec, seed) pair reduced to a scored summary — a
// flat vector of doubles (CellResult), NOT raw logs: the cacheable unit is
// what a bench prints, so a cache hit reproduces the bench's stdout byte
// for byte without replaying the simulation.  Cells are keyed by
// (spec_hash, seed, code_fingerprint):
//
//   * spec_hash — the 128-bit content hash of the canonical spec
//     serialization (exp/spec_canon.h); any spec field change is a miss.
//   * seed — the cell's scenario base seed (also inside the spec hash;
//     kept separate so cache filenames are greppable by seed).
//   * code_fingerprint — a hash of this process's own executable image,
//     so ANY code change invalidates everything, conservatively.  Stale
//     fingerprints' entries are simply never read again; the cache is
//     append-only garbage that CI prunes by key rotation.
//
// Entries are written atomically (temp file + rename) and are
// self-checking: a truncated or corrupted entry fails its checksum and is
// treated as a miss (recomputed, then rewritten when the mode allows).
//
// Sharding (RunConfig::shard, "k/n"): a process computes only the cells
// whose hash lands in shard k of n.  Cells outside the shard still *read*
// the cache (a fully warmed cache yields complete output under any shard),
// but are never computed; their results come back with valid=false and NaN
// values, and benches downgrade shape checks to SKIP (bench/common.h).
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/run_config.h"
#include "exp/spec_canon.h"

namespace nimbus::exp {

/// One cell's scored summary: the doubles a bench derives its printed
/// rows and shape checks from.  Flat on purpose — every collect in the
/// bench suite reduces to doubles, and a flat vector round-trips the disk
/// format exactly (bit patterns, no re-parsing error).
struct CellResult {
  /// Why a cell carries no values.  Failed cells (watchdog trips) are
  /// never stored to disk, so the entry format is unchanged.
  enum class Fail : std::uint8_t {
    kNone = 0,     // valid result
    kShardSkip,    // outside this process's shard and not in the cache
    kTimeout,      // per-cell wall-clock watchdog tripped mid-run
    kEventBudget,  // per-cell simulated-event budget tripped mid-run
  };

  std::vector<double> values;
  /// False for sharded-out cells that were not in the cache and for cells
  /// whose run budget tripped: values are empty, value(i) reads NaN, and
  /// `fail` says which of those happened.
  bool valid = true;
  /// True when this result came from the disk cache (informational).
  bool from_cache = false;
  Fail fail = Fail::kNone;

  /// Telemetry sidecar (NIMBUS_OBS=counters|trace only; NOT part of the
  /// disk entry format — cached cells carry no fresh telemetry, and failed
  /// cells are never stored anyway).  For completed cells this is the
  /// registry snapshot feeding the sweep manifest; for watchdog-failed
  /// cells it is the post-mortem: the final counter snapshot plus the last
  /// flight-recorder events, so a TIMEOUT/EVENT-BUDGET cell is diagnosable
  /// without re-running it instrumented.
  std::vector<std::pair<std::string, double>> obs_counters;
  std::vector<std::string> obs_trace_tail;

  static CellResult scalar(double v) {
    CellResult r;
    r.values = {v};
    return r;
  }
  static CellResult vec(std::vector<double> v) {
    CellResult r;
    r.values = std::move(v);
    return r;
  }
  static CellResult failed(Fail reason) {
    CellResult r;
    r.valid = false;
    r.fail = reason;
    return r;
  }
  /// values[i], or quiet NaN when invalid/out of range (deterministic
  /// poison: a sharded-out or failed cell prints "nan", never garbage).
  double value(std::size_t i = 0) const;
  /// Short printable reason: "" (ok), "SKIP", "TIMEOUT", "EVENT-BUDGET".
  const char* fail_label() const;
};

class ResultCache {
 public:
  using Mode = CacheMode;

  struct Stats {
    long hits = 0;
    long misses = 0;    // absent entries (computed instead)
    long corrupt = 0;   // failed checksum/parse (also counted as a miss)
    long stores = 0;
  };

  ResultCache(std::string dir, Mode mode);

  bool enabled() const { return mode_ != Mode::kOff; }
  bool writable() const { return mode_ == Mode::kReadWrite; }
  Mode mode() const { return mode_; }
  const std::string& dir() const { return dir_; }

  /// Returns the cached cell, or nullopt on miss (absent or corrupt).
  std::optional<CellResult> load(const Hash128& spec_hash,
                                 std::uint64_t seed);

  /// Stores the cell atomically (no-op unless writable).  Never throws:
  /// an unwritable cache directory degrades to a slower run, not a
  /// failed bench; a WARNING goes to stderr once.
  void store(const Hash128& spec_hash, std::uint64_t seed,
             const CellResult& r);

  Stats stats() const;

 private:
  std::string entry_path(const Hash128& spec_hash, std::uint64_t seed) const;

  std::string dir_;
  Mode mode_;
  mutable std::mutex mu_;
  Stats stats_;
  bool warned_unwritable_ = false;
};

/// The process-wide cache, configured from process_config() on first use.
ResultCache& process_cache();

/// Hash of this process's executable image (/proc/self/exe), computed
/// once.  CHECK-fails where unavailable and caching is requested — the
/// cache must never run with an unverifiable fingerprint.
Hash128 code_fingerprint();

// ---------------------------------------------------------------------------
// Sharding.
// ---------------------------------------------------------------------------

/// Deterministic partition: for a fixed n, every cell belongs to exactly
/// one shard (tests assert the disjoint exact cover).
bool cell_in_shard(const Hash128& spec_hash, std::uint64_t seed,
                   const ShardConfig& shard);

/// Cells skipped by this process because they fell outside its shard and
/// were not in the cache (drives the bench-level SKIP downgrade).
long shard_skipped_count();
void note_shard_skip();

/// One summary line to `out` (benches pass stderr, keeping stdout
/// byte-identical between cold and warm runs) when the process cache or
/// the process shard is active; silent otherwise.
void print_cache_stats_if_active(std::FILE* out);

}  // namespace nimbus::exp
