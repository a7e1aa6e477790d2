// Tests for the content-addressed sweep engine: the ScenarioSpec
// canonicalizer + hash (exp/spec_canon.h), the disk result cache, and the
// NIMBUS_SHARD cell partition (exp/result_cache.h).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/spec_canon.h"

namespace nimbus::exp {
namespace {

namespace fs = std::filesystem;

ScenarioSpec small_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "cachetest/small";
  spec.mu_bps = 24e6;
  spec.duration = from_sec(4);
  spec.protagonist.use_nimbus_config = true;
  spec.cross.push_back(CrossSpec::flow("cubic", 2, from_sec(1)));
  spec.cross.push_back(CrossSpec::poisson(4e6, 3, from_sec(1), from_sec(3)));
  return spec.with_seed(seed);
}

// A scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("nimbus-cache-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
  std::string str() const { return path.string(); }
};

// ---------------------------------------------------------------------------
// Field-coverage guard.
// ---------------------------------------------------------------------------

// The real guard is the static_assert block in spec_canon.cc: adding a
// field to any canonicalized struct changes its size and breaks the build
// until the serializer and its kCanonSizeof* constant are updated
// together.  This runtime mirror keeps the guard visible in the test
// suite (and catches a constant edited without a serializer edit slipping
// through on a non-asserting toolchain).
TEST(SpecCanonTest, CoverageGuardSizesMatchThisBuild) {
#if defined(__x86_64__) && defined(__linux__)
  EXPECT_EQ(sizeof(sim::RateStep), kCanonSizeofRateStep);
  EXPECT_EQ(sizeof(sim::PolicerConfig), kCanonSizeofPolicerConfig);
  EXPECT_EQ(sizeof(sim::Outage), kCanonSizeofOutage);
  EXPECT_EQ(sizeof(sim::ImpairmentConfig), kCanonSizeofImpairmentConfig);
  EXPECT_EQ(sizeof(ImpairmentSpec), kCanonSizeofImpairmentSpec);
  EXPECT_EQ(sizeof(core::BasicDelayCore::Params),
            kCanonSizeofBasicDelayParams);
  EXPECT_EQ(sizeof(core::Nimbus::Config), kCanonSizeofNimbusConfig);
  EXPECT_EQ(sizeof(traffic::FlowSizeDist::Band), kCanonSizeofFlowSizeBand);
  EXPECT_EQ(sizeof(traffic::FlowSizeDist), kCanonSizeofFlowSizeDist);
  EXPECT_EQ(sizeof(traffic::FlowWorkload::Config),
            kCanonSizeofWorkloadConfig);
  EXPECT_EQ(sizeof(LinkSpec), kCanonSizeofLinkSpec);
  EXPECT_EQ(sizeof(CrossSpec), kCanonSizeofCrossSpec);
  EXPECT_EQ(sizeof(ProtagonistSpec), kCanonSizeofProtagonistSpec);
  EXPECT_EQ(sizeof(ScenarioSpec), kCanonSizeofScenarioSpec);
#else
  GTEST_SKIP() << "coverage guard only asserted on x86-64 linux";
#endif
}

TEST(SpecCanonTest, CanonicalTextNamesEveryTopLevelField) {
  // A field dropped from the serializer (without a size change — e.g. a
  // swap of one field for another of equal size) would slip past the
  // sizeof guard; spot-check that the canonical text names the fields.
  const std::string text = canonical_spec(small_spec(7));
  for (const char* key :
       {"scenario-canon/v3", "name=", "mu_bps=", "rtt=", "buffer_bdp=",
        "buffer_bytes=", "queue=", "pie_target_delay=", "random_loss=",
        "random_loss_seed=", "policer.", "impairment.forward.",
        "impairment.reverse.", "protagonist.", "cross[0].",
        "cross[1].", "workload_enabled=", "duration=", "seed=",
        "log_copa_mode=", "copa_poll_interval=", "link.",
        "nimbus.fft_duration_sec=", "nimbus.eta_threshold=",
        "protagonist.record_rtt="}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "canonical text lost key: " << key;
  }
}

// ---------------------------------------------------------------------------
// Hash stability.
// ---------------------------------------------------------------------------

TEST(SpecCanonTest, HashIsStableAcrossCallsAndProcesses) {
  // Golden: locked to the current canonical serialization.  A change to the
  // serialization (field added/reordered/reformatted) MUST change the
  // version line and is expected to break this golden — update it
  // deliberately in the same commit.
  const Hash128 def = spec_hash(ScenarioSpec{});
  EXPECT_EQ(def.hex(), spec_hash(ScenarioSpec{}).hex());
  const Hash128 small = spec_hash(small_spec(7));
  EXPECT_EQ(small.hex(), spec_hash(small_spec(7)).hex());
  EXPECT_NE(def.hex(), small.hex());
  // Re-pinned for scenario-canon/v3 (protagonist.record_rtt added).
  EXPECT_EQ(def.hex(), "63286d77ede7fe44e47299efaf9bea3d");
  EXPECT_EQ(small.hex(), "2ac67299e840d004f82bbf3b9ac713df");
}

TEST(SpecCanonTest, EveryFieldChangePerturbsTheHash) {
  const ScenarioSpec base = small_spec(7);
  const Hash128 h = spec_hash(base);

  ScenarioSpec s = base;
  s.mu_bps += 1.0;
  EXPECT_NE(spec_hash(s), h);

  s = base;
  s.seed = 8;
  EXPECT_NE(spec_hash(s), h);

  s = base;
  s.cross[1].stop += 1;
  EXPECT_NE(spec_hash(s), h);

  s = base;
  s.protagonist.nimbus.eta_threshold += 0.125;
  EXPECT_NE(spec_hash(s), h);

  s = base;
  s.link.amplitude_frac += 0.5;
  EXPECT_NE(spec_hash(s), h);

  s = base;
  s.protagonist.record_rtt = !s.protagonist.record_rtt;
  EXPECT_NE(spec_hash(s), h);
}

TEST(SpecCanonTest, DoublesHashByExactBitPattern) {
  ScenarioSpec a = small_spec(7);
  ScenarioSpec b = a;
  // One ulp apart: far below any printf rounding, still a different spec.
  b.mu_bps = std::nextafter(a.mu_bps, 1e12);
  EXPECT_NE(spec_hash(a), spec_hash(b));
  // Signed zero is a distinct bit pattern too (total serialization, not
  // numeric equivalence).
  a.link.amplitude_frac = 0.0;
  b = a;
  b.link.amplitude_frac = -0.0;
  EXPECT_NE(spec_hash(a), spec_hash(b));
}

TEST(SpecCanonTest, TraceLinkHashesTraceContent) {
  TempDir tmp;
  const std::string trace = (tmp.path / "t.trace").string();
  std::ofstream(trace) << "1\n2\n3\n";
  ScenarioSpec spec = small_spec(7);
  spec.link.kind = LinkSpec::Kind::kTrace;
  spec.link.trace_path = trace;
  EXPECT_TRUE(spec_cacheable(spec));
  const Hash128 h1 = spec_hash(spec);
  // Same path, different bytes: the spec must hash differently.
  std::ofstream(trace) << "1\n2\n4\n";
  EXPECT_NE(spec_hash(spec), h1);
  // Unreadable trace: not cacheable (and build_network would fail too).
  spec.link.trace_path = (tmp.path / "missing.trace").string();
  EXPECT_FALSE(spec_cacheable(spec));
}

TEST(SpecCanonTest, CustomCcFactoryIsNotCacheable) {
  ScenarioSpec spec = small_spec(7);
  EXPECT_TRUE(spec_cacheable(spec));
  spec.workload_enabled = true;
  spec.workload.cc_factory = [] {
    return std::unique_ptr<sim::CcAlgorithm>();
  };
  EXPECT_FALSE(spec_cacheable(spec));
}

// ---------------------------------------------------------------------------
// Disk cache: hit / miss / corrupt-entry recovery.
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, MissThenStoreThenHit) {
  TempDir tmp;
  ResultCache cache(tmp.str(), ResultCache::Mode::kReadWrite);
  const Hash128 h = spec_hash(small_spec(7));

  EXPECT_FALSE(cache.load(h, 7).has_value());
  EXPECT_EQ(cache.stats().misses, 1);

  CellResult r;
  r.values = {1.5, -0.0, 3.25e-300, 96e6};
  cache.store(h, 7, r);
  EXPECT_EQ(cache.stats().stores, 1);

  const auto hit = cache.load(h, 7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  ASSERT_EQ(hit->values.size(), r.values.size());
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    // Bit-exact round trip, including signed zero.
    EXPECT_EQ(std::signbit(hit->values[i]), std::signbit(r.values[i]));
    EXPECT_EQ(hit->values[i], r.values[i]);
  }
  EXPECT_EQ(cache.stats().hits, 1);

  // Different seed or hash: independent cells.
  EXPECT_FALSE(cache.load(h, 8).has_value());
  EXPECT_FALSE(cache.load(spec_hash(small_spec(8)), 7).has_value());
}

TEST(ResultCacheTest, ReadModeNeverWrites) {
  TempDir tmp;
  ResultCache cache(tmp.str(), ResultCache::Mode::kRead);
  cache.store(spec_hash(small_spec(7)), 7, CellResult::scalar(1.0));
  EXPECT_EQ(cache.stats().stores, 0);
  EXPECT_TRUE(fs::is_empty(tmp.path));
}

// Returns the single .cell file under `root`.
fs::path find_entry(const fs::path& root) {
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (e.is_regular_file() && e.path().extension() == ".cell") {
      return e.path();
    }
  }
  ADD_FAILURE() << "no .cell entry under " << root;
  return {};
}

TEST(ResultCacheTest, TruncatedEntryIsCorruptAndRecomputable) {
  TempDir tmp;
  ResultCache cache(tmp.str(), ResultCache::Mode::kReadWrite);
  const Hash128 h = spec_hash(small_spec(7));
  cache.store(h, 7, CellResult::scalar(42.0));
  ASSERT_TRUE(cache.load(h, 7).has_value());

  const fs::path entry = find_entry(tmp.path);
  const auto full_size = fs::file_size(entry);
  fs::resize_file(entry, full_size / 2);  // torn write / partial copy

  EXPECT_FALSE(cache.load(h, 7).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);

  // Recovery: recompute (store) and the cell reads back again.
  cache.store(h, 7, CellResult::scalar(42.0));
  const auto hit = cache.load(h, 7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value(), 42.0);
}

TEST(ResultCacheTest, GarbageAndWrongKeyEntriesRejected) {
  TempDir tmp;
  ResultCache cache(tmp.str(), ResultCache::Mode::kReadWrite);
  const Hash128 h = spec_hash(small_spec(7));
  cache.store(h, 7, CellResult::scalar(1.0));
  const fs::path entry = find_entry(tmp.path);

  // Outright garbage.
  std::ofstream(entry, std::ios::trunc) << "not a cache entry\n";
  EXPECT_FALSE(cache.load(h, 7).has_value());

  // A checksum-valid entry for a DIFFERENT cell copied over this path
  // (e.g. a botched cache merge) must also read as a miss.
  const Hash128 h8 = spec_hash(small_spec(8));
  cache.store(h8, 8, CellResult::scalar(2.0));
  fs::path entry8;
  for (const auto& e : fs::recursive_directory_iterator(tmp.path)) {
    if (e.is_regular_file() && e.path() != entry &&
        e.path().extension() == ".cell") {
      entry8 = e.path();
    }
  }
  ASSERT_FALSE(entry8.empty());
  fs::copy_file(entry8, entry, fs::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.load(h, 7).has_value());
  EXPECT_GE(cache.stats().corrupt, 2);
}

TEST(ResultCacheTest, InvalidCellsAreNeverStored) {
  TempDir tmp;
  ResultCache cache(tmp.str(), ResultCache::Mode::kReadWrite);
  CellResult skipped;
  skipped.valid = false;  // a sharded-out cell must not poison the cache
  cache.store(spec_hash(small_spec(7)), 7, skipped);
  EXPECT_EQ(cache.stats().stores, 0);
}

// ---------------------------------------------------------------------------
// cache=off vs warm cache: byte-identity on a real scenario grid.
// ---------------------------------------------------------------------------

std::vector<CellResult> run_grid(ResultCache& cache) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    specs.push_back(small_spec(derive_seed(/*base=*/7, i)));
    specs.back().protagonist.record_rtt = true;  // collect reads the RTTs
  }
  RunConfig cfg;  // 1/1 shard regardless of the test environment
  cfg.jobs = 2;
  return run_scenarios_cached(
      specs,
      [](const ScenarioSpec& spec, ScenarioRun& run) {
        CellResult r;
        r.values.push_back(static_cast<double>(
            run.built.net->recorder().delivered(1).total()));
        for (double v : run.built.net->recorder().rtt_samples(1).values_in(
                 0, spec.duration)) {
          r.values.push_back(v);
        }
        return r;
      },
      nullptr, nullptr, cfg, cache);
}

TEST(ResultCacheTest, WarmCacheIsBitIdenticalToUncached) {
  TempDir tmp;
  ResultCache off(tmp.str(), ResultCache::Mode::kOff);
  ResultCache rw(tmp.str(), ResultCache::Mode::kReadWrite);

  const auto uncached = run_grid(off);
  const auto cold = run_grid(rw);   // computes + stores
  const auto warm = run_grid(rw);   // pure hits

  EXPECT_EQ(rw.stats().misses, 4);
  EXPECT_EQ(rw.stats().stores, 4);
  EXPECT_EQ(rw.stats().hits, 4);

  ASSERT_EQ(uncached.size(), 4u);
  for (std::size_t i = 0; i < uncached.size(); ++i) {
    ASSERT_FALSE(uncached[i].values.empty());
    EXPECT_EQ(uncached[i].values, cold[i].values) << "cell " << i;
    EXPECT_EQ(uncached[i].values, warm[i].values) << "cell " << i;
    EXPECT_FALSE(cold[i].from_cache);
    EXPECT_TRUE(warm[i].from_cache);
  }
}

TEST(ResultCacheTest, SetupHookCellsCacheLikeAnyOther) {
  // A setup hook is code in the fingerprinted binary, like collect: a
  // hooked cell's values depend only on (spec, seed, binary), so it is
  // stored on a miss and served on a hit without running the hook.
  TempDir tmp;
  ResultCache rw(tmp.str(), ResultCache::Mode::kReadWrite);
  RunConfig cfg;  // 1/1 shard
  cfg.jobs = 2;
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ScenarioSpec spec = small_spec(derive_seed(/*base=*/5, i));
    spec.name = "cachetest/hooked";
    specs.push_back(spec);
  }
  std::atomic<int> hooks{0};
  const ScenarioSetup setup = [&hooks](const ScenarioSpec&,
                                       BuiltScenario& built) {
    EXPECT_NE(built.nimbus, nullptr);
    ++hooks;
  };
  const CellCollect collect = [](const ScenarioSpec&, ScenarioRun& run) {
    return CellResult::scalar(static_cast<double>(
        run.built.net->recorder().delivered(1).total()));
  };
  const auto cold =
      run_scenarios_cached(specs, collect, nullptr, setup, cfg, rw);
  EXPECT_EQ(hooks.load(), 3);
  const auto warm =
      run_scenarios_cached(specs, collect, nullptr, setup, cfg, rw);
  EXPECT_EQ(hooks.load(), 3);  // hits never build a network
  EXPECT_EQ(rw.stats().stores, 3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_FALSE(cold[i].from_cache);
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_GT(cold[i].value(), 0.0) << "cell " << i;
    EXPECT_EQ(cold[i].values, warm[i].values) << "cell " << i;
  }
}

// ---------------------------------------------------------------------------
// Sharding.
// ---------------------------------------------------------------------------

TEST(ShardTest, PartitionIsADisjointExactCover) {
  // Every cell lands in exactly one shard, for several shard counts.
  std::vector<std::pair<Hash128, std::uint64_t>> cells;
  for (std::uint64_t i = 0; i < 200; ++i) {
    cells.emplace_back(fnv128("cell" + std::to_string(i)),
                       derive_seed(1, i));
  }
  for (int n : {2, 3, 5, 8}) {
    std::vector<int> owners(cells.size(), 0);
    for (int k = 1; k <= n; ++k) {
      const ShardConfig shard{k, n};
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cell_in_shard(cells[i].first, cells[i].second, shard)) {
          ++owners[i];
        }
      }
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(owners[i], 1) << "cell " << i << " with n=" << n;
    }
  }
}

TEST(ShardTest, PartitionSpreadsCells) {
  // Not a distribution test, just an anti-degeneracy check: with 200
  // cells and 3 shards, no shard is empty and no shard owns everything.
  const int n = 3;
  std::vector<int> count(n + 1, 0);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Hash128 h = fnv128("spread" + std::to_string(i));
    for (int k = 1; k <= n; ++k) {
      if (cell_in_shard(h, i, {k, n})) ++count[k];
    }
  }
  for (int k = 1; k <= n; ++k) {
    EXPECT_GT(count[k], 0);
    EXPECT_LT(count[k], 200);
  }
}

TEST(ShardTest, ShardedRunsMergeToTheFullGrid) {
  // Two half-shards against a shared cache: each computes its own cells;
  // a final full read-run serves everything from the merged cache.
  TempDir tmp;
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    specs.push_back(small_spec(derive_seed(/*base=*/9, i)));
  }
  const CellCollect collect = [](const ScenarioSpec&, ScenarioRun& run) {
    return CellResult::scalar(static_cast<double>(
        run.built.net->recorder().delivered(1).total()));
  };

  ResultCache rw(tmp.str(), ResultCache::Mode::kReadWrite);
  int computed = 0;
  RunConfig cfg;
  for (int k = 1; k <= 2; ++k) {
    cfg.shard = {k, 2};
    const auto part =
        run_scenarios_cached(specs, collect, nullptr, nullptr, cfg, rw);
    for (const auto& r : part) {
      if (r.valid && !r.from_cache) ++computed;
    }
  }
  EXPECT_EQ(computed, 4);  // each cell computed exactly once overall

  ResultCache rd(tmp.str(), ResultCache::Mode::kRead);
  cfg.shard = {1, 1};
  const auto merged =
      run_scenarios_cached(specs, collect, nullptr, nullptr, cfg, rd);
  ResultCache off(tmp.str(), ResultCache::Mode::kOff);
  const auto direct =
      run_scenarios_cached(specs, collect, nullptr, nullptr, cfg, off);
  ASSERT_EQ(merged.size(), direct.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_TRUE(merged[i].valid);
    EXPECT_TRUE(merged[i].from_cache);
    EXPECT_EQ(merged[i].values, direct[i].values) << "cell " << i;
  }
}

TEST(ShardTest, OutOfShardCellsReadNaNPoison) {
  TempDir tmp;
  ResultCache off(tmp.str(), ResultCache::Mode::kOff);
  const std::vector<ScenarioSpec> specs = {small_spec(1), small_spec(2),
                                           small_spec(3), small_spec(4)};
  const CellCollect collect = [](const ScenarioSpec&, ScenarioRun& run) {
    return CellResult::scalar(static_cast<double>(
        run.built.net->recorder().delivered(1).total()));
  };
  RunConfig cfg;
  cfg.shard = {1, 2};
  const auto part =
      run_scenarios_cached(specs, collect, nullptr, nullptr, cfg, off);
  int valid = 0, skipped = 0;
  for (const auto& r : part) {
    if (r.valid) {
      ++valid;
      EXPECT_GT(r.value(), 0.0);
    } else {
      ++skipped;
      EXPECT_TRUE(std::isnan(r.value()));
      EXPECT_TRUE(std::isnan(r.value(3)));
    }
  }
  EXPECT_EQ(valid + skipped, 4);
  EXPECT_GT(skipped, 0);  // this grid does split under 1/2 (fixed hashes)
}

}  // namespace
}  // namespace nimbus::exp
