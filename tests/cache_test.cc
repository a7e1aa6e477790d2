// Tests for the content-addressed sweep engine: the ScenarioSpec
// canonicalizer + hash (exp/spec_canon.h) and the disk result cache
// (exp/result_cache.h).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/spec_canon.h"
#include "sim/link_schedule.h"

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
  EXPECT_EQ(sizeof(sim::Outage), kCanonSizeofOutage);
  EXPECT_EQ(sizeof(sim::ImpairmentConfig), kCanonSizeofImpairmentConfig);
  EXPECT_EQ(sizeof(ImpairmentSpec), kCanonSizeofImpairmentSpec);
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
       {"scenario-canon/v5", "name=", "mu_bps=", "rtt=", "buffer_bdp=",
        "queue=", "pie_target_delay=", "random_loss=",
        "random_loss_seed=", "impairment.forward.",
        "impairment.reverse.", "protagonist.", "cross[0].",
        "cross[1].", "workload_enabled=", "duration=", "seed=",
        "log_copa_mode=", "link.",
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
  // Re-pinned for scenario-canon/v5 (policer and steps link kind
  // dropped).
  EXPECT_EQ(def.hex(), "056f25915596027d8c919cb79930be59");
  EXPECT_EQ(small.hex(), "03d679ccd2e56000d2c095b23435d69d");
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
  // The content hash is fnv128 of the whole file, however many read
  // chunks the file spans.
  std::string bytes;
  for (int i = 0; bytes.size() < 2 * sim::kTraceReadChunk + 99; ++i) {
    bytes += std::to_string(i) + "\n";
  }
  std::ofstream(trace) << bytes;
  EXPECT_NE(canonical_spec(spec).find(".trace_content=" +
                                      fnv128(bytes).hex() + "\n"),
            std::string::npos);
  // Unreadable trace: not cacheable (and build_network would fail too).
  spec.link.trace_path = (tmp.path / "missing.trace").string();
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

// A checksum-valid entry whose value count the payload cannot hold (a
// crafted or bit-flipped "n" line; strtoull reads "-1" as 2^64 - 1) is a
// corrupt miss, not an allocation failure.
TEST(ResultCacheTest, OversizedValueCountIsCorrupt) {
  TempDir tmp;
  const Hash128 h = spec_hash(small_spec(7));
  ResultCache(tmp.str(), ResultCache::Mode::kReadWrite)
      .store(h, 7, CellResult::scalar(1.0));
  const fs::path entry = find_entry(tmp.path);
  std::string header;
  {
    std::ifstream in(entry);
    std::string line;
    for (int i = 0; i < 4 && std::getline(in, line); ++i) header += line + "\n";
  }
  auto rewrite = [&](const std::string& n) {
    const std::string payload = header + "n " + n + "\n3ff0000000000000\n";
    std::ofstream(entry, std::ios::trunc)
        << payload << "ok " << fnv128(payload).hex() << "\n";
  };
  rewrite("1");  // control: the honest count reads back
  EXPECT_TRUE(ResultCache(tmp.str(), ResultCache::Mode::kRead).load(h, 7));
  for (const char* n : {"-1", "4611686018427387904", "2"}) {
    rewrite(n);
    ResultCache cache(tmp.str(), ResultCache::Mode::kRead);
    EXPECT_FALSE(cache.load(h, 7).has_value()) << "n " << n;
    EXPECT_EQ(cache.stats().corrupt, 1) << "n " << n;
  }
}

TEST(ResultCacheTest, InvalidCellsAreNeverStored) {
  TempDir tmp;
  ResultCache cache(tmp.str(), ResultCache::Mode::kReadWrite);
  // A cell the watchdog stopped must not poison the cache.
  const CellResult stopped = CellResult::failed(CellResult::Fail::kTimeout);
  cache.store(spec_hash(small_spec(7)), 7, stopped);
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
  RunConfig cfg;  // uncached defaults regardless of the test environment
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

  // A read-only cache over the same directory (a later process with
  // NIMBUS_CACHE=read) serves every cell and computes none.
  ResultCache rd(tmp.str(), ResultCache::Mode::kRead);
  const auto read = run_grid(rd);
  EXPECT_EQ(rd.stats().hits, 4);
  EXPECT_EQ(rd.stats().misses, 0);
  EXPECT_EQ(rd.stats().stores, 0);

  ASSERT_EQ(uncached.size(), 4u);
  for (std::size_t i = 0; i < uncached.size(); ++i) {
    ASSERT_FALSE(uncached[i].values.empty());
    EXPECT_EQ(uncached[i].values, cold[i].values) << "cell " << i;
    EXPECT_EQ(uncached[i].values, warm[i].values) << "cell " << i;
    EXPECT_EQ(uncached[i].values, read[i].values) << "cell " << i;
    EXPECT_FALSE(cold[i].from_cache);
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_TRUE(read[i].from_cache);
  }
}

TEST(ResultCacheTest, SetupHookCellsCacheLikeAnyOther) {
  // A setup hook is code in the fingerprinted binary, like collect: a
  // hooked cell's values depend only on (spec, seed, binary), so it is
  // stored on a miss and served on a hit without running the hook.
  TempDir tmp;
  ResultCache rw(tmp.str(), ResultCache::Mode::kReadWrite);
  RunConfig cfg;
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

}  // namespace
}  // namespace nimbus::exp
