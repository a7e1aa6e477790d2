// Tests for the run-configuration parser (exp/run_config.h): every
// NIMBUS_* knob read from fake environment arrays, one accept and one
// reject case per knob, plus the rules shared by all of them (empty means
// unset, unknown NIMBUS_* names are fatal, script-level names pass).
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "exp/run_config.h"

namespace nimbus::exp {
namespace {

RunConfig parse(std::initializer_list<const char*> entries) {
  std::vector<const char*> envp(entries);
  envp.push_back(nullptr);
  return parse_run_config(envp.data());
}

// Fields of a parsed config that must equal a default RunConfig's (jobs
// aside: an unset NIMBUS_JOBS resolves to the hardware concurrency).
void expect_defaults(const RunConfig& c) {
  const RunConfig d;
  EXPECT_EQ(c.cache, d.cache);
  EXPECT_EQ(c.cache_dir, d.cache_dir);
  EXPECT_EQ(c.shard.k, d.shard.k);
  EXPECT_EQ(c.shard.n, d.shard.n);
  EXPECT_EQ(c.budget.max_events, d.budget.max_events);
  EXPECT_EQ(c.budget.max_wall_seconds, d.budget.max_wall_seconds);
  EXPECT_EQ(c.obs, d.obs);
  EXPECT_EQ(c.obs_dir, d.obs_dir);
  EXPECT_EQ(c.obs_ring, d.obs_ring);
  EXPECT_EQ(c.bench_full, d.bench_full);
  EXPECT_EQ(c.shape_strict, d.shape_strict);
  EXPECT_EQ(c.trace_dir, d.trace_dir);
}

struct Accept {
  const char* entry;
  bool (*holds)(const RunConfig&);
};

// One accepted value per knob and what it must set.
const Accept kAccepts[] = {
    {"NIMBUS_JOBS=3", [](const RunConfig& c) { return c.jobs == 3; }},
    {"NIMBUS_CACHE=readwrite",
     [](const RunConfig& c) { return c.cache == CacheMode::kReadWrite; }},
    {"NIMBUS_CACHE_DIR=/var/tmp/cells",
     [](const RunConfig& c) { return c.cache_dir == "/var/tmp/cells"; }},
    {"NIMBUS_SHARD=2/5",
     [](const RunConfig& c) { return c.shard.k == 2 && c.shard.n == 5; }},
    {"NIMBUS_CELL_MAX_EVENTS=1e6",
     [](const RunConfig& c) { return c.budget.max_events == 1000000u; }},
    {"NIMBUS_CELL_WALL_SEC=2.5",
     [](const RunConfig& c) { return c.budget.max_wall_seconds == 2.5; }},
    {"NIMBUS_OBS=trace",
     [](const RunConfig& c) { return c.obs == obs::Mode::kTrace; }},
    {"NIMBUS_OBS_DIR=artifacts",
     [](const RunConfig& c) { return c.obs_dir == "artifacts"; }},
    {"NIMBUS_OBS_RING=64", [](const RunConfig& c) { return c.obs_ring == 64; }},
    {"NIMBUS_BENCH_FULL=1", [](const RunConfig& c) { return c.bench_full; }},
    {"NIMBUS_SHAPE_STRICT=1",
     [](const RunConfig& c) { return c.shape_strict; }},
    {"NIMBUS_TRACE_DIR=traces",
     [](const RunConfig& c) { return c.trace_dir == "traces"; }},
};

struct Reject {
  const char* entry;
  const char* message;  // death-test regex; names the variable
};

// One rejected value per knob with a value syntax.  The three path knobs
// (NIMBUS_CACHE_DIR, NIMBUS_OBS_DIR, NIMBUS_TRACE_DIR) take any non-empty
// path; their reject-side case is EmptyValueMeansUnset below.
const Reject kRejects[] = {
    {"NIMBUS_JOBS=four", "NIMBUS_JOBS=\"four\": expected a positive whole"},
    {"NIMBUS_CACHE=on", "NIMBUS_CACHE=\"on\": expected off\\|read\\|readwrite"},
    {"NIMBUS_SHARD=3/2", "NIMBUS_SHARD=\"3/2\""},
    {"NIMBUS_CELL_MAX_EVENTS=1e6x", "NIMBUS_CELL_MAX_EVENTS=\"1e6x\""},
    {"NIMBUS_CELL_WALL_SEC=nan", "NIMBUS_CELL_WALL_SEC=\"nan\": expected a "
                                 "positive number"},
    {"NIMBUS_OBS=verbose", "NIMBUS_OBS=\"verbose\""},
    {"NIMBUS_OBS_RING=64k", "NIMBUS_OBS_RING=\"64k\""},
    {"NIMBUS_BENCH_FULL=10", "NIMBUS_BENCH_FULL=\"10\": expected 0 or 1"},
    {"NIMBUS_SHAPE_STRICT=true", "NIMBUS_SHAPE_STRICT=\"true\""},
};

TEST(RunConfigTest, EachKnobAcceptsItsValue) {
  for (const Accept& a : kAccepts) {
    EXPECT_TRUE(a.holds(parse({a.entry}))) << a.entry;
  }
}

TEST(RunConfigDeathTest, EachKnobRejectsGarbageNamingTheVariable) {
  for (const Reject& r : kRejects) {
    EXPECT_DEATH(parse({r.entry}), r.message) << r.entry;
  }
}

TEST(RunConfigTest, EmptyEnvironmentGivesDefaults) {
  const RunConfig c = parse({});
  EXPECT_GE(c.jobs, 1);
  expect_defaults(c);
  EXPECT_EQ(RunConfig{}.jobs, 1);
}

TEST(RunConfigTest, EmptyValueMeansUnset) {
  // For every knob: NIMBUS_CACHE_DIR= must not put the cache under "/",
  // and NIMBUS_SHARD= (scripts/bench_report.sh) must not fail.
  const RunConfig c = parse({"NIMBUS_JOBS=", "NIMBUS_CACHE=",
                             "NIMBUS_CACHE_DIR=", "NIMBUS_SHARD=",
                             "NIMBUS_CELL_MAX_EVENTS=",
                             "NIMBUS_CELL_WALL_SEC=", "NIMBUS_OBS=",
                             "NIMBUS_OBS_DIR=", "NIMBUS_OBS_RING=",
                             "NIMBUS_BENCH_FULL=", "NIMBUS_SHAPE_STRICT=",
                             "NIMBUS_TRACE_DIR="});
  EXPECT_EQ(c.jobs, parse({}).jobs);
  expect_defaults(c);
  EXPECT_EQ(c.cache_dir, ".nimbus-cache");
  EXPECT_EQ(c.trace_dir, "data/traces");
}

TEST(RunConfigTest, OffAndZeroSpellTheDefaults) {
  const RunConfig c = parse({"NIMBUS_CACHE=off", "NIMBUS_OBS=off",
                             "NIMBUS_BENCH_FULL=0", "NIMBUS_SHAPE_STRICT=0",
                             "NIMBUS_SHARD=1/1"});
  expect_defaults(c);
}

TEST(RunConfigTest, OtherNamesAndScriptLevelNamesAreIgnored) {
  const RunConfig c =
      parse({"HOME=/home/user", "NIMBUS=1", "NIMBUSJOBS=9", "PATHLESS",
             "NIMBUS_CMAKE_ARGS=-DNIMBUS_WERROR=ON",
             "NIMBUS_SUITE_OUTDIR=/tmp/suite", "NIMBUS_BENCH_TIMEOUT=600"});
  EXPECT_EQ(c.jobs, parse({}).jobs);
  expect_defaults(c);
}

TEST(RunConfigTest, FirstOfDuplicateEntriesWins) {
  // getenv's choice; the later duplicate is not mistaken for a typo.
  EXPECT_EQ(parse({"NIMBUS_JOBS=3", "NIMBUS_JOBS=5"}).jobs, 3);
}

TEST(RunConfigDeathTest, UnknownNimbusNameIsFatal) {
  EXPECT_DEATH(parse({"NIMBUS_JOB=4"}), "NIMBUS_JOB: unknown");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=2", "NIMBUS_CACHEDIR=d"}),
               "NIMBUS_CACHEDIR: unknown");
  EXPECT_DEATH(parse({"NIMBUS_SHARDS="}), "NIMBUS_SHARDS: unknown");
}

// ---------------------------------------------------------------------------
// Numbers: whole-string positive decimals or a loud failure.
// ---------------------------------------------------------------------------

TEST(EnvKnobTest, PositiveNumbersParseWholeString) {
  const RunConfig c = parse({"NIMBUS_CELL_MAX_EVENTS=1e6",
                             "NIMBUS_CELL_WALL_SEC=2.5", "NIMBUS_OBS_RING=64",
                             "NIMBUS_JOBS=1e1"});
  EXPECT_EQ(c.budget.max_events, 1000000u);
  EXPECT_EQ(c.budget.max_wall_seconds, 2.5);
  EXPECT_TRUE(c.budget.limited());
  EXPECT_EQ(c.obs_ring, 64u);
  EXPECT_EQ(c.jobs, 10);
  EXPECT_FALSE(parse({"NIMBUS_CELL_MAX_EVENTS="}).budget.limited());
  EXPECT_EQ(parse({"NIMBUS_CELL_WALL_SEC=0.25"}).budget.max_wall_seconds,
            0.25);
}

TEST(EnvKnobDeathTest, GarbageNumbersFailNamingTheVariable) {
  EXPECT_DEATH(parse({"NIMBUS_JOBS=four"}), "NIMBUS_JOBS=\"four\"");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=0"}), "NIMBUS_JOBS");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=2.5"}), "positive whole number");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=-1"}), "NIMBUS_JOBS");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=+4"}), "NIMBUS_JOBS");
  EXPECT_DEATH(parse({"NIMBUS_JOBS= 4"}), "NIMBUS_JOBS");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=4 "}), "NIMBUS_JOBS");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=0x10"}), "NIMBUS_JOBS");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=inf"}), "NIMBUS_JOBS");
  EXPECT_DEATH(parse({"NIMBUS_JOBS=4294967297"}), "no larger than 2147483647");
  EXPECT_DEATH(parse({"NIMBUS_CELL_MAX_EVENTS=1e6x"}),
               "NIMBUS_CELL_MAX_EVENTS");
  EXPECT_DEATH(parse({"NIMBUS_CELL_MAX_EVENTS=-5"}), "NIMBUS_CELL_MAX_EVENTS");
  EXPECT_DEATH(parse({"NIMBUS_CELL_MAX_EVENTS=1e300"}),
               "NIMBUS_CELL_MAX_EVENTS");
  EXPECT_DEATH(parse({"NIMBUS_CELL_WALL_SEC=abc"}), "NIMBUS_CELL_WALL_SEC");
  EXPECT_DEATH(parse({"NIMBUS_CELL_WALL_SEC=nan"}), "positive number");
  EXPECT_DEATH(parse({"NIMBUS_CELL_WALL_SEC=.5"}), "NIMBUS_CELL_WALL_SEC");
  EXPECT_DEATH(parse({"NIMBUS_OBS_RING=64k"}), "NIMBUS_OBS_RING");
}

// ---------------------------------------------------------------------------
// NIMBUS_SHARD: k and n follow the NIMBUS_JOBS whole-number rule.
// ---------------------------------------------------------------------------

TEST(ShardParseTest, ParsesKOfN) {
  EXPECT_FALSE(parse({"NIMBUS_SHARD=1/1"}).shard.active());
  const ShardConfig s = parse({"NIMBUS_SHARD=3/3"}).shard;
  EXPECT_EQ(s.k, 3);
  EXPECT_EQ(s.n, 3);
  EXPECT_TRUE(s.active());
  const ShardConfig big = parse({"NIMBUS_SHARD=1/2147483647"}).shard;
  EXPECT_EQ(big.n, 2147483647);
}

TEST(ShardParseDeathTest, RejectsOverflowSignsAndWhitespace) {
  // Overflow: "%d" once read 4294967298 as 2, silently running shard 1/2.
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1/4294967298"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1/2147483648"}), "NIMBUS_SHARD");
  // Signs.
  EXPECT_DEATH(parse({"NIMBUS_SHARD=+1/2"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1/+2"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=-1/2"}), "NIMBUS_SHARD");
  // Whitespace.
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1/ 2"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD= 1/2"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1 /2"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1/2 "}), "NIMBUS_SHARD");
  // Shape and range.
  EXPECT_DEATH(parse({"NIMBUS_SHARD=2"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=0/2"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1.5/2"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1/2/3"}), "NIMBUS_SHARD");
  EXPECT_DEATH(parse({"NIMBUS_SHARD=1/2x"}), "NIMBUS_SHARD");
}

TEST(RunConfigTest, ProcessConfigIsParsedOnce) {
  EXPECT_EQ(&process_config(), &process_config());
}

}  // namespace
}  // namespace nimbus::exp
