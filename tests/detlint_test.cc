// Runs the detlint binary against the fixture corpus in
// tests/detlint_fixtures/, asserting per rule that violations are reported
// and clean code is not.  This keeps every lint rule demonstrably alive: a
// lexer or rule regression surfaces here as a failing ctest, not as a
// silently toothless linter.
//
// The binary path and source root come from the build system
// (NIMBUS_DETLINT_BIN / NIMBUS_SOURCE_DIR compile definitions).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

std::string fixture(const std::string& name) {
  return std::string(NIMBUS_SOURCE_DIR) + "/tests/detlint_fixtures/" + name;
}

LintRun run_detlint(const std::string& args) {
  const std::string cmd = std::string(NIMBUS_DETLINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  LintRun r;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(DetlintTest, R1FlagsNondeterminismApis) {
  LintRun r = run_detlint("--scope src " + fixture("r1_bad.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_of(r.output, "[R1]"), 6u) << r.output;
  EXPECT_NE(r.output.find("'rand()'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'time()'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("system_clock::now"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("steady_clock::now"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("random_device"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("getenv"), std::string::npos) << r.output;
}

TEST(DetlintTest, R1PassesDeterministicCode) {
  LintRun r = run_detlint("--scope src " + fixture("r1_good.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DetlintTest, R1FlagsEnvironmentReadsOutsideTheConfigParser) {
  // src/exp/ is no longer exempt: a getenv (or environ walk) anywhere but
  // src/exp/run_config.cc bypasses the one strict NIMBUS_* parser.
  LintRun r = run_detlint("--scope src " + fixture("src/exp/r1_exp_getenv.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // getenv, plus environ at its declaration and at its use.
  EXPECT_EQ(count_of(r.output, "[R1]"), 3u) << r.output;
  EXPECT_NE(r.output.find("'getenv' outside src/exp/run_config.cc"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'environ' outside"), std::string::npos)
      << r.output;
}

TEST(DetlintTest, R1AllowsEnvironmentReadsInTheConfigParser) {
  LintRun r = run_detlint("--scope src " + fixture("src/exp/run_config.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DetlintTest, R2FlagsUnorderedIteration) {
  LintRun r = run_detlint("--scope src " + fixture("r2_bad.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_of(r.output, "[R2]"), 2u) << r.output;
  EXPECT_NE(r.output.find("range-for"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(".begin()"), std::string::npos) << r.output;
}

TEST(DetlintTest, R2PassesLookupOnlyUse) {
  LintRun r = run_detlint("--scope src " + fixture("r2_good.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DetlintTest, R3FlagsPointerKeys) {
  LintRun r = run_detlint(fixture("r3_bad.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_of(r.output, "[R3]"), 2u) << r.output;
  EXPECT_NE(r.output.find("pointer-keyed"), std::string::npos) << r.output;
}

TEST(DetlintTest, R3PassesIdKeys) {
  LintRun r = run_detlint(fixture("r3_good.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DetlintTest, R4FlagsDefaultSeededRngs) {
  LintRun r = run_detlint(fixture("r4_bad.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("mt19937"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("default_random_engine"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("default-seeded Rng"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("declared without a seed"), std::string::npos)
      << r.output;
}

TEST(DetlintTest, R4PassesSeededRngs) {
  LintRun r = run_detlint(fixture("r4_good.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DetlintTest, R5FlagsHotPathAllocation) {
  LintRun r = run_detlint(fixture("r5_bad.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_of(r.output, "[R5]"), 4u) << r.output;
  EXPECT_NE(r.output.find("'new'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("make_unique"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("push_back"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("resize"), std::string::npos) << r.output;
}

TEST(DetlintTest, R5PassesPresizedHotPath) {
  LintRun r = run_detlint(fixture("r5_good.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DetlintTest, R6FlagsFieldMissingFromCanonicalizer) {
  LintRun r = run_detlint("--r6-spec " + fixture("r6_spec.h") +
                          " --r6-canon " + fixture("r6_canon_bad.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_of(r.output, "[R6]"), 1u) << r.output;
  EXPECT_NE(r.output.find("ScenarioSpec::n_flows"), std::string::npos)
      << r.output;
  // The serialized fields must not be reported.
  EXPECT_EQ(r.output.find("ScenarioSpec::rate_mbps"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("ScenarioSpec::seed"), std::string::npos)
      << r.output;
}

TEST(DetlintTest, R6PassesFullCoverage) {
  LintRun r = run_detlint("--r6-spec " + fixture("r6_spec.h") +
                          " --r6-canon " + fixture("r6_canon_good.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DetlintTest, R7FlagsStdoutWritesInSrcScope) {
  LintRun r = run_detlint("--scope src " + fixture("r7_bad.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_of(r.output, "[R7]"), 7u) << r.output;
  EXPECT_NE(r.output.find("'printf()'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'puts()'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("std::cout"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'fwrite(..., stdout)'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'fprintf(..., stdout)'"), std::string::npos)
      << r.output;
}

TEST(DetlintTest, R7PassesStderrAndBufferFormatting) {
  LintRun r = run_detlint("--scope src " + fixture("r7_good.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DetlintTest, R7IgnoresBenchAndTestScope) {
  // Benches print goldens to stdout by design; R7 is src/-only.
  LintRun r = run_detlint("--scope bench " + fixture("r7_bad.cc"));
  EXPECT_EQ(r.output.find("[R7]"), std::string::npos) << r.output;
}

TEST(DetlintTest, ReasonedAllowPragmaSuppresses) {
  LintRun r = run_detlint("--scope src " + fixture("allow_ok.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1 suppressed"), std::string::npos) << r.output;
}

TEST(DetlintTest, ReasonlessAllowPragmaIsAFindingAndSuppressesNothing) {
  LintRun r =
      run_detlint("--scope src " + fixture("allow_missing_reason.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Both the malformed pragma and the finding it failed to suppress.
  EXPECT_NE(r.output.find("[pragma]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("without a reason"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[R1]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 suppressed"), std::string::npos) << r.output;
}

TEST(DetlintTest, FullTreeIsClean) {
  LintRun r = run_detlint("--root " + std::string(NIMBUS_SOURCE_DIR));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

}  // namespace
