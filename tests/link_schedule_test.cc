// RateSchedule family + Mahimahi trace loader + BottleneckLink schedule
// integration.  Covers:
//   * per-kind schedule semantics (sine/random-walk/trace) and validation
//     death tests;
//   * trace-file round-trip (write -> parse), comment/whitespace
//     tolerance, lines straddling read chunks, malformed-input and
//     read-error death tests with exact line numbers;
//   * the streamed file fold == the parsed-vector fold == the modulo
//     definition, bit for bit, on the checked-in traces;
//   * random-walk determinism under exp::derive_seed, including
//     random-access == sequential-access memoisation;
//   * the checked-in data/traces/ files (loadable, sane means);
//   * mid-serialization rate changes on the link (driven by a test-local
//     piecewise schedule): residual bytes finish at the post-change rate,
//     busy_time_ corrected accordingly;
//   * scenario plumbing (LinkSpec -> µ(t), mu_at) and a golden pin that a
//     never-changing installed schedule reproduces the fixed-rate link's
//     outputs byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "sim/link_schedule.h"
#include "sim/network.h"

namespace nimbus {
namespace {

using sim::RateSchedule;

// Piecewise-constant µ(t) for the link-retiming tests: `initial_bps`
// until the first breakpoint, then each step's rate from its `at` on
// (right-continuous).  The library ships only the kinds the benches run;
// hand-placed steps make the retiming arithmetic checkable by hand.
class PiecewiseSchedule final : public RateSchedule {
 public:
  struct Step {
    TimeNs at;
    double rate_bps;
  };

  PiecewiseSchedule(double initial_bps, std::vector<Step> steps)
      : initial_(initial_bps), steps_(std::move(steps)) {}

  double rate_at(TimeNs t) const override {
    double rate = initial_;
    for (const Step& s : steps_) {
      if (s.at > t) break;
      rate = s.rate_bps;
    }
    return rate;
  }

  TimeNs next_change_after(TimeNs t) const override {
    for (const Step& s : steps_) {
      if (s.at > t) return s.at;
    }
    return kNoChange;
  }

  double mean_rate_bps() const override { return initial_; }

 private:
  double initial_;
  std::vector<Step> steps_;
};

std::unique_ptr<RateSchedule> piecewise(
    double initial_bps, std::vector<PiecewiseSchedule::Step> steps = {}) {
  return std::make_unique<PiecewiseSchedule>(initial_bps, std::move(steps));
}

std::string temp_trace_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Writes `content` verbatim (embedded NULs included) and returns the path.
std::string write_raw(const std::string& name, const std::string& content) {
  const std::string path = temp_trace_path(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// --- schedule kinds ------------------------------------------------------

TEST(RateScheduleTest, SineQuantisedAndBounded) {
  const double mean = 40e6, amp = 0.25;
  const TimeNs period = from_sec(10), quantum = from_ms(100);
  const auto s = RateSchedule::sine(mean, amp, period, quantum);
  EXPECT_DOUBLE_EQ(s->mean_rate_bps(), mean);
  // Constant within one quantum (piecewise-constant for the link).
  EXPECT_DOUBLE_EQ(s->rate_at(quantum), s->rate_at(quantum + quantum / 2));
  EXPECT_EQ(s->next_change_after(0), quantum);
  EXPECT_EQ(s->next_change_after(quantum + 1), 2 * quantum);
  // Quarter period = peak; stays within mean * (1 +/- amp) everywhere.
  EXPECT_NEAR(s->rate_at(period / 4), mean * (1 + amp), mean * 0.01);
  for (TimeNs t = 0; t < 2 * period; t += quantum) {
    EXPECT_GE(s->rate_at(t), mean * (1 - amp) - 1.0);
    EXPECT_LE(s->rate_at(t), mean * (1 + amp) + 1.0);
  }
  // Zero amplitude degenerates to a constant schedule.
  const auto flat = RateSchedule::sine(mean, 0.0, period, quantum);
  EXPECT_EQ(flat->next_change_after(0), RateSchedule::kNoChange);
  EXPECT_DOUBLE_EQ(flat->rate_at(from_sec(3)), mean);
}

TEST(RateScheduleTest, RandomWalkDeterministicUnderDeriveSeed) {
  const double mean = 48e6, amp = 0.3;
  const TimeNs step = from_ms(200);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::uint64_t seed = exp::derive_seed(1234, i);
    const auto a = RateSchedule::random_walk(mean, amp, step, 0.05, seed);
    const auto b = RateSchedule::random_walk(mean, amp, step, 0.05, seed);
    // Random access on one replays the identical trajectory sequential
    // access sees on the other (memoised lazy generation).
    EXPECT_DOUBLE_EQ(a->rate_at(from_sec(20)), b->rate_at(from_sec(20)));
    for (TimeNs t = 0; t < from_sec(20); t += step) {
      EXPECT_DOUBLE_EQ(a->rate_at(t), b->rate_at(t));
      EXPECT_GE(a->rate_at(t), mean * (1 - amp) - 1.0);
      EXPECT_LE(a->rate_at(t), mean * (1 + amp) + 1.0);
    }
  }
  // Different derived seeds give different walks.
  const auto a = RateSchedule::random_walk(mean, amp, step, 0.05,
                                           exp::derive_seed(1234, 0));
  const auto b = RateSchedule::random_walk(mean, amp, step, 0.05,
                                           exp::derive_seed(1234, 1));
  bool differs = false;
  for (TimeNs t = 0; t < from_sec(5) && !differs; t += step) {
    differs = a->rate_at(t) != b->rate_at(t);
  }
  EXPECT_TRUE(differs);
}

// --- trace parsing -------------------------------------------------------

TEST(TraceParseTest, RoundTripAndTolerantParsing) {
  const std::vector<std::int64_t> opportunities = {0, 1, 1, 3, 7, 7, 7, 12};
  const std::string path = temp_trace_path("roundtrip.trace");
  sim::write_trace_file(path, opportunities);
  EXPECT_EQ(sim::parse_trace_file(path), opportunities);

  // Comments, blank lines, and surrounding whitespace are skipped.
  const std::string messy = temp_trace_path("messy.trace");
  std::FILE* f = std::fopen(messy.c_str(), "w");
  std::fputs("# Mahimahi trace\n\n  5  \n7\r\n\n# tail comment\n9\n", f);
  std::fclose(f);
  EXPECT_EQ(sim::parse_trace_file(messy),
            (std::vector<std::int64_t>{5, 7, 9}));
}

TEST(TraceParseTest, MalformedInputsDie) {
  const auto write = [](const std::string& name, const char* content) {
    const std::string path = temp_trace_path(name);
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(content, f);
    std::fclose(f);
    return path;
  };
  EXPECT_DEATH(sim::parse_trace_file(temp_trace_path("missing.trace")),
               "cannot open trace file");
  EXPECT_DEATH(sim::parse_trace_file(write("junk.trace", "12\nabc\n")),
               "malformed trace line 2");
  EXPECT_DEATH(sim::parse_trace_file(write("neg.trace", "5\n-3\n")),
               "malformed trace line 2");
  EXPECT_DEATH(sim::parse_trace_file(write("float.trace", "5\n6.5\n")),
               "malformed trace line 2");
  EXPECT_DEATH(
      sim::parse_trace_file(write("huge.trace", "5\n99999999999999999999\n")),
      "malformed trace line 2");
  EXPECT_DEATH(sim::parse_trace_file(write("desc.trace", "9\n5\n")),
               "non-decreasing");
  EXPECT_DEATH(sim::parse_trace_file(write("empty.trace", "# only\n")),
               "empty trace");
  // A single opportunity at t=0 has a zero looping period.
  EXPECT_DEATH(RateSchedule::from_trace_ms({0}), "period is zero");
}

TEST(TraceParseTest, DirectoryIsAReadError) {
  // fopen succeeds on a directory; the first read fails (EISDIR).
  EXPECT_DEATH(sim::parse_trace_file(testing::TempDir()),
               "cannot read trace file");
  EXPECT_DEATH(RateSchedule::from_trace_file(testing::TempDir()),
               "cannot read trace file");
}

// The scanner reads kTraceReadChunk-byte chunks; a line's state must carry
// across every boundary it straddles.
TEST(TraceParseTest, LinesStraddlingReadChunks) {
  const std::size_t chunk = sim::kTraceReadChunk;
  // A comment filling the first chunk but its last 2 bytes, so "12345"
  // splits "12" | "345".
  const std::string filler = "#" + std::string(chunk - 4, 'x') + "\n";
  EXPECT_EQ(sim::parse_trace_file(write_raw("split-digits.trace",
                                            filler + "12345\n67890\n")),
            (std::vector<std::int64_t>{12345, 67890}));
  // CR at the end of one chunk, its LF at the start of the next.
  EXPECT_EQ(sim::parse_trace_file(write_raw(
                "split-crlf.trace", std::string(chunk - 2, ' ') + "8\r\n9")),
            (std::vector<std::int64_t>{8, 9}));
  // Single lines longer than a chunk: leading zeros, leading blanks, a
  // comment.
  const std::string zeros = std::string(chunk + 100, '0') + "42\n";
  const std::string blanks = std::string(2 * chunk, ' ') + "43\t\n";
  const std::string comment = "#" + std::string(chunk + 7, '9') + "\n44";
  EXPECT_EQ(
      sim::parse_trace_file(write_raw("long.trace", zeros + blanks + comment)),
      (std::vector<std::int64_t>{42, 43, 44}));
}

TEST(TraceParseTest, CLocaleWhitespaceCommentsAndLastLine) {
  // \t \v \f \r and space trim on either side; '#' after leading blanks
  // is a comment; the last line needs no newline.
  EXPECT_EQ(sim::parse_trace_file(write_raw(
                "ws.trace", "\t5\v\n\f6\f\r\n7\r\n \t# 8\n\v\f\r\n 9 \t")),
            (std::vector<std::int64_t>{5, 6, 7, 9}));
  EXPECT_EQ(sim::parse_trace_file(write_raw("no-newline.trace", "5\n10")),
            (std::vector<std::int64_t>{5, 10}));
}

TEST(TraceParseTest, MalformedLineNumbers) {
  // An embedded NUL is neither a digit nor whitespace.
  EXPECT_DEATH(sim::parse_trace_file(
                   write_raw("nul.trace", std::string("5\n6\0\n7\n", 7))),
               "malformed trace line 2 in");
  EXPECT_DEATH(
      sim::parse_trace_file(write_raw("nul-only.trace", std::string("\0", 1))),
      "malformed trace line 1 in");
  // Interior whitespace and a trailing comment are malformed too.
  EXPECT_DEATH(sim::parse_trace_file(write_raw("gap.trace", "5\n6 7\n")),
               "malformed trace line 2 in");
  EXPECT_DEATH(sim::parse_trace_file(write_raw("tail.trace", "5 # c\n")),
               "malformed trace line 1 in");
  // Line numbers keep counting across chunks: 20000 five-byte lines fill
  // more than one chunk before the bad line.
  std::string many;
  for (int i = 0; i < 20000; ++i) many += "1000\n";
  ASSERT_GT(many.size(), sim::kTraceReadChunk);
  EXPECT_DEATH(sim::parse_trace_file(write_raw("late.trace", many + "12a\n")),
               "malformed trace line 20001 in");
  EXPECT_DEATH(
      RateSchedule::from_trace_file(write_raw("late2.trace", many + "\n-1")),
      "malformed trace line 20002 in");
}

TEST(TraceScheduleTest, BucketedRatesAndLooping) {
  // 8 opportunities in the first 10 ms bucket, none in the second; period
  // 20 ms.  One opportunity = 1504 bytes.
  std::vector<std::int64_t> ms;
  for (int i = 0; i < 8; ++i) ms.push_back(i);
  ms.push_back(20);  // defines the period; folds to bucket 0 of next cycle
  RateSchedule::TraceConfig cfg;
  cfg.bucket = from_ms(10);
  const auto s = RateSchedule::from_trace_ms(ms, cfg);
  const double opp_bps = 1504 * 8 / to_sec(from_ms(10));  // one per bucket
  EXPECT_DOUBLE_EQ(s->rate_at(0), 9 * opp_bps);  // 8 + the folded one
  // Empty bucket floors at one opportunity per bucket.
  EXPECT_DOUBLE_EQ(s->rate_at(from_ms(10)), opp_bps);
  // Loops with period 20 ms.
  EXPECT_DOUBLE_EQ(s->rate_at(from_ms(20)), s->rate_at(0));
  EXPECT_DOUBLE_EQ(s->rate_at(from_ms(37)), s->rate_at(from_ms(17)));
  EXPECT_EQ(s->next_change_after(0), from_ms(10));
  EXPECT_DOUBLE_EQ(s->mean_rate_bps(), (9 * opp_bps + opp_bps) / 2.0);
}

// Several opportunities at a bucket-aligned final timestamp fold onto
// bucket 0 of the next cycle, whether loaded from a file or a vector.
TEST(TraceScheduleTest, AlignedFinalTimestampFoldsFromFile) {
  const std::vector<std::int64_t> ms = {0, 1, 5, 20, 20, 20};
  const std::string path = temp_trace_path("aligned.trace");
  sim::write_trace_file(path, ms);
  RateSchedule::TraceConfig cfg;
  cfg.bucket = from_ms(10);
  const auto s = RateSchedule::from_trace_file(path, cfg);
  const double opp_bps = 1504 * 8 / to_sec(from_ms(10));
  EXPECT_EQ(s->rate_at(0), 6 * opp_bps);            // 3 + the folded 3
  EXPECT_EQ(s->rate_at(from_ms(10)), opp_bps);      // empty: the floor
  EXPECT_EQ(s->rate_at(from_ms(20)), 6 * opp_bps);  // period 20 ms
  EXPECT_EQ(s->mean_rate_bps(), (6 * opp_bps + opp_bps) / 2.0);
  const auto v = RateSchedule::from_trace_ms(ms, cfg);
  for (TimeNs t = 0; t < from_ms(40); t += from_ms(10)) {
    EXPECT_EQ(bits(s->rate_at(t)), bits(v->rate_at(t)));
  }
}

// The per-bucket rates from_trace_ms must give: every opportunity binned
// at (ms·1e6 mod period) / bucket, period = last ms rounded up to whole
// buckets — the definition the incremental fold reproduces without a
// per-opportunity modulo.
std::vector<double> reference_rates(const std::vector<std::int64_t>& ms,
                                    const RateSchedule::TraceConfig& cfg) {
  const TimeNs last = ms.back() * kNanosPerMs;
  const TimeNs period = ((last + cfg.bucket - 1) / cfg.bucket) * cfg.bucket;
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(period / cfg.bucket), 0);
  for (std::int64_t m : ms) {
    counts[static_cast<std::size_t>(((m * kNanosPerMs) % period) /
                                    cfg.bucket)]++;
  }
  const double opp_bits = 1504.0 * 8.0;
  const double bucket_sec = to_sec(cfg.bucket);
  std::vector<double> rates;
  for (std::int64_t c : counts) {
    rates.push_back(std::max(static_cast<double>(c) * opp_bits / bucket_sec,
                             opp_bits / bucket_sec));
  }
  return rates;
}

// Streaming a file into the fold equals parsing it to a vector first, and
// both equal the modulo definition — bit for bit, for every bucket of the
// period and the mean, at bucket widths that do and do not divide 1 s.
TEST(TraceScheduleTest, StreamedFileEqualsParsedVectorBitForBit) {
  const std::string dir = std::string(NIMBUS_SOURCE_DIR) + "/data/traces";
  for (const char* name : {"cellular.trace", "wifi.trace"}) {
    const std::string path = dir + "/" + name;
    const std::vector<std::int64_t> ms = sim::parse_trace_file(path);
    for (TimeNs bucket : {from_ms(10), from_sec(1), from_ms(7)}) {
      RateSchedule::TraceConfig cfg;
      cfg.bucket = bucket;
      const auto streamed = RateSchedule::from_trace_file(path, cfg);
      const auto parsed = RateSchedule::from_trace_ms(ms, cfg);
      const std::vector<double> want = reference_rates(ms, cfg);
      double sum = 0.0;
      for (double r : want) sum += r;
      const double mean = sum / static_cast<double>(want.size());
      EXPECT_EQ(bits(streamed->mean_rate_bps()), bits(mean)) << name;
      EXPECT_EQ(bits(parsed->mean_rate_bps()), bits(mean)) << name;
      for (std::size_t k = 0; k <= want.size(); ++k) {
        const TimeNs t = static_cast<TimeNs>(k) * bucket;
        const double w = want[k % want.size()];  // k == size: wrapped
        ASSERT_EQ(bits(streamed->rate_at(t)), bits(w))
            << name << " bucket " << bucket << " k " << k;
        ASSERT_EQ(bits(parsed->rate_at(t)), bits(w))
            << name << " bucket " << bucket << " k " << k;
      }
    }
  }
}

TEST(TraceScheduleTest, CheckedInTracesLoad) {
  const std::string dir = std::string(NIMBUS_SOURCE_DIR) + "/data/traces";
  for (const char* name : {"cellular.trace", "wifi.trace"}) {
    const auto s = RateSchedule::from_trace_file(dir + "/" + name);
    // Sanity: paper-scale cellular/wifi means, deterministic reload.
    EXPECT_GT(s->mean_rate_bps(), 5e6) << name;
    EXPECT_LT(s->mean_rate_bps(), 50e6) << name;
    const auto again = RateSchedule::from_trace_file(dir + "/" + name);
    for (TimeNs t = 0; t < from_sec(30); t += from_ms(500)) {
      EXPECT_DOUBLE_EQ(s->rate_at(t), again->rate_at(t)) << name;
    }
  }
}

// --- link integration ----------------------------------------------------

// A packet mid-serialization when the rate changes finishes at the new
// rate: 10000 B at 8 Mbit/s would take 10 ms; after 5 ms (5000 B done) the
// link doubles to 16 Mbit/s, so the residual 5000 B takes 2.5 ms.
TEST(LinkScheduleIntegrationTest, MidFlightRateChangeRetimesDelivery) {
  sim::EventLoop loop;
  sim::BottleneckLink link(&loop, 8e6,
                           std::make_unique<sim::DropTailQueue>(1 << 20));
  link.set_schedule(piecewise(8e6, {{from_ms(5), 16e6}}));
  std::vector<TimeNs> deliveries;
  link.set_delivery_handler(
      [&](const sim::Packet&, TimeNs t) { deliveries.push_back(t); });
  sim::Packet p;
  p.flow_id = 1;
  p.size_bytes = 10000;
  loop.schedule(0, [&]() { link.enqueue(p); });
  loop.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], from_ms(7.5));
  EXPECT_EQ(link.busy_time(), from_ms(7.5));
  EXPECT_DOUBLE_EQ(link.rate_bps(), 16e6);
}

// A change to a *slower* rate stretches the in-flight packet.
TEST(LinkScheduleIntegrationTest, MidFlightSlowdown) {
  sim::EventLoop loop;
  sim::BottleneckLink link(&loop, 16e6,
                           std::make_unique<sim::DropTailQueue>(1 << 20));
  link.set_schedule(piecewise(16e6, {{from_ms(2), 8e6}}));
  std::vector<TimeNs> deliveries;
  link.set_delivery_handler(
      [&](const sim::Packet&, TimeNs t) { deliveries.push_back(t); });
  sim::Packet p;
  p.flow_id = 1;
  p.size_bytes = 10000;  // 5 ms at 16 Mbit/s
  loop.schedule(0, [&]() { link.enqueue(p); });
  loop.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // 2 ms at 16 Mbit/s serializes 4000 B; 6000 B left at 8 Mbit/s = 6 ms.
  EXPECT_EQ(deliveries[0], from_ms(8));
  EXPECT_EQ(link.busy_time(), from_ms(8));
}

TEST(LinkScheduleIntegrationTest, InstallRequiresPristineLink) {
  sim::EventLoop loop;
  sim::BottleneckLink link(&loop, 8e6,
                           std::make_unique<sim::DropTailQueue>(1 << 20));
  link.set_schedule(piecewise(8e6));
  EXPECT_DEATH(link.set_schedule(piecewise(9e6)),
               "schedule already installed");
}

// --- scenario plumbing ---------------------------------------------------

TEST(LinkSpecTest, MuAtFollowsTheSchedule) {
  exp::ScenarioSpec spec;
  spec.mu_bps = 10e6;
  spec.link = exp::LinkSpec::sine(0.25, from_sec(10));
  const auto schedule = exp::make_link_schedule(spec);
  // Above the mean in the first half-period, below it in the second.
  for (const TimeNs t : {from_sec(1), from_sec(6)}) {
    EXPECT_DOUBLE_EQ(exp::mu_at(spec, t), schedule->rate_at(t));
  }
  EXPECT_GT(exp::mu_at(spec, from_sec(1)), 10e6);
  EXPECT_LT(exp::mu_at(spec, from_sec(6)), 10e6);
  spec.link = exp::LinkSpec::constant();
  EXPECT_DOUBLE_EQ(exp::mu_at(spec, from_sec(6)), 10e6);
  EXPECT_DEATH(exp::make_link_schedule(spec),
               "a constant link has no rate schedule");
}

TEST(LinkSpecTest, ScheduledScenarioTracksTheRate) {
  // Cubic protagonist on a 10 -> 30 Mbit/s step: delivered bytes in the
  // fast half must far exceed the slow half.
  exp::ScenarioSpec spec;
  spec.name = "link-spec-steps";
  spec.mu_bps = 10e6;
  spec.duration = from_sec(10);
  spec.protagonist.scheme = "cubic";
  exp::BuiltScenario built = exp::build_network(spec);
  built.net->link().set_schedule(piecewise(10e6, {{from_sec(5), 30e6}}));
  built.net->run_until(spec.duration);
  const auto& d = built.net->recorder().delivered(1);
  const double slow = static_cast<double>(d.bytes_in(from_sec(1), from_sec(5)));
  const double fast = static_cast<double>(d.bytes_in(from_sec(6), from_sec(10)));
  EXPECT_GT(fast, 1.8 * slow);
  // Sanity: both halves saw actual traffic.
  EXPECT_GT(slow, 1e6);
}

TEST(LinkSpecTest, RandomWalkScenarioSeedDerivation) {
  // Same spec seed -> identical runs; different spec seed -> different
  // walk (and therefore different delivered bytes).
  exp::ScenarioSpec spec;
  spec.name = "link-spec-walk";
  spec.mu_bps = 20e6;
  spec.duration = from_sec(6);
  spec.protagonist.scheme = "cubic";
  spec.link = exp::LinkSpec::random_walk(0.4, from_ms(100), 0.1);
  const auto total = [](const exp::ScenarioSpec& s) {
    const exp::ScenarioRun run = exp::run_scenario(s);
    return run.built.net->recorder().delivered(1).total();
  };
  EXPECT_EQ(total(spec), total(spec));
  const auto reseeded = spec.with_seed(exp::derive_seed(9, 1));
  EXPECT_NE(total(spec), total(reseeded));
}

// --- golden: unchanging schedules reproduce fixed-rate outputs ----------

// The same PIE scenario scenario_golden_test.cc pins, but with an
// explicitly installed schedule that never changes: the schedule machinery
// in the link must leave every delivered byte, drop, and probe sample
// byte-identical to the plain fixed-rate link (PR 4 values).
TEST(LinkScheduleGoldenTest, ConstantScheduleReproducesPr4PieOutputs) {
  exp::ScenarioSpec spec;
  spec.name = "golden/pie-const-schedule";
  spec.mu_bps = 48e6;
  spec.duration = from_sec(10);
  spec.queue = exp::QueueKind::kPie;
  spec.buffer_bdp = 4.0;
  spec.pie_target_delay = from_ms(15);
  spec.protagonist.scheme = "cubic";
  spec.cross.push_back(exp::CrossSpec::poisson(24e6, 2));

  exp::BuiltScenario built = exp::build_network(spec);
  built.net->link().set_schedule(piecewise(spec.mu_bps));
  built.net->run_until(spec.duration);
  const auto& rec = built.net->recorder();
  EXPECT_EQ(rec.delivered(1).total(), 15463500);
  EXPECT_EQ(rec.delivered(2).total(), 28768500);
  EXPECT_EQ(rec.total_drops(), 2210u);
  EXPECT_DOUBLE_EQ(
      rec.probed_queue_delay().mean_in(from_sec(2), from_sec(10)).value(),
      0.88875000000000004);
}

// Same pin for the DropTail + video-cross golden (the second PR 4 golden
// configuration), via the LinkSpec plumbing this time: a kConstant spec
// must not install any schedule and reproduce PR 4 exactly.
TEST(LinkScheduleGoldenTest, ConstantLinkSpecReproducesPr4VideoOutputs) {
  exp::ScenarioSpec spec;
  spec.name = "golden/video-const-schedule";
  spec.mu_bps = 48e6;
  spec.duration = from_sec(10);
  spec.protagonist.scheme = "cubic";
  exp::CrossSpec video;
  video.kind = exp::CrossSpec::Kind::kVideo;
  video.rate_bps = 8e6;
  spec.cross.push_back(video);
  spec.link = exp::LinkSpec::constant();
  const exp::ScenarioRun run = exp::run_scenario(spec);
  const auto& rec = run.built.net->recorder();
  EXPECT_EQ(run.built.net->link().schedule(), nullptr);
  EXPECT_EQ(rec.delivered(1).total(), 34962000);
  EXPECT_EQ(rec.delivered(2).total(), 24282000);
}

}  // namespace
}  // namespace nimbus
