#include "sim/link_schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace nimbus::sim {

namespace {

constexpr double kPi = 3.14159265358979323846;

class SineSchedule final : public RateSchedule {
 public:
  SineSchedule(double mean_bps, double amplitude_frac, TimeNs period,
               TimeNs quantum)
      : mean_(mean_bps), amp_(amplitude_frac), period_(period),
        quantum_(quantum) {
    NIMBUS_CHECK_MSG(mean_ > 0, "sine schedule mean must be > 0");
    NIMBUS_CHECK_MSG(amp_ >= 0.0 && amp_ < 1.0,
                     "sine amplitude fraction must be in [0, 1)");
    NIMBUS_CHECK_MSG(period_ > 0 && quantum_ > 0,
                     "sine period and quantum must be > 0");
  }

  double rate_at(TimeNs t) const override {
    const TimeNs q = (t / quantum_) * quantum_;
    const double phase = 2.0 * kPi * to_sec(q % period_) / to_sec(period_);
    return mean_ * (1.0 + amp_ * std::sin(phase));
  }

  TimeNs next_change_after(TimeNs t) const override {
    if (amp_ == 0.0) return kNoChange;
    return (t / quantum_ + 1) * quantum_;
  }

  double mean_rate_bps() const override { return mean_; }

 private:
  double mean_, amp_;
  TimeNs period_, quantum_;
};

class RandomWalkSchedule final : public RateSchedule {
 public:
  RandomWalkSchedule(double mean_bps, double amplitude_frac,
                     TimeNs step_interval, double step_frac,
                     std::uint64_t seed)
      : mean_(mean_bps), lo_(mean_bps * (1.0 - amplitude_frac)),
        hi_(mean_bps * (1.0 + amplitude_frac)), interval_(step_interval),
        step_frac_(step_frac), rng_(seed) {
    NIMBUS_CHECK_MSG(mean_ > 0, "random walk mean must be > 0");
    NIMBUS_CHECK_MSG(amplitude_frac >= 0.0 && amplitude_frac < 1.0,
                     "random walk amplitude fraction must be in [0, 1)");
    NIMBUS_CHECK_MSG(interval_ > 0, "random walk step interval must be > 0");
    NIMBUS_CHECK_MSG(step_frac_ >= 0.0, "random walk step fraction >= 0");
    rates_.push_back(mean_);
  }

  double rate_at(TimeNs t) const override {
    const std::size_t idx = static_cast<std::size_t>(t / interval_);
    materialize(idx);
    return rates_[idx];
  }

  TimeNs next_change_after(TimeNs t) const override {
    if (lo_ == hi_ || step_frac_ == 0.0) return kNoChange;
    return (t / interval_ + 1) * interval_;
  }

  double mean_rate_bps() const override { return mean_; }

 private:
  // The walk is generated once, in step order, and memoised: querying
  // rate_at out of order (ground-truth scoring after the run) replays the
  // identical trajectory the link saw.
  void materialize(std::size_t idx) const {
    while (rates_.size() <= idx) {
      const double step = rng_.uniform(-step_frac_, step_frac_) * mean_;
      rates_.push_back(std::clamp(rates_.back() + step, lo_, hi_));
    }
  }

  double mean_, lo_, hi_;
  TimeNs interval_;
  double step_frac_;
  mutable util::Rng rng_;
  mutable std::vector<double> rates_;
};

// Bins non-decreasing opportunity timestamps into per-bucket counts in
// one incremental pass.  Only opening a new bucket divides: the fold
// keeps the first timestamp past the open bucket, in ms, so the common
// opportunity costs its order and range checks, one compare and an
// increment.  The open bucket's count reaches the vector only when the
// next bucket opens, so the fold is a few scalars plus a pointer to the
// counts, which the trace scanner keeps in registers for the whole pass.
// finish() rounds the looping period up to whole buckets and folds the
// one bucket that can lie past it (opportunities at exactly a
// bucket-aligned final timestamp) onto bucket 0 — the counts
// `(t % period) / bucket` gives.
class TraceFold {
 public:
  TraceFold(const RateSchedule::TraceConfig& cfg, const std::string& origin,
            std::vector<std::int64_t>* counts)
      : bucket_(cfg.bucket), origin_(&origin), counts_(counts) {
    NIMBUS_CHECK_MSG(cfg.bucket > 0, "trace config: bucket must be > 0");
  }

  void add(std::int64_t ms) {
    NIMBUS_CHECK_MSG(ms >= last_ms_,
                     ("trace timestamps must be non-decreasing: " + *origin_)
                         .c_str());
    NIMBUS_CHECK_MSG(ms <= kMaxMs,
                     ("trace timestamp out of range: " + *origin_).c_str());
    last_ms_ = ms;
    if (ms >= open_end_ms_) {
      open_end_ms_ = open_bucket(counts_, open_count_, ms, bucket_);
      open_count_ = 0;
    }
    ++open_count_;
  }

  /// Completes the counts, one per bucket across the looping period, and
  /// returns the period.
  TimeNs finish() {
    NIMBUS_CHECK_MSG(!counts_->empty(), ("empty trace: " + *origin_).c_str());
    NIMBUS_CHECK_MSG(last_ms_ > 0,
                     ("trace looping period is zero (last timestamp must "
                      "be > 0): " + *origin_).c_str());
    counts_->back() = open_count_;
    // Mahimahi semantics: the final timestamp is the looping period,
    // rounded up to whole buckets; an opportunity at exactly the period
    // lands at the start of the next cycle.
    const TimeNs last = last_ms_ * kNanosPerMs;
    const TimeNs period = ((last + bucket_ - 1) / bucket_) * bucket_;
    const auto n = static_cast<std::size_t>(period / bucket_);
    if (counts_->size() > n) {
      (*counts_)[0] += (*counts_)[n];
      counts_->pop_back();
    }
    return period;
  }

 private:
  // Largest timestamp whose nanosecond value fits a TimeNs.
  static constexpr std::int64_t kMaxMs =
      std::numeric_limits<TimeNs>::max() / kNanosPerMs;

  // Stores the closing bucket's count, opens the bucket holding `ms` and
  // returns the first timestamp past it (kMaxMs + 1 if none fits).
  // Static and passed values, so the fold's own address never escapes.
  __attribute__((noinline)) static std::int64_t open_bucket(
      std::vector<std::int64_t>* counts, std::int64_t closing_count,
      std::int64_t ms, TimeNs bucket) {
    if (!counts->empty()) counts->back() = closing_count;
    const TimeNs index = ms * kNanosPerMs / bucket;
    counts->resize(static_cast<std::size_t>(index) + 1, 0);
    TimeNs end = 0;  // the next bucket's start, in ns
    if (__builtin_mul_overflow(index + 1, bucket, &end)) return kMaxMs + 1;
    return end / kNanosPerMs + (end % kNanosPerMs != 0);
  }

  TimeNs bucket_;
  const std::string* origin_;
  std::vector<std::int64_t>* counts_;
  std::int64_t last_ms_ = 0;
  std::int64_t open_end_ms_ = 0;  // first timestamp past the open bucket
  std::int64_t open_count_ = 0;   // opportunities in the open bucket
};

/// Bytes one trace delivery opportunity carries (Mahimahi's default MTU).
constexpr std::int64_t kTraceOpportunityBytes = 1504;

class TraceSchedule final : public RateSchedule {
 public:
  TraceSchedule(const std::vector<std::int64_t>& counts, TimeNs period,
                const RateSchedule::TraceConfig& cfg)
      : bucket_(cfg.bucket), period_(period) {
    const double opp_bits =
        static_cast<double>(kTraceOpportunityBytes) * 8.0;
    const double bucket_sec = to_sec(bucket_);
    // Floor: one opportunity per bucket, so a trace outage slows the link
    // to ~1 MTU per bucket instead of dividing by zero / stalling.
    const double floor_bps = opp_bits / bucket_sec;
    double sum = 0.0;
    rates_.reserve(counts.size());
    for (std::int64_t c : counts) {
      const double r = std::max(
          static_cast<double>(c) * opp_bits / bucket_sec, floor_bps);
      rates_.push_back(r);
      sum += r;
    }
    mean_ = sum / static_cast<double>(rates_.size());
  }

  double rate_at(TimeNs t) const override {
    const TimeNs w = t % period_;
    return rates_[static_cast<std::size_t>(w / bucket_)];
  }

  TimeNs next_change_after(TimeNs t) const override {
    if (rates_.size() == 1) return kNoChange;
    return (t / bucket_ + 1) * bucket_;
  }

  double mean_rate_bps() const override { return mean_; }

 private:
  TimeNs bucket_;
  TimeNs period_;
  std::vector<double> rates_;  // one per bucket across the loop period
  double mean_ = 0.0;
};

// C-locale std::isspace minus '\n' (which ends a line): ' ', \t \v \f \r.
inline bool is_blank(unsigned char c) {
  return c == ' ' || (c >= '\t' && c <= '\r' && c != '\n');
}

[[noreturn]] void malformed_line(std::size_t lineno, const std::string& path) {
  char msg[256];
  std::snprintf(msg, sizeof(msg),
                "malformed trace line %zu in %s: expected a "
                "non-negative integer millisecond timestamp",
                lineno, path.c_str());
  NIMBUS_CHECK_MSG(false, msg);
}

// The one definition of a trace line: leading blanks, then either a '#'
// comment, digits (overflow-guarded before each multiply) and trailing
// blanks, or nothing.  Anything else on a line is malformed.  Fed byte by
// byte, its state carries across read chunks, so a line may straddle any
// number of them.
class LineMachine {
 public:
  /// True while no byte but blanks has been fed since the last line end.
  bool at_line_start() const { return state_ == State::kLead; }

  /// Feeds bytes [p, end) of line `lineno`; none of them is '\n'.
  __attribute__((noinline)) void feed(const unsigned char* p,
                                      const unsigned char* end,
                                      std::size_t lineno,
                                      const std::string& path) {
    for (; p != end; ++p) {
      const unsigned char c = *p;
      const unsigned digit = c - static_cast<unsigned>('0');
      switch (state_) {
        case State::kLead:
          if (digit <= 9) {
            ms_ = digit;
            state_ = State::kDigits;
          } else if (c == '#') {
            state_ = State::kComment;
          } else if (!is_blank(c)) {
            malformed_line(lineno, path);
          }
          break;
        case State::kDigits:
          if (digit <= 9) {
            // Overflow guard before the multiply (post-hoc sign checks are
            // UB and can wrap back to an accepted positive value).
            if (ms_ > (std::numeric_limits<std::int64_t>::max() - 9) / 10) {
              malformed_line(lineno, path);
            }
            ms_ = ms_ * 10 + digit;
          } else if (is_blank(c)) {
            state_ = State::kTrail;
          } else {
            malformed_line(lineno, path);
          }
          break;
        case State::kTrail:
          if (!is_blank(c)) malformed_line(lineno, path);
          break;
        case State::kComment:
          break;
      }
    }
  }

  /// Ends the current line: true, with `*ms` set, if it held a timestamp.
  bool end_line(std::int64_t* ms) {
    const bool held = state_ == State::kDigits || state_ == State::kTrail;
    *ms = ms_;
    state_ = State::kLead;
    return held;
  }

 private:
  enum class State { kLead, kDigits, kTrail, kComment };
  State state_ = State::kLead;
  std::int64_t ms_ = 0;
};

// The word-at-a-time code below reads byte i of a loaded word as bits
// 8i..8i+7.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the trace scanner's word-at-a-time paths need little-endian");

constexpr std::uint64_t kEachByte = 0x0101010101010101ULL;

// Bit i set iff p[i] == '\n', for the 64 bytes at p.  One vector compare
// (a generic GCC/Clang vector type: each target lowers it to its own
// compare instructions) leaves 0x01 in every newline byte, and one
// multiply per 8-byte word gathers its 8 flags into a byte.
inline std::uint64_t newline_mask(const unsigned char* p) {
  typedef unsigned char Bytes __attribute__((vector_size(16)));
  std::uint64_t words[8];
  for (int i = 0; i < 4; ++i) {
    Bytes v;
    std::memcpy(&v, p + 16 * i, sizeof(v));
    const Bytes flags = reinterpret_cast<Bytes>(v == '\n') & 1;
    std::memcpy(words + 2 * i, &flags, sizeof(flags));
  }
  std::uint64_t mask = 0;
  for (int i = 0; i < 8; ++i) {
    mask |= ((words[i] * 0x0102040810204080ULL) >> 56) << (8 * i);
  }
  return mask;
}

// The common trace line, 1-8 decimal digits ending at `eol` (the '\n'),
// converted word at a time: false, and the line left to LineMachine, for
// any other shape.  Reads the 8 bytes from `line` on, so at least 8 bytes
// must be addressable there.
inline bool short_digit_line(const unsigned char* line,
                             const unsigned char* eol, std::int64_t* ms) {
  const std::size_t len = static_cast<std::size_t>(eol - line);
  if (len - 1 >= 8) return false;  // len == 0 wraps
  std::uint64_t d;
  std::memcpy(&d, line, sizeof(d));
  // A digit byte XOR '0' is its value, 0..9.  Little-endian: shifting the
  // line to the top `len` bytes drops the bytes past it and leaves leading
  // zero digits below it (the shift is 64 - 8·len, taken mod 64).
  d = (d ^ ('0' * kEachByte)) << ((0 - 8 * len) & 63);
  // Every byte a digit: high nibble 0, and still 0 after adding 6 (no
  // carry crosses a byte unless some high nibble is already set).
  if (((d | (d + 6 * kEachByte)) & (0xf0 * kEachByte)) != 0) return false;
  // Pairwise digit merges, most significant digit in the lowest byte:
  // 8 digits -> 4 two-digit -> 2 four-digit -> 1 eight-digit value.
  d = (d * 2561) >> 8;
  d = ((d & 0x00ff00ff00ff00ffULL) * 6553601) >> 16;
  *ms = static_cast<std::int64_t>(
      ((d & 0x0000ffff0000ffffULL) * 42949672960001ULL) >> 32);
  return true;
}

// Streams a Mahimahi trace file through `sink.add(ms)` in one pass over
// fixed chunks read into one buffer.  Each chunk's newlines are found
// first, as a 64-bit bitmap per 64-byte block, so locating the next line
// never waits on parsing this one.  A line of 1-8 digits is converted
// word at a time; every other line (blanks, CR, comments, NUL, longer
// numbers) and each line that straddles a chunk goes through
// LineMachine, which alone decides what the format accepts — both paths
// give the same values, errors and line numbers.  The sink is copied into
// locals for the pass, so its state stays in registers.
//
// Out of line and 64-byte aligned: the loop's speed depends on where it
// falls relative to cache-line boundaries, and inlined into its caller it
// moved with every unrelated code-size change elsewhere in the binary
// (~20% of perfbench varlink set-up from layout alone).
template <typename Sink>
__attribute__((noinline, aligned(64))) void scan_trace_file(
    const std::string& path, Sink* sink_out) {
  static_assert(kTraceReadChunk % 64 == 0, "whole bitmap blocks per chunk");
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  NIMBUS_CHECK_MSG(f != nullptr, ("cannot open trace file: " + path).c_str());
  // 8 bytes past the chunk keep short_digit_line's load in the buffer.
  std::vector<unsigned char> buf(kTraceReadChunk + 8);
  unsigned char* const chunk = buf.data();
  Sink sink = *sink_out;
  LineMachine machine;
  std::size_t lineno = 1;  // the line being scanned
  std::size_t n;
  while ((n = std::fread(chunk, 1, kTraceReadChunk, f.get())) > 0) {
    const unsigned char* line = chunk;
    for (std::size_t block = 0; block < n; block += 64) {
      const unsigned char* const base = chunk + block;
      std::uint64_t nl = newline_mask(base);
      if (n - block < 64) nl &= (std::uint64_t{1} << (n - block)) - 1;
      for (; nl != 0; nl &= nl - 1) {
        const unsigned char* const eol =
            base + static_cast<unsigned>(__builtin_ctzll(nl));
        std::int64_t ms = 0;
        // Only a chunk's first line can continue one the machine began.
        bool held = short_digit_line(line, eol, &ms) &&
                    (line != chunk || machine.at_line_start());
        if (__builtin_expect(!held, 0)) {
          machine.feed(line, eol, lineno, path);
          held = machine.end_line(&ms);
        }
        if (held) sink.add(ms);
        line = eol + 1;
        ++lineno;
      }
    }
    machine.feed(line, chunk + n, lineno, path);
  }
  NIMBUS_CHECK_MSG(std::ferror(f.get()) == 0,
                   ("cannot read trace file: " + path).c_str());
  // A final line without a trailing newline.
  std::int64_t ms = 0;
  if (machine.end_line(&ms)) sink.add(ms);
  *sink_out = sink;
}

// parse_trace_file's sink: appends, checking order.
struct TimestampList {
  void add(std::int64_t ms) {
    NIMBUS_CHECK_MSG(ms >= last_ms,
                     ("trace timestamps must be non-decreasing: " + *path)
                         .c_str());
    last_ms = ms;
    out->push_back(ms);
  }

  std::vector<std::int64_t>* out;
  const std::string* path;
  std::int64_t last_ms = 0;
};

}  // namespace

std::unique_ptr<RateSchedule> RateSchedule::sine(double mean_bps,
                                                 double amplitude_frac,
                                                 TimeNs period,
                                                 TimeNs quantum) {
  return std::make_unique<SineSchedule>(mean_bps, amplitude_frac, period,
                                        quantum);
}

std::unique_ptr<RateSchedule> RateSchedule::random_walk(
    double mean_bps, double amplitude_frac, TimeNs step_interval,
    double step_frac, std::uint64_t seed) {
  return std::make_unique<RandomWalkSchedule>(mean_bps, amplitude_frac,
                                              step_interval, step_frac, seed);
}

std::unique_ptr<RateSchedule> RateSchedule::from_trace_ms(
    const std::vector<std::int64_t>& opportunities_ms, const TraceConfig& cfg,
    const std::string& origin) {
  std::vector<std::int64_t> counts;
  TraceFold fold(cfg, origin, &counts);
  for (std::int64_t ms : opportunities_ms) fold.add(ms);
  const TimeNs period = fold.finish();
  return std::make_unique<TraceSchedule>(counts, period, cfg);
}

std::unique_ptr<RateSchedule> RateSchedule::from_trace_file(
    const std::string& path, const TraceConfig& cfg) {
  std::vector<std::int64_t> counts;
  TraceFold fold(cfg, path, &counts);
  scan_trace_file(path, &fold);
  const TimeNs period = fold.finish();
  return std::make_unique<TraceSchedule>(counts, period, cfg);
}

std::vector<std::int64_t> parse_trace_file(const std::string& path) {
  std::vector<std::int64_t> out;
  TimestampList list{&out, &path};
  scan_trace_file(path, &list);
  NIMBUS_CHECK_MSG(!out.empty(), ("empty trace: " + path).c_str());
  return out;
}

void write_trace_file(const std::string& path,
                      const std::vector<std::int64_t>& opportunities_ms) {
  std::ofstream out(path);
  NIMBUS_CHECK_MSG(out.good(),
                   ("cannot write trace file: " + path).c_str());
  for (std::int64_t ms : opportunities_ms) out << ms << "\n";
  NIMBUS_CHECK_MSG(out.good(),
                   ("short write to trace file: " + path).c_str());
}

}  // namespace nimbus::sim
