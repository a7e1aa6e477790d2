#include "sim/link_schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
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
// one incremental pass.  A running bucket boundary replaces the per-
// opportunity `(t % period) / bucket`: only opening a new bucket divides.
// finish() rounds the looping period up to whole buckets and folds the
// one bucket that can lie past it (opportunities at exactly a bucket-
// aligned final timestamp) onto bucket 0 — the counts the modulo gives.
class TraceFold {
 public:
  TraceFold(const RateSchedule::TraceConfig& cfg, const std::string& origin)
      : bucket_(cfg.bucket), origin_(origin) {
    NIMBUS_CHECK_MSG(cfg.bucket > 0, "trace config: bucket must be > 0");
  }

  void add(std::int64_t ms) {
    NIMBUS_CHECK_MSG(ms >= last_ms_,
                     ("trace timestamps must be non-decreasing: " + origin_)
                         .c_str());
    NIMBUS_CHECK_MSG(ms <= kMaxMs,
                     ("trace timestamp out of range: " + origin_).c_str());
    last_ms_ = ms;
    const TimeNs t = ms * kNanosPerMs;
    if (t >= boundary_) {
      const TimeNs index = t / bucket_;
      counts_.resize(static_cast<std::size_t>(index) + 1, 0);
      boundary_ = (index + 1) * bucket_;
    }
    ++counts_.back();
  }

  /// Moves out the counts, one per bucket across the looping period, and
  /// sets `*period`.
  std::vector<std::int64_t> finish(TimeNs* period) {
    NIMBUS_CHECK_MSG(!counts_.empty(), ("empty trace: " + origin_).c_str());
    NIMBUS_CHECK_MSG(last_ms_ > 0,
                     ("trace looping period is zero (last timestamp must "
                      "be > 0): " + origin_).c_str());
    // Mahimahi semantics: the final timestamp is the looping period,
    // rounded up to whole buckets; an opportunity at exactly the period
    // lands at the start of the next cycle.
    const TimeNs last = last_ms_ * kNanosPerMs;
    *period = ((last + bucket_ - 1) / bucket_) * bucket_;
    const auto n = static_cast<std::size_t>(*period / bucket_);
    if (counts_.size() > n) {
      counts_[0] += counts_[n];
      counts_.pop_back();
    }
    return std::move(counts_);
  }

 private:
  // Largest timestamp whose nanosecond value fits a TimeNs.
  static constexpr std::int64_t kMaxMs =
      std::numeric_limits<TimeNs>::max() / kNanosPerMs;

  TimeNs bucket_;
  const std::string& origin_;
  std::int64_t last_ms_ = 0;
  TimeNs boundary_ = 0;  // end of the last opened bucket
  std::vector<std::int64_t> counts_;
};

/// Bytes one trace delivery opportunity carries (Mahimahi's default MTU).
constexpr std::int64_t kTraceOpportunityBytes = 1504;

class TraceSchedule final : public RateSchedule {
 public:
  TraceSchedule(TraceFold& fold, const RateSchedule::TraceConfig& cfg)
      : bucket_(cfg.bucket) {
    const std::vector<std::int64_t> counts = fold.finish(&period_);
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
  TimeNs period_ = 0;
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

// Streams a Mahimahi trace file through `on_ms` in one pass over fixed
// chunks read into one buffer.  A per-line state machine carries across
// chunk boundaries: leading blanks, then either a '#' comment, digits
// (overflow-guarded before each multiply) and trailing blanks, or
// nothing.  Anything else on a line is malformed.
//
// Out of line and 64-byte aligned: the per-byte loop's speed depends on
// where it falls relative to cache-line boundaries, and inlined into its
// caller it moved with every unrelated code-size change elsewhere in the
// binary (~20% of perfbench varlink set-up from layout alone).
template <typename Sink>
__attribute__((noinline, aligned(64))) void scan_trace_file(
    const std::string& path, Sink&& on_ms) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  NIMBUS_CHECK_MSG(f != nullptr, ("cannot open trace file: " + path).c_str());
  enum class State { kLead, kDigits, kTrail, kComment };
  State state = State::kLead;
  std::int64_t ms = 0;
  std::size_t lineno = 1;  // the line being scanned
  std::vector<unsigned char> buf(kTraceReadChunk);
  std::size_t n;
  while ((n = std::fread(buf.data(), 1, buf.size(), f.get())) > 0) {
    for (const unsigned char* p = buf.data(); p != buf.data() + n; ++p) {
      const unsigned char c = *p;
      const unsigned digit = c - static_cast<unsigned>('0');
      if (state == State::kDigits && digit <= 9) {
        // Overflow guard before the multiply (post-hoc sign checks are UB
        // and can wrap back to an accepted positive value).
        if (ms > (std::numeric_limits<std::int64_t>::max() - 9) / 10) {
          malformed_line(lineno, path);
        }
        ms = ms * 10 + digit;
        continue;
      }
      if (c == '\n') {
        if (state == State::kDigits || state == State::kTrail) on_ms(ms);
        state = State::kLead;
        ++lineno;
        continue;
      }
      switch (state) {
        case State::kLead:
          if (digit <= 9) {
            ms = digit;
            state = State::kDigits;
          } else if (c == '#') {
            state = State::kComment;
          } else if (!is_blank(c)) {
            malformed_line(lineno, path);
          }
          break;
        case State::kDigits:
          if (is_blank(c)) {
            state = State::kTrail;
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
  NIMBUS_CHECK_MSG(std::ferror(f.get()) == 0,
                   ("cannot read trace file: " + path).c_str());
  // A final line without a trailing newline.
  if (state == State::kDigits || state == State::kTrail) on_ms(ms);
}

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
  TraceFold fold(cfg, origin);
  for (std::int64_t ms : opportunities_ms) fold.add(ms);
  return std::make_unique<TraceSchedule>(fold, cfg);
}

std::unique_ptr<RateSchedule> RateSchedule::from_trace_file(
    const std::string& path, const TraceConfig& cfg) {
  TraceFold fold(cfg, path);
  scan_trace_file(path, [&](std::int64_t ms) { fold.add(ms); });
  return std::make_unique<TraceSchedule>(fold, cfg);
}

std::vector<std::int64_t> parse_trace_file(const std::string& path) {
  std::vector<std::int64_t> out;
  scan_trace_file(path, [&](std::int64_t ms) {
    NIMBUS_CHECK_MSG(out.empty() || ms >= out.back(),
                     ("trace timestamps must be non-decreasing: " + path)
                         .c_str());
    out.push_back(ms);
  });
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
