// Time-varying bottleneck rates: the simulated equivalent of Mahimahi's
// defining capability (the paper's whole testbed, Fig. 2) — emulating
// cellular / Wi-Fi links whose capacity µ(t) moves while the experiment
// runs.
//
// A RateSchedule is a piecewise-constant function of simulated time.  The
// BottleneckLink drains according to the active schedule: it asks the
// schedule for the rate in effect now and for the next change point, and
// reschedules itself with one cheap loop event per change (see
// BottleneckLink::set_schedule).  Schedules are therefore *queried*, never
// polled — a 10 ms-bucketed cellular trace costs 100 events per simulated
// second.  A fixed-µ link installs no schedule at all.
//
// Kinds:
//   * sine          — µ(t) = mean·(1 + a·sin(2πt/T)), quantised to a step
//                     grid so the link sees piecewise-constant rates.
//   * random_walk   — seeded multiplicative-free walk, clamped to
//                     mean·[1−a, 1+a]; lazily materialised and memoised so
//                     rate_at() is random access yet deterministic.
//   * trace         — a Mahimahi-format packet-delivery trace (one integer
//                     millisecond timestamp per line; each line is one
//                     delivery opportunity of 1504 bytes, Mahimahi's
//                     default MTU; the final timestamp is the looping
//                     period).  Opportunities are bucketed into
//                     `bucket`-wide windows and each window becomes one
//                     piecewise-constant rate, floored at one opportunity
//                     per bucket so outages slow the work-conserving link
//                     to a crawl instead of stalling it forever (a
//                     deliberate deviation from Mahimahi, which can park
//                     packets indefinitely).
//
// Determinism: schedules own their RNG state (seeded at construction) and
// never touch global randomness, so a (spec, seed) pair replays the same
// µ(t) in the link, in ground-truth scoring, and across parallel runner
// threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/time.h"

namespace nimbus::sim {

/// Conversion knob for Mahimahi packet-delivery traces (namespace scope —
/// a nested struct's member initializers cannot feed a default argument of
/// the enclosing class; aliased as RateSchedule::TraceConfig).
struct TraceScheduleConfig {
  /// Smoothing window: opportunities per bucket become one rate.
  TimeNs bucket = from_ms(10);
};

class RateSchedule {
 public:
  /// Sentinel for "the rate never changes again".
  static constexpr TimeNs kNoChange = std::numeric_limits<TimeNs>::max();

  virtual ~RateSchedule() = default;

  /// Rate in bits/s in effect at simulated time t (piecewise constant,
  /// right-continuous: the value at a change point is the new rate).
  /// Always > 0.
  virtual double rate_at(TimeNs t) const = 0;

  /// Earliest time > t at which rate_at may differ from rate_at(t), or
  /// kNoChange.  May be conservative (a change point where the rate
  /// happens to be equal is fine — the link skips no-op changes); must
  /// never skip a real change.
  virtual TimeNs next_change_after(TimeNs t) const = 0;

  /// Nominal mean rate (the sine/walk mean; the trace's per-period
  /// average).  Experiments use this as the "known µ"
  /// handed to schemes and for buffer sizing.
  virtual double mean_rate_bps() const = 0;

  // --- factories ---

  /// mean·(1 + amplitude_frac·sin(2πt/period)), quantised to `quantum`.
  /// Requires 0 <= amplitude_frac < 1 (the rate must stay positive).
  static std::unique_ptr<RateSchedule> sine(double mean_bps,
                                            double amplitude_frac,
                                            TimeNs period,
                                            TimeNs quantum = from_ms(100));

  /// Seeded random walk: every `step_interval` the rate moves by
  /// uniform(-step_frac, +step_frac)·mean and is clamped to
  /// mean·[1−amplitude_frac, 1+amplitude_frac].  Deterministic in `seed`
  /// (random access is memoised, so querying t out of order replays the
  /// identical walk).
  static std::unique_ptr<RateSchedule> random_walk(double mean_bps,
                                                   double amplitude_frac,
                                                   TimeNs step_interval,
                                                   double step_frac,
                                                   std::uint64_t seed);

  using TraceConfig = TraceScheduleConfig;

  /// Loads a Mahimahi .trace file (see the header comment for the format
  /// and bucketing semantics) in one streamed pass: the parse_trace_file
  /// scanner folds each timestamp straight into the bucket counts, whose
  /// running state it keeps in locals, with no intermediate timestamp
  /// vector.  CHECK-fails exactly as parse_trace_file does, and on a
  /// decreasing, zero-length or out-of-range (timestamp past the TimeNs
  /// range) trace or a bad config.
  static std::unique_ptr<RateSchedule> from_trace_file(
      const std::string& path, const TraceConfig& cfg = TraceConfig());

  /// Same, from already-parsed opportunity timestamps (milliseconds);
  /// bit-identical to from_trace_file on the file they were parsed from.
  /// `origin` names the source in error messages.
  static std::unique_ptr<RateSchedule> from_trace_ms(
      const std::vector<std::int64_t>& opportunities_ms,
      const TraceConfig& cfg = TraceConfig(),
      const std::string& origin = "<memory>");
};

/// Read size of the trace scanner: files are read in chunks of this many
/// bytes into one reused buffer (never the whole file), and lines may
/// straddle chunks.  A whole number of the scanner's 64-byte newline-
/// bitmap blocks.
inline constexpr std::size_t kTraceReadChunk = 64 * 1024;

/// Parses a Mahimahi trace file into opportunity timestamps (ms) in one
/// streamed pass.  Each chunk's newlines are found first, as a bitmap per
/// 64-byte block; a line of 1-8 digits then converts word at a time, and
/// every other line (and each line straddling a chunk) goes through a
/// byte-at-a-time state machine, the one definition of the format — both
/// give the same values, errors and line numbers.  Each line is trimmed
/// of C-locale whitespace (space and \t \n \v \f \r, so CRLF files
/// load); blank lines and lines whose first non-blank byte is '#' are
/// skipped.  CHECK-fails with "cannot open trace file" if the file cannot
/// be opened, "cannot read trace file" on a read error (a directory, an
/// I/O error mid-file), "malformed trace line N" on any other line that
/// is not a non-negative decimal integer of at most 9223372036854775799
/// (the overflow guard refuses the top 8 int64 values), "non-decreasing"
/// if timestamps decrease, and "empty trace" if no timestamp remains.
std::vector<std::int64_t> parse_trace_file(const std::string& path);

/// Writes opportunity timestamps in Mahimahi format (one ms per line) —
/// the inverse of parse_trace_file, used by tests and trace generators.
void write_trace_file(const std::string& path,
                      const std::vector<std::int64_t>& opportunities_ms);

}  // namespace nimbus::sim
