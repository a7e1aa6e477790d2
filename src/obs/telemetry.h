// Per-scenario telemetry bundle: one MetricsRegistry + one FlightRecorder
// plus the mode that gates them.  Owned by exp::ScenarioRun; components
// receive null-guarded handles, never the bundle, so sim/core stay
// ignorant of configuration (exp::RunConfig, in the exp layer).
#pragma once

#include <cstddef>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace nimbus::obs {

enum class Mode {
  kOff = 0,      // no instruments attached; handles stay null
  kCounters = 1, // metrics registry only
  kTrace = 2,    // metrics registry + flight recorder
};

struct Telemetry {
  explicit Telemetry(Mode m,
                     std::size_t ring_capacity = FlightRecorder::kDefaultCapacity)
      : mode(m), recorder(ring_capacity) {}

  Mode mode;
  MetricsRegistry metrics;
  FlightRecorder recorder;

  bool counters_on() const { return mode != Mode::kOff; }
  bool trace_on() const { return mode == Mode::kTrace; }

  /// Tracing handle for components; null when trace is off so every
  /// emit() is a single predictable branch.
  Trace trace() { return Trace{trace_on() ? &recorder : nullptr}; }
};

}  // namespace nimbus::obs
