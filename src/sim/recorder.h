// Experiment measurement: per-flow delivered bytes and drops, RTT samples
// for tracked flows, the periodically probed queueing delay, and flow
// completion times.
//
// Tracked-only rule: an RTT series exists only for a flow registered with
// track_flow.  On the spec path only the protagonist of a spec that
// declares ProtagonistSpec::record_rtt (exp/scenario.h) is tracked.  Every
// flow gets byte counters and drop counts, which are cheap; an untracked
// flow's rtt_samples() is empty.  A flow's tracking
// must be registered before Network::add_flow wires its ACK handler.
// Queueing delay is read from probed_queue_delay() (all traffic, one
// sample per probe interval); there is no per-packet series.
//
// Flow ids are small and dense (the Network allocates them sequentially),
// so all per-flow state is held in flat vectors indexed by FlowId instead
// of the PR 2-era std::map/std::set — the per-delivery and per-ACK hooks
// are branch + array-index instead of a tree walk.  RTT series live behind
// stable unique_ptr cells so Network can hand each tracked TransportFlow's
// ACK handler a direct TimeSeries pointer (rtt_series()) that survives
// later flow registrations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/packet.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/timeseries.h"

namespace nimbus::sim {

class EventLoop;
class BottleneckLink;

class Recorder {
 public:
  /// Starts the periodic queue probe (default every 10 ms).
  void attach(EventLoop* loop, BottleneckLink* link,
              TimeNs probe_interval = from_ms(10));

  /// Pre-sizes the probe series for a run of the given length (called by
  /// Network::run_until with the scenario duration so steady-state probing
  /// never reallocates).
  void expect_duration(TimeNs duration);

  /// Tracked flows get an RTT series (others only get byte counters,
  /// which are cheap).  Call before the flow is added to the Network:
  /// tracking a flow whose ACK handler was already wired untracked
  /// CHECK-fails rather than silently record nothing.
  void track_flow(FlowId id);
  /// True once track_flow(id) has run: the flow has an RTT series.
  bool is_tracked(FlowId id) const {
    return id < tracked_.size() && tracked_[id] == kTracked;
  }

  // --- hooks called by Network ---
  void on_delivery(const Packet& p, TimeNs dequeue_done);
  void on_drop(const Packet& p);
  void on_completion(FlowId id, TimeNs when, TimeNs fct,
                     std::int64_t flow_bytes);

  /// Stable RTT series cell of a tracked flow (created on first use), or
  /// nullptr for an untracked one.  Network::add_flow wires each tracked
  /// flow's ACK handler to this pointer, so the per-ACK hot path adds a
  /// sample with zero lookups; untracked flows get no handler at all.
  /// Fixes the flow's tracking state (see track_flow).
  util::TimeSeries* rtt_series(FlowId id);

  // --- accessors ---
  /// Bytes delivered through the bottleneck, per flow.
  const util::ByteCounter& delivered(FlowId id) const;
  /// Aggregate delivered bytes for a set of flows over [t0, t1).
  double aggregate_rate_bps(const std::vector<FlowId>& ids, TimeNs t0,
                            TimeNs t1) const;
  /// RTT samples per flow (tracked flows only).
  const util::TimeSeries& rtt_samples(FlowId id) const;
  /// Queue delay sampled by the periodic probe (all traffic).
  const util::TimeSeries& probed_queue_delay() const { return probe_qdelay_; }
  std::uint64_t drops(FlowId id) const;
  std::uint64_t total_drops() const { return total_drops_; }

  struct Completion {
    FlowId id;
    TimeNs when;
    TimeNs fct;
    std::int64_t bytes;
  };
  const std::vector<Completion>& completions() const { return completions_; }

  bool has_flow(FlowId id) const {
    return id < delivered_.size() && seen_[id] != 0;
  }

 private:
  void probe_tick();
  void ensure_flow(FlowId id);
  // Per-flow tracking state: a flow whose ACK handler was wired untracked
  // can no longer be tracked.
  enum : char { kUntracked = 0, kTracked = 1, kWiredUntracked = 2 };

  EventLoop* loop_ = nullptr;
  BottleneckLink* link_ = nullptr;
  TimeNs probe_interval_ = 0;

  std::vector<char> tracked_;                 // indexed by FlowId; k* above
  std::vector<char> seen_;                    // had a delivery
  std::vector<util::ByteCounter> delivered_;  // sized together with seen_
  std::vector<std::uint64_t> drops_;
  std::vector<std::unique_ptr<util::TimeSeries>> rtt_;
  std::uint64_t total_drops_ = 0;
  util::TimeSeries probe_qdelay_;
  std::vector<Completion> completions_;
};

}  // namespace nimbus::sim
