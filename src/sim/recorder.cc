#include "sim/recorder.h"

#include "sim/event_loop.h"
#include "sim/link.h"
#include "util/check.h"

namespace nimbus::sim {

namespace {
const util::ByteCounter kEmptyCounter;
const util::TimeSeries kEmptySeries;
}  // namespace

void Recorder::attach(EventLoop* loop, BottleneckLink* link,
                      TimeNs probe_interval) {
  NIMBUS_CHECK(loop != nullptr && link != nullptr);
  loop_ = loop;
  link_ = link;
  probe_interval_ = probe_interval;
  // Self-rescheduling probe: an 8-byte capture the event loop stores
  // inline (the seed version copied a shared std::function every tick).
  loop_->schedule_in(probe_interval_, [this]() { probe_tick(); });
}

void Recorder::probe_tick() {
  probe_qdelay_.add(loop_->now(), to_ms(link_->current_queue_delay()));
  loop_->schedule_in(probe_interval_, [this]() { probe_tick(); });
}

void Recorder::expect_duration(TimeNs duration) {
  if (probe_interval_ <= 0) return;
  probe_qdelay_.reserve(
      static_cast<std::size_t>(duration / probe_interval_) + 1);
}

void Recorder::ensure_flow(FlowId id) {
  if (id >= delivered_.size()) {
    delivered_.resize(id + 1);
    seen_.resize(id + 1, 0);
    drops_.resize(id + 1, 0);
  }
}

void Recorder::on_delivery(const Packet& p, TimeNs dequeue_done) {
  if (p.flow_id >= delivered_.size()) ensure_flow(p.flow_id);
  delivered_[p.flow_id].add(dequeue_done, p.size_bytes);
  seen_[p.flow_id] = 1;
}

void Recorder::on_drop(const Packet& p) {
  if (p.flow_id >= delivered_.size()) ensure_flow(p.flow_id);
  ++drops_[p.flow_id];
  ++total_drops_;
}

void Recorder::track_flow(FlowId id) {
  if (id >= tracked_.size()) tracked_.resize(id + 1, kUntracked);
  NIMBUS_CHECK_MSG(tracked_[id] != kWiredUntracked,
                   "track_flow after Network::add_flow: the flow's RTT "
                   "series would stay empty; track it before adding it");
  tracked_[id] = kTracked;
}

util::TimeSeries* Recorder::rtt_series(FlowId id) {
  if (!is_tracked(id)) {
    if (id >= tracked_.size()) tracked_.resize(id + 1, kUntracked);
    tracked_[id] = kWiredUntracked;
    return nullptr;
  }
  if (id >= rtt_.size()) rtt_.resize(id + 1);
  if (!rtt_[id]) rtt_[id] = std::make_unique<util::TimeSeries>();
  return rtt_[id].get();
}

void Recorder::on_completion(FlowId id, TimeNs when, TimeNs fct,
                             std::int64_t flow_bytes) {
  completions_.push_back({id, when, fct, flow_bytes});
}

const util::ByteCounter& Recorder::delivered(FlowId id) const {
  return id < delivered_.size() ? delivered_[id] : kEmptyCounter;
}

double Recorder::aggregate_rate_bps(const std::vector<FlowId>& ids, TimeNs t0,
                                    TimeNs t1) const {
  if (t1 <= t0) return 0.0;
  std::int64_t bytes = 0;
  for (FlowId id : ids) bytes += delivered(id).bytes_in(t0, t1);
  return static_cast<double>(bytes) * 8.0 / to_sec(t1 - t0);
}

const util::TimeSeries& Recorder::rtt_samples(FlowId id) const {
  return id < rtt_.size() && rtt_[id] ? *rtt_[id] : kEmptySeries;
}

std::uint64_t Recorder::drops(FlowId id) const {
  return id < drops_.size() ? drops_[id] : 0;
}

}  // namespace nimbus::sim
