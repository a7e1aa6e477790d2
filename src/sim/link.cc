#include "sim/link.h"

#include "util/check.h"

namespace nimbus::sim {

BottleneckLink::BottleneckLink(EventLoop* loop, double rate_bps,
                               std::unique_ptr<QueueDisc> qdisc)
    : loop_(loop), rate_bps_(rate_bps), qdisc_(std::move(qdisc)),
      loss_rng_(7) {
  NIMBUS_CHECK(rate_bps_ > 0);
  NIMBUS_CHECK(qdisc_ != nullptr);
}

void BottleneckLink::set_random_loss(double prob, std::uint64_t seed) {
  NIMBUS_CHECK(prob >= 0.0 && prob < 1.0);
  // Seed 0 is the spec layer's "derive me" sentinel and the old implicit
  // default was a shared-stream hazard; both are rejected here so every
  // lossy link runs on an explicitly derived stream.
  NIMBUS_CHECK_MSG(seed != 0, "set_random_loss needs an explicit nonzero seed");
  loss_prob_ = prob;
  loss_rng_ = util::Rng(seed);
}

void BottleneckLink::set_impairment(std::unique_ptr<ImpairmentStage> stage) {
  NIMBUS_CHECK_MSG(impairment_ == nullptr, "impairment already installed");
  NIMBUS_CHECK_MSG(!busy_ && loop_->now() == 0,
                   "install the impairment stage before traffic starts");
  NIMBUS_CHECK(stage != nullptr);
  impairment_ = std::move(stage);
}

void BottleneckLink::enqueue(Packet p) {
  obs_enqueues_.inc();
  if (impairment_ != nullptr) {
    obs_impairment_decisions_.inc();
    const ImpairmentStage::Decision d = impairment_->on_packet(loop_->now());
    if (d.copies == 0) {
      obs_drop_impairment_.inc();
      drop(p);
      return;
    }
    for (int i = 0; i < d.copies; ++i) {
      if (d.delay[i] == 0) {
        admit(p);
      } else {
        loop_->schedule_in(d.delay[i], Admit{this, p});
      }
    }
    return;
  }
  admit(p);
}

void BottleneckLink::admit(Packet p) {
  if (loss_prob_ > 0.0 && loss_rng_.bernoulli(loss_prob_)) {
    obs_drop_random_.inc();
    drop(p);
    return;
  }
  p.enqueued_at = loop_->now();
  if (!qdisc_->enqueue(p, loop_->now())) {
    obs_drop_queue_.inc();
    drop(p);
    return;
  }
  if (!busy_) start_transmission();
}

void BottleneckLink::drop(const Packet& p) {
  ++dropped_packets_;
  if (on_drop_) on_drop_(p);
}

void BottleneckLink::start_transmission() {
  auto next = qdisc_->dequeue(loop_->now());
  if (!next) {
    busy_ = false;
    return;
  }
  busy_ = true;
  const TimeNs t = tx_time(next->size_bytes, rate_bps_);
  busy_time_ += t;
  in_flight_ = *next;
  const EventId id = loop_->schedule_in(t, TxDone{this});
  if (schedule_ != nullptr) {
    tx_done_id_ = id;
    tx_done_time_ = loop_->now() + t;
    tx_checkpoint_ = loop_->now();
    tx_remaining_bytes_ = static_cast<double>(in_flight_.size_bytes);
  }
}

void BottleneckLink::finish_transmission() {
  const Packet p = in_flight_;
  delivered_bytes_ += p.size_bytes;
  ++delivered_packets_;
  if (on_delivery_) on_delivery_(p, loop_->now());
  start_transmission();
}

void BottleneckLink::set_schedule(std::unique_ptr<RateSchedule> schedule) {
  NIMBUS_CHECK_MSG(schedule_ == nullptr, "schedule already installed");
  NIMBUS_CHECK_MSG(!busy_ && loop_->now() == 0,
                   "install the schedule before traffic starts");
  NIMBUS_CHECK(schedule != nullptr);
  schedule_ = std::move(schedule);
  rate_bps_ = schedule_->rate_at(loop_->now());
  const TimeNs next = schedule_->next_change_after(loop_->now());
  if (next != RateSchedule::kNoChange) {
    loop_->schedule(next, ScheduleTick{this});
  }
}

void BottleneckLink::on_schedule_tick() {
  const TimeNs now = loop_->now();
  const double new_rate = schedule_->rate_at(now);
  if (new_rate != rate_bps_) apply_rate_change(new_rate);
  const TimeNs next = schedule_->next_change_after(now);
  if (next != RateSchedule::kNoChange) {
    loop_->schedule(next, ScheduleTick{this});
  }
}

void BottleneckLink::apply_rate_change(double new_rate_bps) {
  NIMBUS_CHECK(new_rate_bps > 0);
  obs_mu_changes_.inc();
  if (obs_trace_.active()) {
    obs::TraceEvent e;
    e.t = loop_->now();
    e.kind = static_cast<std::uint16_t>(obs::TraceKind::kMuChange);
    e.v0 = new_rate_bps;
    e.v1 = rate_bps_;
    obs_trace_.emit(e);
  }
  if (busy_) {
    // Retire the bytes serialized at the old rate since the last
    // checkpoint, then retime the in-flight TxDone so the residual bytes
    // finish at the new rate.  busy_time_ was charged the whole packet at
    // the start-of-transmission rate; correct it by the deadline shift.
    const TimeNs now = loop_->now();
    tx_remaining_bytes_ -= bytes_in(now - tx_checkpoint_, rate_bps_);
    if (tx_remaining_bytes_ < 0.0) tx_remaining_bytes_ = 0.0;
    tx_checkpoint_ = now;
    const TimeNs remaining = static_cast<TimeNs>(
        tx_remaining_bytes_ * 8.0 / new_rate_bps *
            static_cast<double>(kNanosPerSec) +
        0.5);
    busy_time_ += (now + remaining) - tx_done_time_;
    tx_done_time_ = now + remaining;
    tx_done_id_ = loop_->reschedule(tx_done_id_, tx_done_time_);
  }
  rate_bps_ = new_rate_bps;
}

void BottleneckLink::attach_telemetry(obs::MetricsRegistry* m,
                                      obs::Trace trace) {
  obs_trace_ = trace;
  if (m == nullptr) return;
  obs_enqueues_ = m->counter("link.enqueues");
  obs_impairment_decisions_ = m->counter("link.impairment_decisions");
  obs_drop_impairment_ = m->counter("link.drops.impairment");
  obs_drop_random_ = m->counter("link.drops.random_loss");
  obs_drop_queue_ = m->counter("link.drops.queue");
  obs_mu_changes_ = m->counter("link.mu_changes");
}

TimeNs BottleneckLink::current_queue_delay() const {
  return static_cast<TimeNs>(static_cast<double>(qdisc_->bytes()) * 8.0 /
                             rate_bps_ * static_cast<double>(kNanosPerSec));
}

}  // namespace nimbus::sim
