// The bottleneck link: a work-conserving transmitter draining a queue
// discipline, with optional random loss (used to emulate lossy Internet
// paths).
//
// The drain rate is either a fixed µ (the default) or time-varying via an
// installed RateSchedule (sim/link_schedule.h): the link applies each
// schedule change with one loop event and, if a packet is mid-
// serialization, recomputes its remaining transmission time at the new
// rate — the residual bytes finish serializing at the post-change µ,
// exactly as a Mahimahi link would deliver them.  Without a schedule the
// transmit path is byte-for-byte the fixed-rate implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/impairment.h"
#include "sim/link_schedule.h"
#include "sim/packet.h"
#include "sim/queue_disc.h"
#include "util/rng.h"

namespace nimbus::sim {

class BottleneckLink {
 public:
  /// Called when a packet finishes serialization; `dequeue_done` is the time
  /// the last bit left the link.
  using DeliveryHandler = std::function<void(const Packet&, TimeNs)>;
  /// Called when a packet is dropped (impairment, random loss, queue
  /// overflow or AQM).
  using DropHandler = std::function<void(const Packet&)>;

  BottleneckLink(EventLoop* loop, double rate_bps,
                 std::unique_ptr<QueueDisc> qdisc);

  void set_delivery_handler(DeliveryHandler h) { on_delivery_ = std::move(h); }
  void set_drop_handler(DropHandler h) { on_drop_ = std::move(h); }

  /// Random i.i.d. loss applied on arrival (before the queue).  The seed
  /// must be explicit and nonzero: every call site derives it from the
  /// scenario seed (exp::flow_seed), so two lossy links never share a
  /// stream by accident.
  void set_random_loss(double prob, std::uint64_t seed);

  /// Installs a forward-path impairment stage (sim/impairment.h).  Every
  /// packet offered to the link passes through it before random loss and
  /// the queue: drops are reported via the drop handler, duplicated
  /// or jittered copies are admitted at their stage-release times.  With
  /// no stage installed the admission path is byte-identical to the
  /// pre-impairment link.  Call once, before traffic starts.
  void set_impairment(std::unique_ptr<ImpairmentStage> stage);
  const ImpairmentStage* impairment() const { return impairment_.get(); }
  ImpairmentStage* impairment() { return impairment_.get(); }

  /// Offers a packet to the link.
  void enqueue(Packet p);

  double rate_bps() const { return rate_bps_; }

  /// Installs a time-varying rate schedule.  The link immediately adopts
  /// rate_at(now) and drives itself with one loop event per schedule
  /// change point; a change arriving while a packet is mid-serialization
  /// recomputes the in-flight TxDone from the residual bytes.  Call once,
  /// before traffic starts.  A schedule that never changes registers no
  /// events and leaves the transmit path bit-identical to the plain
  /// fixed-rate link.
  void set_schedule(std::unique_ptr<RateSchedule> schedule);
  const RateSchedule* schedule() const { return schedule_.get(); }

  /// Registers the link's instruments in `m` (enqueues, per-cause drops,
  /// impairment decisions, mu(t) changes) and arms kMuChange trace events
  /// on `trace`.  Call at setup time; either argument may be null/inactive.
  void attach_telemetry(obs::MetricsRegistry* m, obs::Trace trace);

  const QueueDisc& qdisc() const { return *qdisc_; }

  /// Instantaneous queueing-delay estimate: queued bytes / link rate (plus
  /// the residual serialization time of the in-flight packet is ignored).
  TimeNs current_queue_delay() const;

  // --- statistics ---
  std::int64_t delivered_bytes() const { return delivered_bytes_; }
  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t dropped_packets() const { return dropped_packets_; }
  TimeNs busy_time() const { return busy_time_; }

 private:
  // Serialization-complete event: an 8-byte trampoline that fits the event
  // loop's inline callback buffer; the in-flight packet is kept in a member
  // (the link serializes one packet at a time) instead of being captured.
  struct TxDone {
    BottleneckLink* link;
    void operator()() const { link->finish_transmission(); }
  };

  // Schedule-change event: fires at each RateSchedule change point,
  // applies the new rate, and re-arms itself for the next one.
  struct ScheduleTick {
    BottleneckLink* link;
    void operator()() const { link->on_schedule_tick(); }
  };

  // Delayed admission of a jittered/duplicated copy released by the
  // impairment stage.  Carries the packet by value: at 56 bytes it
  // exactly fits the event loop's inline callback buffer.
  struct Admit {
    BottleneckLink* link;
    Packet p;
    void operator()() const { link->admit(p); }
  };
  static_assert(sizeof(Admit) <= EventCallback::kInlineBytes,
                "delayed-admit events must stay allocation-free");

  void admit(Packet p);
  void start_transmission();
  void finish_transmission();
  void drop(const Packet& p);
  void on_schedule_tick();
  void apply_rate_change(double new_rate_bps);

  EventLoop* loop_;
  double rate_bps_;
  std::unique_ptr<QueueDisc> qdisc_;
  std::unique_ptr<RateSchedule> schedule_;
  std::unique_ptr<ImpairmentStage> impairment_;
  DeliveryHandler on_delivery_;
  DropHandler on_drop_;

  bool busy_ = false;
  TimeNs busy_time_ = 0;
  Packet in_flight_;
  // In-flight serialization state, maintained only while a schedule is
  // installed: residual bytes as of tx_checkpoint_, the pending TxDone
  // event id, and its current deadline (so a mid-flight rate change can
  // retime the event and correct busy_time_).
  EventId tx_done_id_ = 0;
  TimeNs tx_done_time_ = 0;
  TimeNs tx_checkpoint_ = 0;
  double tx_remaining_bytes_ = 0.0;

  double loss_prob_ = 0.0;
  util::Rng loss_rng_;

  std::int64_t delivered_bytes_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t dropped_packets_ = 0;

  // Telemetry handles; null/inactive (no-op) unless attach_telemetry ran.
  obs::Counter obs_enqueues_;
  obs::Counter obs_impairment_decisions_;
  obs::Counter obs_drop_impairment_;
  obs::Counter obs_drop_random_;
  obs::Counter obs_drop_queue_;
  obs::Counter obs_mu_changes_;
  obs::Trace obs_trace_;
};

}  // namespace nimbus::sim
