#include "traffic/raw_sources.h"

#include "util/check.h"

namespace nimbus::traffic {

CbrSource::CbrSource(sim::EventLoop* loop, sim::BottleneckLink* link,
                     Config cfg)
    : loop_(loop), link_(link), cfg_(cfg) {
  NIMBUS_CHECK(cfg_.rate_bps > 0);
  NIMBUS_CHECK(cfg_.id != 0);
}

void CbrSource::start() {
  loop_->schedule(std::max(cfg_.start_time, loop_->now()),
                  [this]() { send_next(); });
}

void CbrSource::send_next() {
  const TimeNs now = loop_->now();
  if (now >= cfg_.stop_time) return;
  sim::Packet p;
  p.flow_id = cfg_.id;
  p.seq = seq_++;
  p.size_bytes = sim::kMss;
  p.sent_at = now;
  link_->enqueue(p);
  loop_->schedule_in(tx_time(sim::kMss, cfg_.rate_bps),
                     [this]() { send_next(); });
}

PoissonSource::PoissonSource(sim::EventLoop* loop, sim::BottleneckLink* link,
                             Config cfg)
    : loop_(loop), link_(link), cfg_(cfg), rng_(cfg.seed) {
  NIMBUS_CHECK(cfg_.mean_rate_bps > 0);
  NIMBUS_CHECK(cfg_.id != 0);
}

void PoissonSource::start() {
  loop_->schedule(std::max(cfg_.start_time, loop_->now()),
                  [this]() { send_next(); });
}

void PoissonSource::send_next() {
  const TimeNs now = loop_->now();
  if (now >= cfg_.stop_time) return;
  sim::Packet p;
  p.flow_id = cfg_.id;
  p.seq = seq_++;
  p.size_bytes = sim::kMss;
  p.sent_at = now;
  link_->enqueue(p);
  const double mean_gap_sec =
      static_cast<double>(sim::kMss) * 8.0 / cfg_.mean_rate_bps;
  loop_->schedule_in(from_sec(rng_.exponential(mean_gap_sec)),
                     [this]() { send_next(); });
}

}  // namespace nimbus::traffic
