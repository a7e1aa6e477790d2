// The contract between the transport and a congestion-control algorithm.
//
// Algorithms receive per-ACK and per-loss callbacks (the ACK clock) plus a
// periodic 10 ms report mirroring the paper's CCP deployment (section 4.2).
// They steer the transport through CcContext: a congestion window, an
// optional pacing rate (0 = pure ACK clocking), or both.  An ACK-clocked
// window algorithm that reads neither the report nor the Eq. 2 rates opts
// out of both through CcAlgorithm::reads_reports(), as kernel Cubic and
// NewReno never see a CCP report.  Every segment is sim::kMss bytes
// (sim/packet.h), so algorithms convert between bytes and packets with it.
#pragma once

#include <cstdint>
#include <string>

#include "sim/packet.h"
#include "util/rng.h"
#include "util/time.h"

namespace nimbus::sim {

/// CCP report cadence (section 4.2): every transport flow whose algorithm
/// reads reports calls CcAlgorithm::on_report this often, and Nimbus
/// samples z(t) once per report, so its detector's sample rate is
/// 1 / kReportInterval = 100 Hz.
inline constexpr TimeNs kReportInterval = from_ms(10);

/// Per-ACK information handed to the algorithm.
struct AckInfo {
  TimeNs now = 0;
  std::uint64_t seq = 0;          // packet being acknowledged
  std::uint32_t newly_acked_bytes = 0;
  TimeNs rtt = 0;                 // RTT sample from this ACK
  bool app_limited = false;       // sender had no data when this pkt was sent
};

/// Loss notification (from triple-duplicate detection).
struct LossInfo {
  TimeNs now = 0;
  std::uint64_t seq = 0;
  std::uint32_t lost_bytes = 0;
  /// True for the first loss in a round trip; algorithms should apply a
  /// multiplicative decrease at most once per congestion event.
  bool new_congestion_event = false;
};

/// CCP-style periodic report aggregated over the report interval.
struct CcReport {
  TimeNs now = 0;
  double send_rate_bps = 0.0;   // S over the last window of packets
  double recv_rate_bps = 0.0;   // R over the same packets
  bool rates_valid = false;
  TimeNs srtt = 0;
  TimeNs latest_rtt = 0;
  TimeNs min_rtt = 0;
  std::uint32_t acked_packets = 0;   // since the previous report
  std::uint32_t lost_packets = 0;    // since the previous report
  std::int64_t bytes_in_flight = 0;
};

/// Control surface the transport exposes to algorithms.
class CcContext {
 public:
  virtual ~CcContext() = default;

  virtual TimeNs now() const = 0;

  virtual double cwnd_bytes() const = 0;
  virtual void set_cwnd_bytes(double bytes) = 0;

  /// Pacing rate in bits/s; 0 disables pacing (sends are ACK-clocked).
  virtual double pacing_rate_bps() const = 0;
  virtual void set_pacing_rate_bps(double bps) = 0;

  virtual TimeNs srtt() const = 0;
  virtual TimeNs latest_rtt() const = 0;
  virtual TimeNs min_rtt() const = 0;

  virtual std::int64_t bytes_in_flight() const = 0;
  virtual bool is_app_limited() const = 0;

  /// Send/receive rates over the last window of acked packets (Eq. 2).
  virtual double send_rate_bps() const = 0;
  virtual double recv_rate_bps() const = 0;
  virtual bool rates_valid() const = 0;

  /// Overrides the S/R measurement window (bytes of recently acked data).
  /// 0 restores the default (the current cwnd).  Nimbus sets one RTT's
  /// worth: the paper requires the measurement interval to stay below the
  /// pulse period or the pulse would average out of z (section 3.4).
  virtual void set_rate_window_bytes(double bytes) = 0;

  /// Deterministic per-flow randomness (e.g. Nimbus pulser election).
  virtual util::Rng& rng() = 0;
};

/// Congestion-control algorithm interface.
class CcAlgorithm {
 public:
  virtual ~CcAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Called once when the flow starts; set the initial window/rate here.
  virtual void init(CcContext& ctx) = 0;

  virtual void on_ack(CcContext& ctx, const AckInfo& ack) = 0;
  virtual void on_loss(CcContext& /*ctx*/, const LossInfo& /*loss*/) {}
  /// Retransmission timeout: the whole window was lost.
  virtual void on_rto(CcContext& /*ctx*/) {}
  /// Periodic CCP-style report (every kReportInterval).
  virtual void on_report(CcContext& /*ctx*/, const CcReport& /*report*/) {}

  /// Whether the algorithm reads the transport's measurements.  Return
  /// false only for a pure ACK-clocked window algorithm: one that
  /// overrides no on_report, never reads CcContext::send_rate_bps /
  /// recv_rate_bps / rates_valid, and never paces (pacing rate 0).  The
  /// transport then arms no report timer and records no Eq. 2 samples
  /// for the flow, and it CHECK-fails a rate read or a nonzero pacing
  /// rate instead of serving stale values.  Output is unchanged: without
  /// pacing, every cwnd change is already followed by a send attempt, so
  /// the report's own send attempt never sends.
  virtual bool reads_reports() const { return true; }
};

}  // namespace nimbus::sim
