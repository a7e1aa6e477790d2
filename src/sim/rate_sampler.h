// Send/receive rate measurement over the last n acknowledged packets,
// exactly as the paper's Eq. (2):
//
//   S = n_bytes / (s_{i+n} - s_i),   R = n_bytes / (r_{i+n} - r_i)
//
// where s_k is the send time of packet k and r_k the arrival time of its
// ACK.  Both rates are measured over the *same* n packets — the property the
// cross-traffic estimator (Eq. 1) depends on.  n is one window's worth of
// packets (section 3.4: "our implementation measures S and R over one RTT").
//
// The transport computes rates() lazily, when a reader asks: once per
// 10 ms report for Nimbus and the other report-driven algorithms, and on
// every ACK for BBR, which reads CcContext::send_rate_bps/recv_rate_bps
// in on_ack.  A flow whose algorithm reads no reports
// (CcAlgorithm::reads_reports) records no samples at all.  Reads must
// stay cheap, so the implementation is a power-of-two ring indexed by
// the global ack count, and each sample carries the running total of
// acked bytes: n_bytes over any window is one subtraction of two exact
// integer prefix sums instead of the reference implementation's O(n)
// re-summation.  The ring is a fixed array of 16
// pointers to 1024-sample (24 KB) chunks: a new flow's history grows one
// chunk at a time up to the 16384-sample cap, moving no samples and never
// asking for a block big enough for malloc to mmap, and after the cap
// on_ack overwrites the oldest sample — steady state touches no heap and
// rates() is O(1).  Results are bit-identical to a deque that re-sums the
// window on every query (tests/transport_ring_test.cc holds that reference
// and checks it).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "util/time.h"

namespace nimbus::sim {

class RateSampler {
 public:
  struct Rates {
    double send_bps = 0.0;
    double recv_bps = 0.0;
    bool valid = false;
  };

  /// Records one acknowledged packet.
  // NIMBUS_HOT_PATH begin
  void on_ack(TimeNs sent_at, TimeNs acked_at, std::uint32_t bytes) {
    if ((next_ & (kChunkSamples - 1)) == 0) next_chunk();
    cum_bytes_ += bytes;
    write_[next_ & (kChunkSamples - 1)] = {sent_at, acked_at, cum_bytes_};
    ++next_;
  }
  // NIMBUS_HOT_PATH end

  /// Rates over the most recent `n_packets` acked packets (clamped to what
  /// is available; invalid until at least kMinPackets have been seen).
  Rates rates(std::size_t n_packets) const;

  /// Convenience: rates over roughly one window (cwnd_bytes / kMss
  /// packets, at least 8).
  Rates rates_over_window(double cwnd_bytes) const;

  std::size_t history_size() const {
    return next_ < kMaxHistory ? static_cast<std::size_t>(next_)
                               : kMaxHistory;
  }

  static constexpr std::size_t kMaxHistory = 16384;
  static constexpr std::size_t kMinPackets = 5;

 private:
  struct Sample {
    TimeNs sent_at;
    TimeNs acked_at;
    std::uint64_t cum_bytes;  // total acked bytes through this sample
  };

  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSamples = std::size_t{1}
                                               << kChunkShift;
  static constexpr std::size_t kChunks = kMaxHistory / kChunkSamples;
  static_assert(kChunks * kChunkSamples == kMaxHistory &&
                    (kChunks & (kChunks - 1)) == 0,
                "the chunk ring must be a power of two covering the cap");

  // The sample with global index i (one of the last kMaxHistory).
  const Sample& at(std::uint64_t i) const {
    return chunks_[(i >> kChunkShift) & (kChunks - 1)]
                  [i & (kChunkSamples - 1)];
  }
  // Points write_ at the chunk that sample next_ opens, allocating the
  // chunk the first time the history reaches it.
  void next_chunk();

  // Chunk k holds global indices i with (i >> kChunkShift) % kChunks == k;
  // chunks are allocated in order as the history first reaches them.
  std::array<std::unique_ptr<Sample[]>, kChunks> chunks_;
  Sample* write_ = nullptr;  // the chunk holding sample next_
  std::uint64_t next_ = 0;  // global index of the next sample
  std::uint64_t cum_bytes_ = 0;
};

}  // namespace nimbus::sim
