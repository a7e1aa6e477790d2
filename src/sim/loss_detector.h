// Sender-side loss detection in O(newly lost packets) per ACK.
//
// A packet is lost once it lies below the loss boundary `lost_below`
// (three sequences under the highest SACKed one) and has been outstanding
// for at least `min_age` (RACK-style, ~1 RTT).  Scanning the outstanding
// window for that on every ACK costs O(window): in a lossy window most
// slots were already emptied by SACKs, and most of the packets found are
// still too young, so the same ones are re-read ACK after ACK.
//
// LossDetector splits the outstanding packets into two streams, each in
// non-decreasing `sent_at` order, so every ACK reads only a prefix of each:
//
//   * The frontier stream: every packet sent at or above the boundary in
//     force when it was sent.  That is every original transmission, plus
//     the go-back-N retransmissions that follow an RTO (the transport
//     re-sends its sorted queue, in ascending seq, before any new data).
//     Since the last RTO these sends ascend in seq, so within the stream
//     seq order is send order.  The stream lives in the caller's
//     outstanding ring; `frontier_` marks the seq below which none of it
//     is left.  Each ACK walks up from the frontier, passing emptied slots
//     and FIFO packets, collects aged packets below the boundary, and
//     stops at the first stream packet that is young or at the boundary:
//     every later one is younger or higher.  Each seq is passed once.
//   * The retransmission FIFO: every packet sent below the boundary — a
//     fast retransmission, or a go-back-N one the boundary had already
//     passed.  The boundary never moves down, so such a packet stays below
//     it, and it is lost exactly when it has aged.  The FIFO holds
//     (sent_at, seq) in send order; each ACK pops the aged prefix (and
//     entries gone stale because the packet was acked or re-sent since)
//     and stops at the first young live entry.
//
// An ACK thus examines O(1 + newly lost + passed) entries, and each seq or
// FIFO entry is passed at most once, so the cost per packet sent is
// amortized O(1).  The two candidate lists are merged into ascending seq
// order, the order in which the transport declares losses.  The result is
// exactly that of the full scan (kept as the oracle of
// tests/loss_detector_test.cc), including when `min_age` grows or shrinks
// between ACKs and when a packet ages before the boundary passes it.
// NIMBUS_HOT_PATH file
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/seq_ring.h"
#include "util/check.h"
#include "util/ring_deque.h"
#include "util/time.h"

namespace nimbus::sim {

/// Per-packet sender state for an outstanding sequence.
struct SentRecord {
  TimeNs sent_at = 0;
  bool in_fifo = false;  // on the retransmission FIFO, not the frontier
};

class LossDetector {
 public:
  /// The record for `seq` sent at `now`, for the caller to insert into its
  /// outstanding ring.  `lost_below` is the boundary in force (0 before
  /// the first ACK arms detection).  Sends at or above the boundary must
  /// ascend in seq between on_rto() calls (checked).
  SentRecord on_send(std::uint64_t seq, TimeNs now, std::uint64_t lost_below) {
    if (seq < lost_below) {
      // detlint:allow(R5): the FIFO stops growing at its high-water mark
      fifo_.push_back({now, seq});
      return {now, true};
    }
    NIMBUS_CHECK_MSG(seq >= next_frontier_send_,
                     "frontier-stream sends must ascend in seq");
    next_frontier_send_ = seq + 1;
    return {now, false};
  }

  /// Every packet in `outstanding` below `lost_below` that has been
  /// outstanding for at least `min_age` at `now`, in ascending seq.  The
  /// caller must erase each returned seq from `outstanding` before the
  /// next call; `lost_below` must never decrease.
  const std::vector<std::uint64_t>& collect(
      const SeqRing<SentRecord>& outstanding, std::uint64_t lost_below,
      TimeNs now, TimeNs min_age) {
    lost_.clear();
    if (outstanding.empty()) return lost_;

    std::uint64_t s = std::max(frontier_, outstanding.lowest());
    const std::uint64_t end = std::min(lost_below, outstanding.upper());
    for (; s < end; ++s) {
      ++examined_;
      const SentRecord* r = outstanding.find(s);
      if (r == nullptr || r->in_fifo) continue;
      if (now - r->sent_at < min_age) break;
      // detlint:allow(R5): reuses capacity up to its high-water mark
      lost_.push_back(s);
    }
    // The frontier never passes the boundary: a later go-back-N send at
    // or above the boundary must still be found.
    frontier_ = std::min(s, lost_below);

    const std::size_t from_fifo = lost_.size();
    while (!fifo_.empty()) {
      ++examined_;
      const Entry e = fifo_.front();
      const SentRecord* r = outstanding.find(e.seq);
      if (r != nullptr && r->in_fifo && r->sent_at == e.sent_at) {
        if (now - e.sent_at < min_age) break;
        // detlint:allow(R5): reuses capacity up to its high-water mark
        lost_.push_back(e.seq);
      }
      fifo_.pop_front();
    }
    if (lost_.size() > from_fifo && lost_.size() > 1) {
      std::sort(lost_.begin(), lost_.end());
    }
    return lost_;
  }

  /// The RTO cleared the whole outstanding window: every FIFO entry is
  /// stale, and go-back-N sends start a new ascending run.
  void on_rto() {
    fifo_.clear();
    next_frontier_send_ = 0;
  }

  /// Entries read by collect() so far (ring slots passed by the frontier
  /// walk plus FIFO entries): the work bound tests pin.
  std::uint64_t examined() const { return examined_; }

 private:
  struct Entry {
    TimeNs sent_at;
    std::uint64_t seq;
  };

  std::uint64_t frontier_ = 0;  // no frontier-stream packet lies below
  std::uint64_t next_frontier_send_ = 0;  // lowest seq the stream accepts
  util::RingDeque<Entry> fifo_;
  std::vector<std::uint64_t> lost_;
  std::uint64_t examined_ = 0;
};

}  // namespace nimbus::sim
