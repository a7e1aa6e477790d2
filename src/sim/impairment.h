// Composable path-impairment stage: the adversarial path model.
//
// Every scenario used to run on a polite path whose only fault model was
// i.i.d. random loss (BottleneckLink::set_random_loss).  Real Internet
// paths exhibit bursty correlated loss, delay jitter with packet
// reordering, duplication, and outright blackouts — exactly the regimes
// where a pulse-FFT elasticity detector can silently degrade.  An
// ImpairmentStage models one direction of such a path as a stateful
// per-packet filter applied where the path is traversed:
//
//   * forward (data) direction — installed on the BottleneckLink
//     (set_impairment); every packet offered to the link passes through
//     the stage before random loss and the queue, so all senders sharing the
//     bottleneck share the impaired path, as they would in reality;
//   * reverse (ACK) direction — installed on the Network
//     (set_ack_impairment); every ACK's reverse-path trip is filtered
//     before its delivery event is scheduled.
//
// Mechanisms, applied in a fixed order per packet (blackout, then bursty
// loss, then duplication, then jitter):
//
//   * Gilbert–Elliott two-state loss: a good/bad Markov chain advanced
//     once per offered packet (P(good->bad) = ge_p, P(bad->good) = ge_q),
//     with state-dependent loss probabilities.  Stationary loss rate is
//     pi_bad * ge_loss_bad + pi_good * ge_loss_good with
//     pi_bad = ge_p / (ge_p + ge_q); mean burst length is 1/ge_q packets
//     (tests pin both).
//   * Delay jitter: each surviving copy picks an extra delay uniform in
//     [0, jitter].  With reorder = false the stage releases packets FIFO
//     (a draw that would overtake is clamped to the previous release
//     time); with reorder = true jittered packets may overtake, which is
//     what actually produces reordering downstream.
//   * Duplication: with probability duplicate_prob a second copy is
//     emitted (each copy draws its own jitter).
//   * Blackouts / link flaps: packets offered during an outage are
//     dropped.  Outages come from an explicit schedule (`blackouts`)
//     and/or a periodic flap (flap_period / flap_duration / flap_offset).
//
// Determinism: the stage is seeded explicitly (a zero seed CHECK-fails —
// the shared-stream hazard this subsystem exists to avoid) and each
// mechanism draws from its own splitmix-derived RNG stream, so e.g.
// enabling duplication does not perturb the loss pattern.  Decisions
// depend only on the call sequence, which the event loop makes
// deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/flight_recorder.h"
#include "util/rng.h"
#include "util/time.h"

namespace nimbus::sim {

/// One scheduled outage: packets offered in [start, start + duration) are
/// dropped.
struct Outage {
  TimeNs start = 0;
  TimeNs duration = 0;
};

struct ImpairmentConfig {
  // --- Gilbert–Elliott bursty loss ---
  bool ge_enabled = false;
  double ge_p = 0.0;          // P(good -> bad), evaluated once per packet
  double ge_q = 0.0;          // P(bad -> good)
  double ge_loss_good = 0.0;  // loss probability in the good state
  double ge_loss_bad = 1.0;   // loss probability in the bad state

  // --- delay jitter / reordering ---
  TimeNs jitter = 0;          // max extra per-packet delay (uniform [0, jitter])
  bool reorder = false;       // true: jittered packets may overtake

  // --- duplication ---
  double duplicate_prob = 0.0;

  // --- blackouts / link flaps ---
  std::vector<Outage> blackouts;  // explicit outages (sorted at install)
  TimeNs flap_period = 0;         // > 0: periodic outage every flap_period
  TimeNs flap_duration = 0;       //      lasting flap_duration
  TimeNs flap_offset = 0;         //      first flap starts here

  /// RNG seed for the stage.  Must be nonzero when a stage is built: 0 is
  /// the "derive me from the scenario seed" sentinel at the spec layer
  /// (exp/scenario.h), never a valid stream.
  std::uint64_t seed = 0;

  /// True if any mechanism is enabled (a default config is a no-op and
  /// the scenario layer installs no stage at all for it).
  bool any() const;
};

class ImpairmentStage {
 public:
  /// Validates the config (CHECK-fails on out-of-range probabilities, a
  /// zero seed, an absorbing bad state, or flap_duration > flap_period)
  /// and sorts the explicit outage schedule.
  explicit ImpairmentStage(const ImpairmentConfig& cfg);

  /// The fate of one offered packet: how many copies to release (0 =
  /// dropped) and each copy's extra delay beyond the unimpaired path.
  struct Decision {
    int copies = 1;
    TimeNs delay[2] = {0, 0};
  };

  /// Decides one packet offered at `now`.  Calls must be monotone in
  /// `now` (the event loop guarantees this); the outage cursor and the
  /// FIFO release clamp rely on it.
  Decision on_packet(TimeNs now);

  /// True if `now` falls inside a scheduled outage or a flap window.
  bool in_blackout(TimeNs now);

  const ImpairmentConfig& config() const { return cfg_; }

  /// Arms kBlackoutBegin/kBlackoutEnd trace events (`tag` distinguishes
  /// the data stage from the ACK stage).  Episodes are observed through
  /// the offered-packet stream: "begin" marks the first packet a blackout
  /// swallows, "end" the first packet through after it lifts.
  void set_trace(obs::Trace trace, std::uint32_t tag) {
    obs_trace_ = trace;
    obs_tag_ = tag;
  }

  // --- statistics ---
  std::uint64_t offered() const { return offered_; }
  std::uint64_t lost() const { return lost_; }  // GE losses only
  std::uint64_t blackout_dropped() const { return blackout_dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }
  /// Copies released behind an already-released later packet (only
  /// possible with reorder = true).
  std::uint64_t reordered() const { return reordered_; }

 private:
  ImpairmentConfig cfg_;
  util::Rng loss_rng_;
  util::Rng jitter_rng_;
  util::Rng dup_rng_;

  bool ge_bad_ = false;        // chain starts in the good state
  std::size_t outage_next_ = 0;  // first outage not yet ended
  TimeNs last_release_ = 0;    // latest stage-departure time emitted

  std::uint64_t offered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t blackout_dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;

  obs::Trace obs_trace_;
  std::uint32_t obs_tag_ = 0;
  bool was_blackout_ = false;
};

}  // namespace nimbus::sim
