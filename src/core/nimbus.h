// Nimbus: mode-switching congestion control driven by elasticity detection
// (paper section 4), including the multi-flow pulser/watcher protocol
// (section 6).
//
// Single flow (multiflow = false): the flow is always the pulser.  Every
// report it estimates the cross-traffic rate z (Eq. 1), feeds the
// elasticity detector, and picks:
//   * TCP-competitive mode (inner Cubic, rate = cwnd/sRTT) when
//     the cross traffic is elastic (eta >= 2), or
//   * delay-control mode (BasicDelay Eq. 4, Vegas, or Copa default mode)
//     when it is inelastic.
// On a switch to competitive mode the rate is reset to its value one FFT
// duration (5 s) ago, undoing the decay the delay controller suffered while
// the detector was catching up (section 4.1).  The pacing rate is modulated
// with the asymmetric sinusoidal pulse at f_pc = 5 Hz (competitive) or
// f_pd = 6 Hz (delay mode).
//
// Multiple flows (multiflow = true): flows start as watchers.  A watcher
// looks for pulses in the FFT of its own receive rate at the two agreed
// frequencies, copies the mode of the stronger peak, and low-pass-filters
// its own sending rate below the pulse frequencies so it never confuses the
// pulser.  If no pulser is heard, it volunteers as pulser with probability
// kappa*(tau/FFT duration)*(R_i/mu) per decision (Eq. 5).  A pulser that
// sees more variation in the cross traffic at its pulse frequency than it
// itself creates concludes another pulser exists and steps down with a
// fixed probability.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "cc/cubic.h"
#include "cc/copa.h"
#include "cc/vegas.h"
#include "core/basic_delay.h"
#include "core/elasticity.h"
#include "core/estimators.h"
#include "core/pulse.h"
#include "obs/flight_recorder.h"
#include "sim/cc_interface.h"
#include "util/ewma.h"
#include "util/ring_deque.h"

namespace nimbus::core {

class Nimbus final : public sim::CcAlgorithm {
 public:
  enum class Mode { kDelay, kCompetitive };
  enum class Role { kPulser, kWatcher };
  enum class DelayAlgo { kBasicDelay, kVegas, kCopa };

  /// The experiment-facing knobs.  Constructing a Nimbus CHECK-fails
  /// unless known_mu_bps is finite and >= 0, pulse_amplitude_frac is in
  /// (0, 1], the two pulse frequencies are finite, positive, distinct and
  /// keep 2*f_p below the detector's Nyquist limit, and fft_duration_sec
  /// and eta_threshold are finite and > 0.
  struct Config {
    /// Bottleneck rate if known (controlled experiments, sections 8.2/8.3);
    /// 0 = estimate online from the peak receive rate.
    double known_mu_bps = 0.0;
    double pulse_amplitude_frac = 0.25;
    double fp_competitive_hz = 5.0;
    double fp_delay_hz = 6.0;
    double fft_duration_sec = 5.0;
    double eta_threshold = 2.0;
    DelayAlgo delay_algo = DelayAlgo::kBasicDelay;
    bool multiflow = false;  // pulser/watcher coordination (section 6)
    bool enable_rate_reset = true;  // ablation hook (section 4.1)
  };

  /// Periodic status snapshot for experiment harnesses.
  struct Status {
    TimeNs now = 0;
    Mode mode = Mode::kDelay;
    Role role = Role::kPulser;
    double eta = 0.0;       // smoothed (decision) eta
    double eta_raw = 0.0;    // latest single-window eta
    bool detector_ready = false;
    double z_bps = 0.0;
    double mu_bps = 0.0;
    double base_rate_bps = 0.0;
  };
  using StatusHandler = std::function<void(const Status&)>;

  explicit Nimbus(const Config& config);

  std::string name() const override { return "nimbus"; }
  void init(sim::CcContext& ctx) override;
  void on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) override;
  void on_loss(sim::CcContext& ctx, const sim::LossInfo& loss) override;
  void on_rto(sim::CcContext& ctx) override;
  void on_report(sim::CcContext& ctx, const sim::CcReport& report) override;

  void set_status_handler(StatusHandler h) { on_status_ = std::move(h); }

  /// Arms decision tracing (NIMBUS_OBS=trace): every detector evaluation
  /// emits a kDetectorDecision record (eta, band-max bin, the threshold in
  /// effect, the verdict), plus kModeSwitch and kPulsePhase marks.
  /// `flow_tag` labels the records (protagonist vs cross Nimbus).
  void set_trace(obs::Trace trace, std::uint16_t flow_tag) {
    trace_ = trace;
    trace_flow_ = flow_tag;
  }

  Mode mode() const { return mode_; }
  Role role() const { return role_; }
  double last_eta() const { return last_eta_; }
  double last_z_bps() const { return last_z_; }
  double mu_bps() const { return last_mu_; }
  double base_rate_bps() const { return base_rate_bps_; }
  const ElasticityDetector& detector() const { return detector_; }
  const Config& config() const { return cfg_; }

 private:
  double current_fp() const;
  void decide_mode_from_detector(sim::CcContext& ctx);
  void switch_mode(sim::CcContext& ctx, Mode to);
  void watcher_logic(sim::CcContext& ctx, const sim::CcReport& report);
  void pulser_conflict_check(sim::CcContext& ctx);
  double delay_mode_rate() const;
  double competitive_mode_rate() const;
  void record_rate(TimeNs now, double rate);
  double rate_at(TimeNs when) const;
  void apply_control(sim::CcContext& ctx, const sim::CcReport& report);

  Config cfg_;
  Mode mode_ = Mode::kDelay;  // every flow starts in delay mode
  Role role_ = Role::kPulser;

  AsymmetricPulse pulse_;
  ElasticityDetector detector_;   // of z(t)
  ElasticityDetector recv_watch_; // of R(t): watcher + conflict detection
                                  // (fed in multi-flow mode only)
  MuEstimator mu_est_;

  // Inner algorithms.
  cc::CubicCore cubic_;
  cc::VegasCore vegas_;
  cc::CopaCore copa_;
  BasicDelayCore basic_delay_;

  util::TimeEwma watcher_filter_;
  util::TimeEwma eta_filter_;
  // RTT smoothed well below the pulse frequency: rate<->window conversions
  // must not use an RTT that itself oscillates at f_p, or the product
  // creates a 2*f_p component in the emitted pulse.
  util::TimeEwma srtt_filter_{0.5};
  double srtt_smooth_s_ = 0.05;

  // Per-report rate log for the section 4.1 rate reset (~6 s of history at
  // the report cadence); a ring so steady-state recording never allocates.
  util::RingDeque<std::pair<TimeNs, double>> rate_history_;
  double base_rate_bps_ = 0.0;
  double last_eta_ = 0.0;      // smoothed
  double last_raw_eta_ = 0.0;
  util::TimeEwma z_mean_filter_{1.0};
  // Watcher-mode measurement filters: a watcher's delay rule must not see
  // the pulser's oscillation in its inputs (z and RTT), or its rate output
  // reacts at the pulse frequency and reads as elastic cross traffic to
  // the pulser.  One-pole filters at tau = 1 s attenuate 5-6 Hz ~40x.
  util::TimeEwma watcher_z_filter_{1.5};
  util::TimeEwma watcher_rtt_filter_{1.5};
  int conflict_streak_ = 0;
  // Set when the conflict rule demotes us: if by this deadline no other
  // pulser is audible, the demotion was a false alarm (a strong elastic
  // response can mimic a concurrent pulser) and we resume pulsing.
  TimeNs resume_check_at_ = 0;
  double last_z_ = 0.0;
  double last_mu_ = 0.0;

  StatusHandler on_status_;

  // Decision tracing (inactive unless set_trace armed it).
  obs::Trace trace_;
  std::uint16_t trace_flow_ = 0;
  int last_pulse_phase_ = -1;  // half-period index; -1 = not yet observed
};

/// Human-readable labels (bench output).
const char* to_string(Nimbus::Mode mode);
const char* to_string(Nimbus::Role role);

}  // namespace nimbus::core
