#include "core/nimbus.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nimbus::core {

namespace {

/// z(t) is sampled once per CCP report.
static_assert(kDetectorSampleRateHz == 1.0 / to_sec(sim::kReportInterval),
              "the detector samples once per report");

/// Time constant (seconds) of the EWMA applied to eta before the mode
/// decision.  The raw metric is noisy near the threshold (the z estimate
/// carries measurement sidebands), and a ~1 s smoothing keeps mode
/// decisions stable while staying well inside the 5 s detection budget.
constexpr double kEtaSmoothingTauSec = 1.0;

/// Hysteresis: leave competitive mode only when the smoothed eta falls
/// below eta_threshold / this factor.  Near-threshold measurement noise
/// otherwise flaps the mode, and every trip through delay mode costs
/// throughput against elastic cross traffic.
constexpr double kExitHysteresis = 1.25;

/// Cross traffic below this fraction of mu is treated as absent: eta is a
/// ratio of spectral peaks and becomes a noise/noise ratio when z ~ 0
/// (e.g. a solo flow whose own pulse troughs briefly empty the queue), so
/// an insignificant z is classified inelastic directly.
constexpr double kZSignificanceFrac = 0.05;

/// S/R are measured over min(sRTT, pulse period / this divisor) of data.
/// Longer windows average the pulse response out of z (attenuation);
/// shorter windows raise the estimator's noise floor inside the
/// comparison band.  2 balances the two (tuned empirically in the
/// forced-delay worst case).
constexpr double kMeasurementWindowDivisor = 2.0;

// Multi-flow coordination (section 6).
constexpr double kKappa = 0.5;  // expected pulsers per FFT duration
/// Watcher low-pass, well below min(f_pc, f_pd): the watcher's delay rule
/// reacts to the pulser's queue oscillation, and residual pulse-frequency
/// energy in watcher rates reads as elastic cross traffic.
constexpr double kWatcherCutoffHz = 0.35;
constexpr double kPulserPresenceEta = 2.0;
/// Two same-frequency pulsers see z-peak ~ own R-peak (parity); an elastic
/// response alone stays well below the pulser's own peak.
constexpr double kConflictMargin = 0.95;
constexpr double kConflictSwitchProb = 0.1;
/// Reports the conflict condition must hold continuously before the
/// demotion lottery runs: transient cross-traffic spikes (a cubic
/// slow-start overshoot) can match the condition for a few hundred
/// milliseconds and must not cost the link its only pulser.
constexpr int kConflictPersistenceReports = 150;

const Nimbus::Config& validated(const Nimbus::Config& cfg) {
  NIMBUS_CHECK_MSG(std::isfinite(cfg.known_mu_bps) && cfg.known_mu_bps >= 0,
                   "Nimbus: known_mu_bps must be finite and >= 0");
  NIMBUS_CHECK_MSG(
      cfg.pulse_amplitude_frac > 0 && cfg.pulse_amplitude_frac <= 1.0,
      "Nimbus: pulse_amplitude_frac must be in (0, 1]");
  for (const double f : {cfg.fp_competitive_hz, cfg.fp_delay_hz}) {
    // The comparison band (f_p, 2 f_p) must fit below Nyquist.
    NIMBUS_CHECK_MSG(std::isfinite(f) && f > 0 &&
                         2.0 * f < kDetectorSampleRateHz / 2,
                     "Nimbus: pulse frequencies must be finite, > 0 and "
                     "below a quarter of the report rate");
  }
  NIMBUS_CHECK_MSG(cfg.fp_competitive_hz != cfg.fp_delay_hz,
                   "Nimbus: the two pulse frequencies must differ");
  NIMBUS_CHECK_MSG(
      std::isfinite(cfg.fft_duration_sec) && cfg.fft_duration_sec > 0,
      "Nimbus: fft_duration_sec must be finite and > 0");
  NIMBUS_CHECK_MSG(std::isfinite(cfg.eta_threshold) && cfg.eta_threshold > 0,
                   "Nimbus: eta_threshold must be finite and > 0");
  return cfg;
}

ElasticityDetector::Config detector_config(const Nimbus::Config& cfg) {
  ElasticityDetector::Config d;
  d.duration_sec = cfg.fft_duration_sec;
  d.eta_threshold = cfg.eta_threshold;
  // Both pulse frequencies get incrementally maintained spectral bands:
  // watchers evaluate f_pc and f_pd on every report, and a pulser's own
  // frequency is always one of the two.
  d.tracked_freqs_hz = {cfg.fp_competitive_hz, cfg.fp_delay_hz};
  return d;
}

}  // namespace

const char* to_string(Nimbus::Mode mode) {
  return mode == Nimbus::Mode::kDelay ? "delay" : "competitive";
}

const char* to_string(Nimbus::Role role) {
  return role == Nimbus::Role::kPulser ? "pulser" : "watcher";
}

Nimbus::Nimbus(const Config& config)
    : cfg_(validated(config)),
      pulse_({config.fp_delay_hz, config.pulse_amplitude_frac}),
      detector_(detector_config(config)),
      recv_watch_(detector_config(config)),
      watcher_filter_(util::TimeEwma::with_cutoff_hz(kWatcherCutoffHz)),
      eta_filter_(kEtaSmoothingTauSec) {}

double Nimbus::current_fp() const {
  // Mode-dependent frequencies exist so *watchers* can read the pulser's
  // mode from its pulse frequency (section 6).  A solo flow pulses at one
  // fixed frequency: detection stays continuous across mode switches (no
  // stale-frequency energy in the window), and f_pc = 5 Hz keeps the pulse
  // harmonics (10, 15 Hz) outside the (f_p, 2 f_p) comparison band.
  if (!cfg_.multiflow) return cfg_.fp_competitive_hz;
  return mode_ == Mode::kCompetitive ? cfg_.fp_competitive_hz
                                     : cfg_.fp_delay_hz;
}

void Nimbus::init(sim::CcContext& ctx) {
  role_ = cfg_.multiflow ? Role::kWatcher : Role::kPulser;
  pulse_.set_frequency_hz(current_fp());

  const double iw_rate = ctx.cwnd_bytes() * 8.0 / 0.05;  // IW over 50 ms
  basic_delay_.init(iw_rate);
  cubic_.init(ctx.cwnd_bytes() / sim::kMss);
  vegas_.init(ctx.cwnd_bytes() / sim::kMss);
  copa_.init(ctx.cwnd_bytes() / sim::kMss);
  base_rate_bps_ = iw_rate;
  ctx.set_pacing_rate_bps(iw_rate);
}

void Nimbus::on_ack(sim::CcContext& ctx, const sim::AckInfo& ack) {
  const double acked_pkts =
      static_cast<double>(ack.newly_acked_bytes) / sim::kMss;
  if (mode_ == Mode::kCompetitive) {
    cubic_.on_ack(ack.now, ctx.srtt(), acked_pkts);
  } else {
    switch (cfg_.delay_algo) {
      case DelayAlgo::kBasicDelay:
        break;  // rate rule runs on reports
      case DelayAlgo::kVegas:
        vegas_.on_ack(ack.now, ack.rtt, ctx.min_rtt(), acked_pkts);
        break;
      case DelayAlgo::kCopa:
        copa_.on_ack(ack.now, ack.rtt, ctx.min_rtt(), acked_pkts,
                     ctx.srtt());
        break;
    }
  }
}

void Nimbus::on_loss(sim::CcContext& /*ctx*/, const sim::LossInfo& loss) {
  if (!loss.new_congestion_event) return;
  if (mode_ == Mode::kCompetitive) {
    cubic_.on_congestion_event(loss.now);
  } else {
    switch (cfg_.delay_algo) {
      case DelayAlgo::kBasicDelay:
        basic_delay_.set_rate_bps(basic_delay_.rate_bps() / 2.0);
        break;
      case DelayAlgo::kVegas:
        vegas_.on_congestion_event();
        break;
      case DelayAlgo::kCopa:
        copa_.set_cwnd_pkts(copa_.cwnd_pkts() / 2.0);
        break;
    }
  }
}

void Nimbus::on_rto(sim::CcContext& /*ctx*/) {
  cubic_.on_rto();
  vegas_.on_rto();
  copa_.on_rto();
  basic_delay_.set_rate_bps(basic_delay_.rate_bps() / 2.0);
}

double Nimbus::delay_mode_rate() const {
  const double srtt_sec = srtt_smooth_s_;
  switch (cfg_.delay_algo) {
    case DelayAlgo::kBasicDelay:
      return basic_delay_.rate_bps();
    case DelayAlgo::kVegas:
      return vegas_.cwnd_pkts() * sim::kMss * 8.0 / srtt_sec;
    case DelayAlgo::kCopa:
      return copa_.cwnd_pkts() * sim::kMss * 8.0 / srtt_sec;
  }
  return basic_delay_.rate_bps();
}

double Nimbus::competitive_mode_rate() const {
  const double srtt_sec = srtt_smooth_s_;
  return cubic_.cwnd_pkts() * sim::kMss * 8.0 / srtt_sec;
}

void Nimbus::record_rate(TimeNs now, double rate) {
  rate_history_.push_back({now, rate});
  const TimeNs horizon =
      from_sec(cfg_.fft_duration_sec) + from_sec(1);
  while (!rate_history_.empty() &&
         rate_history_.front().first + horizon < now) {
    rate_history_.pop_front();
  }
}

double Nimbus::rate_at(TimeNs when) const {
  if (rate_history_.empty()) return base_rate_bps_;
  double best = rate_history_.front().second;
  for (std::size_t i = 0; i < rate_history_.size(); ++i) {
    const auto& [t, r] = rate_history_[i];
    if (t > when) break;
    best = r;
  }
  return best;
}

void Nimbus::switch_mode(sim::CcContext& ctx, Mode to) {
  if (to == mode_) return;
  const TimeNs now = ctx.now();
  const double srtt_sec = srtt_smooth_s_;

  if (to == Mode::kCompetitive) {
    // Section 4.1: reset the rate to its value one FFT duration ago — the
    // delay algorithm has been losing throughput to the elastic cross
    // traffic while the detector caught up.
    const double reset_rate =
        cfg_.enable_rate_reset
            ? std::max(rate_at(now - from_sec(cfg_.fft_duration_sec)),
                       base_rate_bps_)
            : base_rate_bps_;
    const double cwnd_pkts =
        std::max(reset_rate * srtt_sec / 8.0 / sim::kMss, 2.0);
    cubic_.init(cwnd_pkts);
    cubic_.set_cwnd_pkts(cwnd_pkts);
  } else {
    // Enter delay mode from the current competitive rate; the delay
    // algorithm converges from there.
    const double rate = std::max(base_rate_bps_, 0.5e6);
    basic_delay_.init(rate);
    const double cwnd_pkts = std::max(rate * srtt_sec / 8.0 / sim::kMss, 2.0);
    vegas_.init(cwnd_pkts);
    copa_.init(cwnd_pkts);
  }
  if (trace_.active()) {
    obs::TraceEvent e;
    e.t = now;
    e.kind = static_cast<std::uint16_t>(obs::TraceKind::kModeSwitch);
    e.flow = trace_flow_;
    e.a = static_cast<std::uint32_t>(to);
    e.b = static_cast<std::uint32_t>(mode_);
    e.v0 = last_eta_;
    trace_.emit(e);
  }
  mode_ = to;
  const double old_fp = pulse_.frequency_hz();
  pulse_.set_frequency_hz(current_fp());
  // Multiflow only: if the pulse frequency changed with the mode, the z
  // history still holds oscillations at the old frequency; evaluating the
  // new frequency against it would immediately flap the mode back.
  if (pulse_.frequency_hz() != old_fp) detector_.reset();
}

void Nimbus::decide_mode_from_detector(sim::CcContext& ctx) {
  if (!detector_.ready()) return;
  const auto result = detector_.evaluate(current_fp());
  last_raw_eta_ = result.eta;
  eta_filter_.add(ctx.now(), result.eta);
  last_eta_ = eta_filter_.value();

  // Vacuous cross traffic: with z ~ 0 there is nothing whose elasticity
  // could matter, and eta degenerates to a noise/noise ratio (a solo
  // flow's pulse troughs can empty the queue periodically, faking a peak
  // at f_p).  Insignificant z => inelastic.
  const bool z_significant =
      last_mu_ <= 0 ||
      z_mean_filter_.value() >= kZSignificanceFrac * last_mu_;

  Mode want;
  if (!z_significant) {
    want = Mode::kDelay;
  } else if (mode_ == Mode::kCompetitive) {
    // Hysteresis: require the smoothed eta to fall clearly below the
    // threshold before abandoning competitive mode.
    want = last_eta_ >= cfg_.eta_threshold / kExitHysteresis
               ? Mode::kCompetitive
               : Mode::kDelay;
  } else {
    want = last_eta_ >= cfg_.eta_threshold ? Mode::kCompetitive
                                           : Mode::kDelay;
  }
  if (trace_.active()) {
    obs::TraceEvent e;
    e.t = ctx.now();
    e.kind = static_cast<std::uint16_t>(obs::TraceKind::kDetectorDecision);
    e.flow = trace_flow_;
    e.a = static_cast<std::uint32_t>(want);
    e.b = static_cast<std::uint32_t>(result.band_max_bin);
    e.v0 = last_eta_;
    e.v1 = last_raw_eta_;
    // The threshold the verdict was actually held against (0 marks the
    // z-insignificant early classification, where eta never applied).
    e.v2 = !z_significant ? 0.0
           : mode_ == Mode::kCompetitive
               ? cfg_.eta_threshold / kExitHysteresis
               : cfg_.eta_threshold;
    trace_.emit(e);
  }
  switch_mode(ctx, want);
}

void Nimbus::watcher_logic(sim::CcContext& ctx,
                           const sim::CcReport& report) {
  if (!recv_watch_.ready()) return;

  const auto at_c = recv_watch_.evaluate(cfg_.fp_competitive_hz);
  const auto at_d = recv_watch_.evaluate(cfg_.fp_delay_hz);
  // Presence needs both a dominant ratio and an absolutely significant
  // peak: with no pulser on the link, eta over the watcher's receive rate
  // degenerates to a noise/noise ratio and would randomly block election.
  const double significance =
      last_mu_ > 0 ? 0.005 * last_mu_ : 1e9;
  const bool pulser_present =
      (at_c.eta >= kPulserPresenceEta &&
       at_c.pulse_magnitude >= significance) ||
      (at_d.eta >= kPulserPresenceEta &&
       at_d.pulse_magnitude >= significance);

  // Post-demotion review: only at the deadline, once our own stale pulses
  // have left the receive window.  (Readings before the deadline are
  // contaminated by our own pulse history and must neither trigger nor
  // cancel the review.)
  if (resume_check_at_ != 0 && ctx.now() >= resume_check_at_) {
    resume_check_at_ = 0;
    if (!pulser_present) {
      // Nobody else is pulsing: the suspected conflict was a strong
      // elastic response, not a second pulser.  Resume.
      role_ = Role::kPulser;
      detector_.reset();
      return;
    }
  }

  if (pulser_present) {
    // Follow the pulser's mode (stronger peak wins).
    switch_mode(ctx, at_c.eta >= at_d.eta ? Mode::kCompetitive
                                          : Mode::kDelay);
    return;
  }

  // No pulser heard: volunteer with probability (Eq. 5)
  //   p_i = kappa * (tau / FFT duration) * (R_i / mu).
  // The rate share is floored: Eq. 5 taken literally deadlocks when all
  // flows are starved (e.g. elastic cross traffic crushed the delay mode
  // after a pulser was lost) — each flow's election probability collapses
  // with its rate and no pulser can ever re-emerge to detect the problem.
  if (last_mu_ <= 0) return;
  const double tau = 1.0 / kDetectorSampleRateHz;
  const double share = std::clamp(report.recv_rate_bps / last_mu_,
                                  0.25, 1.0);
  const double p = kKappa * tau / cfg_.fft_duration_sec * share;
  if (ctx.rng().bernoulli(p)) {
    role_ = Role::kPulser;
    detector_.reset();  // stale z history predates our pulses
  }
}

void Nimbus::pulser_conflict_check(sim::CcContext& ctx) {
  if (!detector_.ready() || !recv_watch_.ready()) return;
  // Section 6: if the cross traffic varies at f_p more than the variation
  // we ourselves create (visible in our own receive rate), another pulser
  // must exist; step down with a fixed probability.
  const double z_peak = detector_.magnitude_near(current_fp());
  const double own_peak = recv_watch_.magnitude_near(current_fp());
  const double significance = last_mu_ > 0 ? 0.005 * last_mu_ : 1e9;
  const bool conflict =
      z_peak > kConflictMargin * own_peak && z_peak >= significance;
  conflict_streak_ = conflict ? conflict_streak_ + 1 : 0;
  if (conflict_streak_ >= kConflictPersistenceReports &&
      ctx.rng().bernoulli(kConflictSwitchProb)) {
    role_ = Role::kWatcher;
    conflict_streak_ = 0;
    // Re-examine once our own pulses have left the receive-rate window:
    // if no other pulser is audible by then, we stepped down for nothing.
    // Jitter desynchronizes the review among pulsers demoted by the same
    // conflict, so they do not all resume at once and re-collide.
    resume_check_at_ = ctx.now() + from_sec(cfg_.fft_duration_sec) +
                       from_sec(1.0 + 3.0 * ctx.rng().uniform());
  }
}

void Nimbus::apply_control(sim::CcContext& ctx,
                           const sim::CcReport& report) {
  base_rate_bps_ = mode_ == Mode::kCompetitive ? competitive_mode_rate()
                                               : delay_mode_rate();

  // A pulser must keep its base rate at or above the asymmetric pulse's
  // trough amplitude (mu/12 at the default pulse size): below that it
  // cannot emit the pulse, and — worse — it sends so few packets that z is
  // only sampled during its own bursts, aliasing the cross traffic's
  // response away (section 3.4's S(t) >= mu/12 requirement).
  if (role_ == Role::kPulser && last_mu_ > 0 &&
      mode_ == Mode::kDelay) {
    // mu/8 rather than the bare pulse-feasibility bound (amplitude/3 =
    // mu/12): the extra margin keeps enough packets per measurement window
    // for a usable z estimate while elastic cross traffic overwhelms the
    // delay controller — exactly when detection has to fire.
    const double floor = std::max(pulse_.min_base_rate(last_mu_),
                                  last_mu_ / 8.0);
    if (base_rate_bps_ < floor) {
      base_rate_bps_ = floor;
      if (cfg_.delay_algo == DelayAlgo::kBasicDelay) {
        basic_delay_.set_rate_bps(floor);
      }
    }
  }
  record_rate(report.now, base_rate_bps_);

  // Keep the S/R measurement interval well below the pulse period: a
  // window comparable to T acts as a moving average that smooths the
  // cross-traffic's response out of the z estimate (section 3.4's
  // requirement that T exceed the measurement interval).  One third of a
  // period keeps the attenuation of the f_p component above 80% while
  // still spanning enough packets (>= 10) for a stable rate estimate.
  const double srtt_s = srtt_smooth_s_;
  const double window_s = std::min(
      srtt_s, 1.0 / (kMeasurementWindowDivisor * pulse_.frequency_hz()));
  ctx.set_rate_window_bytes(
      std::max(base_rate_bps_ / 8.0 * window_s, 10.0 * sim::kMss));

  double target = base_rate_bps_;
  if (role_ == Role::kPulser && last_mu_ > 0) {
    target += pulse_.offset_bps(report.now, last_mu_);
    if (trace_.active()) {
      // Half-period index of the pulse waveform: a transition marks the
      // boundary between the positive burst and the compensating trough.
      const int phase = static_cast<int>(to_sec(report.now) *
                                         pulse_.frequency_hz() * 2.0);
      if (phase != last_pulse_phase_) {
        last_pulse_phase_ = phase;
        obs::TraceEvent e;
        e.t = report.now;
        e.kind = static_cast<std::uint16_t>(obs::TraceKind::kPulsePhase);
        e.flow = trace_flow_;
        e.a = static_cast<std::uint32_t>(phase);
        e.v0 = pulse_.frequency_hz();
        trace_.emit(e);
      }
    }
  } else if (role_ == Role::kWatcher && cfg_.multiflow) {
    // Low-pass the send rate below the pulsing frequencies so the pulser
    // never mistakes us for elastic-reacting cross traffic.
    watcher_filter_.add(report.now, base_rate_bps_);
    target = watcher_filter_.value();
  }
  target = std::max(target, 0.1e6);
  if (last_mu_ > 0) target = std::min(target, 2.0 * last_mu_);

  if (mode_ == Mode::kCompetitive && role_ == Role::kPulser) {
    // Window-primary with exact pacing.  Two failure modes frame this:
    // (1) a pure rate source (window never binding) parks the queue at
    // capacity and starves window-based cross traffic — every overflow
    // drop lands on the competitor's growth bursts; (2) a pure ACK-clocked
    // sender rings at the ACK-feedback frequency 1/RTT, which lands inside
    // the (f_p, 2 f_p) comparison band and destroys eta.  Pacing at
    // exactly (base + pulse) suppresses the ring; the window bound at
    // (base + pulse)*sRTT keeps inflight honest so overload stalls our
    // sends like a real TCP and we take our share of drops.
    ctx.set_pacing_rate_bps(target);
    ctx.set_cwnd_bytes(target / 8.0 * srtt_s + 2.0 * sim::kMss);
  } else if (mode_ == Mode::kCompetitive) {
    // Competitive-mode *watcher*: rate-primary at the low-passed rate with
    // a loose window cap.  A binding window would make the watcher
    // ACK-clocked — genuinely elastic — and the pulser could never
    // conclude the link is free of elastic traffic (mode deadlock).
    ctx.set_pacing_rate_bps(target);
    ctx.set_cwnd_bytes(1.5 * target / 8.0 * srtt_s + 4.0 * sim::kMss);
  } else {
    // Rate-primary control: BasicDelay/Vegas/Copa rates act directly; the
    // window is a generous inflight cap (these controllers yield through
    // their own delay terms, so queue-pegging cannot happen).  The pulser
    // gets burst allowance: the negative half-sine drains inflight,
    // making room the positive quarter then uses.
    ctx.set_pacing_rate_bps(target);
    double cwnd = 2.0 * base_rate_bps_ / 8.0 * srtt_s + 4.0 * sim::kMss;
    if (role_ == Role::kPulser && last_mu_ > 0) {
      cwnd += 1.5 * pulse_.burst_bytes(last_mu_);
    }
    ctx.set_cwnd_bytes(cwnd);
  }
}

void Nimbus::on_report(sim::CcContext& ctx, const sim::CcReport& report) {
  if (report.srtt > 0) {
    srtt_filter_.add(report.now, to_sec(report.srtt));
    srtt_smooth_s_ = std::max(srtt_filter_.value(), 1e-3);
  }

  // Bottleneck rate.
  if (cfg_.known_mu_bps > 0) {
    last_mu_ = cfg_.known_mu_bps;
  } else if (report.rates_valid) {
    mu_est_.on_receive_rate(report.now, report.recv_rate_bps);
    last_mu_ = mu_est_.mu_bps();
  }

  // Cross-traffic estimate; repeat the last value on invalid reports to
  // keep the detector's sample grid uniform.
  if (report.rates_valid && last_mu_ > 0) {
    last_z_ = estimate_cross_rate(last_mu_, report.send_rate_bps,
                                  report.recv_rate_bps);
  }
  detector_.add_sample(last_z_);
  z_mean_filter_.add(report.now, last_z_);
  // Only the multi-flow role logic (watcher_logic, pulser_conflict_check)
  // reads the receive-rate spectrum.
  if (cfg_.multiflow) {
    recv_watch_.add_sample(report.rates_valid ? report.recv_rate_bps : 0.0);
  }

  // Delay-mode rate rule runs on the report cadence.  A watcher feeds the
  // rule low-passed measurements: reacting to the pulser's f_p oscillation
  // in z or RTT would make the watcher itself look like elastic traffic.
  if (mode_ == Mode::kDelay && cfg_.delay_algo == DelayAlgo::kBasicDelay &&
      report.rates_valid && last_mu_ > 0 && report.min_rtt > 0) {
    watcher_z_filter_.add(report.now, last_z_);
    watcher_rtt_filter_.add(report.now, to_sec(report.latest_rtt));
    if (role_ == Role::kWatcher && cfg_.multiflow) {
      basic_delay_.update(report.send_rate_bps, watcher_z_filter_.value(),
                          last_mu_,
                          from_sec(watcher_rtt_filter_.value()),
                          report.min_rtt);
    } else {
      basic_delay_.update(report.send_rate_bps, last_z_, last_mu_,
                          report.latest_rtt, report.min_rtt);
    }
  }

  // Role and mode decisions.
  if (cfg_.multiflow) {
    if (role_ == Role::kWatcher) {
      watcher_logic(ctx, report);
    } else {
      // Conflict resolution runs before the mode decision: a concurrent
      // pulser's pulses in z would otherwise read as an elastic response
      // and flip the mode before the conflict is noticed.
      pulser_conflict_check(ctx);
      if (role_ == Role::kPulser) decide_mode_from_detector(ctx);
    }
  } else {
    decide_mode_from_detector(ctx);
  }

  apply_control(ctx, report);

  if (on_status_) {
    Status s;
    s.now = report.now;
    s.mode = mode_;
    s.role = role_;
    s.eta = last_eta_;
    s.eta_raw = last_raw_eta_;
    s.detector_ready = detector_.ready();
    s.z_bps = last_z_;
    s.mu_bps = last_mu_;
    s.base_rate_bps = base_rate_bps_;
    on_status_(s);
  }
}

}  // namespace nimbus::core
