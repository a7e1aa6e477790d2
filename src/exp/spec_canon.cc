#include "exp/spec_canon.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace nimbus::exp {

// ---------------------------------------------------------------------------
// Field-coverage guard: adding a field to any canonicalized struct changes
// its size and fails these asserts until the serializer below — and the
// matching kCanonSizeof* constant — are updated together.  Scoped to the
// one ABI this repo builds and CI runs on; other platforms skip the guard
// (their builds still canonicalize identically, since the serializer names
// fields, not offsets).
// ---------------------------------------------------------------------------
#if defined(__x86_64__) && defined(__linux__)
#define NIMBUS_CANON_GUARD(type, constant)                                   \
  static_assert(sizeof(type) == constant,                                    \
                #type                                                        \
                " changed size: a field was added/removed without updating " \
                "canonical_spec() and " #constant " in exp/spec_canon.h")
NIMBUS_CANON_GUARD(sim::Outage, kCanonSizeofOutage);
NIMBUS_CANON_GUARD(sim::ImpairmentConfig, kCanonSizeofImpairmentConfig);
NIMBUS_CANON_GUARD(ImpairmentSpec, kCanonSizeofImpairmentSpec);
NIMBUS_CANON_GUARD(core::Nimbus::Config, kCanonSizeofNimbusConfig);
NIMBUS_CANON_GUARD(traffic::FlowSizeDist::Band, kCanonSizeofFlowSizeBand);
NIMBUS_CANON_GUARD(traffic::FlowSizeDist, kCanonSizeofFlowSizeDist);
NIMBUS_CANON_GUARD(traffic::FlowWorkload::Config, kCanonSizeofWorkloadConfig);
NIMBUS_CANON_GUARD(LinkSpec, kCanonSizeofLinkSpec);
NIMBUS_CANON_GUARD(CrossSpec, kCanonSizeofCrossSpec);
NIMBUS_CANON_GUARD(ProtagonistSpec, kCanonSizeofProtagonistSpec);
NIMBUS_CANON_GUARD(ScenarioSpec, kCanonSizeofScenarioSpec);
#undef NIMBUS_CANON_GUARD
#endif

// ---------------------------------------------------------------------------
// Hash128: FNV-1a with the 128-bit FNV prime, via __uint128_t.
// ---------------------------------------------------------------------------

std::string Hash128::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

Hash128 fnv128(const void* data, std::size_t len) {
  // FNV-1a 128-bit offset basis and prime.
  unsigned __int128 h = (static_cast<unsigned __int128>(0x6c62272e07bb0142ULL)
                         << 64) |
                        0x62b821756295c58dULL;
  const unsigned __int128 prime =
      (static_cast<unsigned __int128>(0x0000000001000000ULL) << 64) |
      0x000000000000013bULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= prime;
  }
  return {static_cast<std::uint64_t>(h >> 64), static_cast<std::uint64_t>(h)};
}

// ---------------------------------------------------------------------------
// Serializer.
// ---------------------------------------------------------------------------

namespace {

/// Appends `key=value` lines in a fixed, total order.  Value encodings are
/// injective per type: doubles as exact IEEE-754 bit patterns (d:<16hex>),
/// integers as decimal, strings length-prefixed (s:<len>:<bytes>), so no
/// two distinct specs share a canonical text.
class Canon {
 public:
  void d(const std::string& key, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "d:%016llx",
                  static_cast<unsigned long long>(bits));
    line(key, buf);
  }
  void i64(const std::string& key, long long v) {
    line(key, std::to_string(v));
  }
  void u64(const std::string& key, unsigned long long v) {
    line(key, std::to_string(v));
  }
  void b(const std::string& key, bool v) { line(key, v ? "1" : "0"); }
  void e(const std::string& key, int v) { line(key, std::to_string(v)); }
  void s(const std::string& key, const std::string& v) {
    line(key, "s:" + std::to_string(v.size()) + ":" + v);
  }

  void line(const std::string& key, const std::string& value) {
    out_ += key;
    out_ += '=';
    out_ += value;
    out_ += '\n';
  }

  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

void emit_nimbus(Canon& c, const std::string& p,
                 const core::Nimbus::Config& n) {
  c.d(p + ".known_mu_bps", n.known_mu_bps);
  c.d(p + ".pulse_amplitude_frac", n.pulse_amplitude_frac);
  c.d(p + ".fp_competitive_hz", n.fp_competitive_hz);
  c.d(p + ".fp_delay_hz", n.fp_delay_hz);
  c.d(p + ".fft_duration_sec", n.fft_duration_sec);
  c.d(p + ".eta_threshold", n.eta_threshold);
  c.e(p + ".delay_algo", static_cast<int>(n.delay_algo));
  c.b(p + ".multiflow", n.multiflow);
  c.b(p + ".enable_rate_reset", n.enable_rate_reset);
}

/// Content hash of a kTrace link's trace file: the canonical spec must
/// change when the trace's *bytes* change, not just its path.
Hash128 trace_content_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  NIMBUS_CHECK_MSG(in.good(), "canonical_spec: trace file unreadable");
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  return fnv128(bytes.data(), bytes.size());
}

void emit_link(Canon& c, const std::string& p, const LinkSpec& l) {
  c.e(p + ".kind", static_cast<int>(l.kind));
  c.d(p + ".amplitude_frac", l.amplitude_frac);
  c.i64(p + ".period", l.period);
  c.i64(p + ".quantum", l.quantum);
  c.i64(p + ".step_interval", l.step_interval);
  c.d(p + ".step_frac", l.step_frac);
  c.u64(p + ".seed", l.seed);
  c.s(p + ".trace_path", l.trace_path);
  c.line(p + ".trace_content", l.kind == LinkSpec::Kind::kTrace
                                   ? trace_content_hash(l.trace_path).hex()
                                   : "-");
  c.i64(p + ".trace_bucket", l.trace_bucket);
}

void emit_impairment_cfg(Canon& c, const std::string& p,
                         const sim::ImpairmentConfig& ic) {
  c.b(p + ".ge_enabled", ic.ge_enabled);
  c.d(p + ".ge_p", ic.ge_p);
  c.d(p + ".ge_q", ic.ge_q);
  c.d(p + ".ge_loss_good", ic.ge_loss_good);
  c.d(p + ".ge_loss_bad", ic.ge_loss_bad);
  c.i64(p + ".jitter", ic.jitter);
  c.b(p + ".reorder", ic.reorder);
  c.d(p + ".duplicate_prob", ic.duplicate_prob);
  c.u64(p + ".blackouts.n", ic.blackouts.size());
  for (std::size_t i = 0; i < ic.blackouts.size(); ++i) {
    const std::string q = p + ".blackouts[" + std::to_string(i) + "]";
    c.i64(q + ".start", ic.blackouts[i].start);
    c.i64(q + ".duration", ic.blackouts[i].duration);
  }
  c.i64(p + ".flap_period", ic.flap_period);
  c.i64(p + ".flap_duration", ic.flap_duration);
  c.i64(p + ".flap_offset", ic.flap_offset);
  c.u64(p + ".seed", ic.seed);
}

void emit_impairment(Canon& c, const std::string& p,
                     const ImpairmentSpec& im) {
  emit_impairment_cfg(c, p + ".forward", im.forward);
  emit_impairment_cfg(c, p + ".reverse", im.reverse);
}

void emit_protagonist(Canon& c, const std::string& p,
                      const ProtagonistSpec& pr) {
  c.b(p + ".enabled", pr.enabled);
  c.s(p + ".scheme", pr.scheme);
  c.b(p + ".use_nimbus_config", pr.use_nimbus_config);
  emit_nimbus(c, p + ".nimbus", pr.nimbus);
  c.b(p + ".known_mu", pr.known_mu);
  c.b(p + ".record_rtt", pr.record_rtt);
  c.u64(p + ".id", pr.id);
  c.i64(p + ".rtt", pr.rtt);
  c.i64(p + ".start", pr.start);
  c.u64(p + ".seed", pr.seed);
}

void emit_cross(Canon& c, const std::string& p, const CrossSpec& x) {
  c.e(p + ".kind", static_cast<int>(x.kind));
  c.u64(p + ".id", x.id);
  c.i64(p + ".count", x.count);
  c.s(p + ".scheme", x.scheme);
  c.d(p + ".rate_bps", x.rate_bps);
  c.i64(p + ".window_pkts", x.window_pkts);
  emit_nimbus(c, p + ".nimbus", x.nimbus);
  c.i64(p + ".start", x.start);
  c.i64(p + ".stop", x.stop);
  c.i64(p + ".rtt", x.rtt);
  c.u64(p + ".seed", x.seed);
}

void emit_workload(Canon& c, const std::string& p,
                   const traffic::FlowWorkload::Config& w) {
  c.d(p + ".offered_load_fraction", w.offered_load_fraction);
  const traffic::FlowSizeDist& dist = w.dist;
  c.b(p + ".dist.pareto", dist.is_pareto());
  c.d(p + ".dist.pareto_alpha", dist.pareto_alpha());
  c.d(p + ".dist.pareto_lo_bytes", dist.pareto_lo_bytes());
  c.d(p + ".dist.pareto_hi_bytes", dist.pareto_hi_bytes());
  c.u64(p + ".dist.bands.n", dist.bands().size());
  for (std::size_t i = 0; i < dist.bands().size(); ++i) {
    const std::string q = p + ".dist.bands[" + std::to_string(i) + "]";
    c.d(q + ".weight", dist.bands()[i].weight);
    c.d(q + ".lo_bytes", dist.bands()[i].lo_bytes);
    c.d(q + ".hi_bytes", dist.bands()[i].hi_bytes);
  }
  c.i64(p + ".rtt_prop", w.rtt_prop);
  c.i64(p + ".start_time", w.start_time);
  c.i64(p + ".stop_time", w.stop_time);
  c.u64(p + ".seed", w.seed);
}

}  // namespace

std::string canonical_spec(const ScenarioSpec& spec) {
  Canon c;
  // v2: added the per-direction impairment block (PR 8).
  // v3: added protagonist.record_rtt.
  // v4: dropped the fields that became constants (Nimbus tuning, the
  //     BasicDelay gains, buffer_bytes, copa_poll_interval, the trace
  //     opportunity/floor/scale knobs, the workload mss/threshold/factory).
  // v5: dropped the link policer and the steps link kind (the LinkSpec
  //     kind values after kConstant shift down by one).
  c.line("format", "scenario-canon/v5");
  c.s("name", spec.name);
  c.d("mu_bps", spec.mu_bps);
  emit_link(c, "link", spec.link);
  c.i64("rtt", spec.rtt);
  c.d("buffer_bdp", spec.buffer_bdp);
  c.e("queue", static_cast<int>(spec.queue));
  c.i64("pie_target_delay", spec.pie_target_delay);
  c.d("random_loss", spec.random_loss);
  c.u64("random_loss_seed", spec.random_loss_seed);
  emit_impairment(c, "impairment", spec.impairment);
  emit_protagonist(c, "protagonist", spec.protagonist);
  c.u64("cross.n", spec.cross.size());
  for (std::size_t i = 0; i < spec.cross.size(); ++i) {
    emit_cross(c, "cross[" + std::to_string(i) + "]", spec.cross[i]);
  }
  c.b("workload_enabled", spec.workload_enabled);
  emit_workload(c, "workload", spec.workload);
  c.i64("duration", spec.duration);
  c.u64("seed", spec.seed);
  c.b("log_copa_mode", spec.log_copa_mode);
  return c.take();
}

Hash128 spec_hash(const ScenarioSpec& spec) {
  return fnv128(canonical_spec(spec));
}

bool spec_cacheable(const ScenarioSpec& spec) {
  if (spec.link.kind == LinkSpec::Kind::kTrace) {
    std::ifstream in(spec.link.trace_path, std::ios::binary);
    if (!in.good()) return false;
  }
  return true;
}

}  // namespace nimbus::exp
