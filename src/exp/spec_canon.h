// Canonical serialization + content hash of ScenarioSpec.
//
// PR 4 made every bench a declarative ScenarioSpec grid, and each
// (spec, seed) cell is a pure deterministic function of the spec (parallel
// == serial and fixed-seed bit-identity are test-enforced).  That makes
// the whole suite one addressable computation — *if* a spec can be named
// by content.  This header provides that name:
//
//   * canonical_spec(spec) — a total, stable text serialization.  Every
//     field of ScenarioSpec and every nested struct (CrossSpec, LinkSpec,
//     ProtagonistSpec, Nimbus::Config, FlowWorkload::Config,
//     FlowSizeDist, ImpairmentSpec, ImpairmentConfig, Outage) is
//     emitted in a fixed order with defaults made explicit; doubles are
//     serialized as their exact IEEE-754 bit patterns (no rounding, no
//     locale); trace-file link specs embed a hash of the trace *content*,
//     so editing a trace invalidates specs that reference it.
//   * spec_hash(spec) — a 128-bit FNV-1a hash of the canonical text, the
//     key the disk result cache (exp/result_cache.h) is built on.
//
// Field-coverage guard: spec_canon.cc static_asserts the sizeof of every
// serialized struct against the kCanonSizeof* constants below (on the
// x86-64/linux toolchain this repo builds and CI runs on).  Adding a field
// to any of these structs usually changes its size and breaks the build
// until the canonicalizer — and the constant — are updated.  A small field
// that lands in existing padding does not (ProtagonistSpec::record_rtt
// did), so tests/cache_test.cc also spot-checks that the canonical text
// names the fields, besides exercising the size guard at runtime.
#pragma once

#include <cstdint>
#include <string>

#include "exp/scenario.h"

namespace nimbus::exp {

/// 128-bit content hash (two 64-bit halves, printed big-endian hi||lo).
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Hash128& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const Hash128& o) const { return !(*this == o); }

  /// 32 lowercase hex chars.
  std::string hex() const;
};

/// 128-bit FNV-1a over a byte string.
Hash128 fnv128(const void* data, std::size_t len);
inline Hash128 fnv128(const std::string& s) { return fnv128(s.data(), s.size()); }

/// The canonical serialization: total (every field, defaults explicit),
/// stable (fixed field order, exact float bits), and versioned (the first
/// line carries a format version; bump it when the serialization itself
/// changes meaning).  CHECK-fails on specs that cannot be canonicalized —
/// gate call sites with spec_cacheable().
std::string canonical_spec(const ScenarioSpec& spec);

/// Hash of canonical_spec(spec).
Hash128 spec_hash(const ScenarioSpec& spec);

/// True if the spec's behaviour is fully captured by canonical_spec.  The
/// one exception is a kTrace link whose trace file is unreadable: the
/// content hash cannot be computed (build_network would fail on it
/// anyway), so the spec runs uncached.
bool spec_cacheable(const ScenarioSpec& spec);

// ---------------------------------------------------------------------------
// Field-coverage guard sizes (x86-64 linux, libstdc++).  spec_canon.cc
// static_asserts sizeof(T) == kCanonSizeof<T> for every struct the
// canonicalizer walks; update the serializer *and* the constant together.
// ---------------------------------------------------------------------------
inline constexpr std::size_t kCanonSizeofOutage = 16;
inline constexpr std::size_t kCanonSizeofImpairmentConfig = 120;
inline constexpr std::size_t kCanonSizeofImpairmentSpec = 240;
inline constexpr std::size_t kCanonSizeofNimbusConfig = 56;
inline constexpr std::size_t kCanonSizeofFlowSizeBand = 24;
inline constexpr std::size_t kCanonSizeofFlowSizeDist = 56;
inline constexpr std::size_t kCanonSizeofWorkloadConfig = 96;
inline constexpr std::size_t kCanonSizeofLinkSpec = 96;
inline constexpr std::size_t kCanonSizeofCrossSpec = 152;
inline constexpr std::size_t kCanonSizeofProtagonistSpec = 136;
inline constexpr std::size_t kCanonSizeofScenarioSpec = 712;

}  // namespace nimbus::exp
