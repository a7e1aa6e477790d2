#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace nimbus::util {

namespace {

// splitmix64, used to expand the seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  NIMBUS_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::exponential(double mean) {
  NIMBUS_CHECK(mean > 0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::bounded_pareto(double alpha, double lo, double hi) {
  NIMBUS_CHECK(alpha > 0 && lo > 0 && hi > lo);
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace nimbus::util
