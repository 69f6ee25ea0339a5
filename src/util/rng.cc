#include "util/rng.h"

#include <cassert>

namespace mrvd {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // Avoid the all-zero state (splitmix cannot produce four zeros from any
  // seed in practice, but be defensive).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::Fork(uint64_t tag) const {
  uint64_t mix = s_[0] ^ Rotl(s_[1], 13) ^ Rotl(s_[2], 29) ^ Rotl(s_[3], 47);
  uint64_t sm = mix ^ (tag * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  return Rng(SplitMix64(sm));
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
  // Debiased modulo (Lemire-style rejection is overkill for sim workloads,
  // but reject the biased tail to keep distributions exact).
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t x;
  do {
    x = NextUint64();
  } while (x >= limit);
  return lo + static_cast<int64_t>(x % range);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  // -log(1-U) avoids log(0) since NextDouble() < 1.
  return -std::log1p(-NextDouble()) / lambda;
}

int64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean <= 64.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double threshold = std::exp(-mean);
    int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > threshold);
    return k - 1;
  }
  // Normal approximation with continuity correction.
  double x = Normal(mean, std::sqrt(mean));
  return x < 0.0 ? 0 : static_cast<int64_t>(x + 0.5);
}

double Rng::Normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1, u2;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

}  // namespace mrvd
