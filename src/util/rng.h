// Deterministic, fast pseudo-random number generation for simulation.
//
// Experiments in the paper are averaged over 10 generated problem instances;
// every instance here is reproducible from a 64-bit seed. The generator is
// xoshiro256** seeded via splitmix64 (the reference seeding procedure), which
// is far faster than std::mt19937_64 and has no measurable bias for our use.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace mrvd {

/// splitmix64 step; used to seed xoshiro and to hash seeds for sub-streams.
uint64_t SplitMix64(uint64_t& state);

/// xoshiro256** generator with helpers for the distributions the simulator
/// needs (uniform, exponential inter-arrival, Poisson counts, normal noise).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns an independent generator for a named sub-stream; two Forks with
  /// different tags never produce correlated sequences.
  Rng Fork(uint64_t tag) const;

  uint64_t NextUint64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  /// Exponential with rate `lambda` (mean 1/lambda). Requires lambda > 0.
  double Exponential(double lambda);

  /// Poisson-distributed count with the given mean. Uses Knuth's method for
  /// small means and a normal approximation with continuity correction for
  /// mean > 64 (counts there are in the hundreds; the approximation error is
  /// far below sampling noise).
  int64_t Poisson(double mean);

  /// Standard normal via Box–Muller (cached spare deviate).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace mrvd
