// Double-sided queueing model of a single region (§4).
//
// State n > 0: n riders waiting for drivers. State n < 0: |n| drivers
// congested waiting for riders. Birth (rider-arrival) rate is λ for every
// state; death (service) rate is μ for n <= 0 and μ + π(n) for n > 0, where
// π(n) = e^{βn}/μ models impatient-rider reneging (Eq. 4, following
// Shortle et al.). Negative states are bounded by K, the number of drivers
// that can congest during the scheduling window (§4.2.2).
//
// The closed forms implemented here are Eqs. 6-16 of the paper; the
// discrete-event simulator in queue_sim.h validates them empirically.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace mrvd {

/// Reneging-rate function π(n) = e^{βn} / μ (suggested practice in [25]).
/// β is calibrated from historical reneging records of the region; β = 0
/// gives the constant rate 1/μ, larger β makes long queues shed riders
/// aggressively.
class RenegingFunction {
 public:
  RenegingFunction(double beta, double mu) : beta_(beta), mu_(mu) {}

  /// π(n) for state n >= 1.
  double operator()(int64_t n) const;

  double beta() const { return beta_; }

 private:
  double beta_;
  double mu_;
};

/// The growth term e^{min(βn, 700)} of π(n) = e^{βn}/μ for states
/// n = 1..kSize, built once from β. β is fixed for a whole simulation run
/// (SimConfig::reneging_beta), so the run builds one table and every ET
/// solve of the run reads its positive tail from it instead of calling
/// std::exp per state. Entries are computed with the same expression as
/// RenegingFunction, so entry ÷ μ equals RenegingFunction(β, μ)(n) bit for
/// bit; states past kSize fall back to std::exp of that expression.
/// Immutable once built, so any number of threads may read one table.
class RenegingGrowthTable {
 public:
  /// Covers every positive tail measured on the repository benchmark with
  /// room to spare: the longest were 514 states (city_rush), 341
  /// (paper_day) and 65 (paper_grid). 8 KiB.
  static constexpr int64_t kSize = 1024;

  /// β < 0 is read as 0 (no growth), as EstimateIdleTimeSeconds does. A NaN
  /// or infinite β is kept: solves through the table then return their cap.
  explicit RenegingGrowthTable(double beta);

  double beta() const { return beta_; }

  /// e^{min(βn, 700)} for state n >= 1.
  double operator()(int64_t n) const;

 private:
  double beta_;
  std::array<double, kSize> growth_{};
};

/// Parameters of one region's queue during the current scheduling window.
struct QueueParams {
  double lambda = 0.0;  ///< rider arrival rate (1/s)
  double mu = 0.0;      ///< rejoined-driver arrival rate (1/s)
  double beta = 0.0;    ///< reneging exponent (0 disables growth)
  int64_t max_drivers = 1;  ///< K: cap on congested drivers (§4.2.2)
};

/// Solved steady-state model: p0, the state distribution, and the expected
/// idle time ET(λ, μ) of a driver that rejoins this region's queue.
class BirthDeathChain {
 public:
  /// Validates and solves the chain. λ and μ must be positive and finite, K
  /// must be >= 0 and β finite and >= 0; anything else is InvalidArgument.
  /// (Degenerate rates are the caller's job to clamp; see
  /// EstimateIdleTimeSeconds for a forgiving wrapper.)
  static StatusOr<BirthDeathChain> Solve(const QueueParams& params);

  const QueueParams& params() const { return params_; }

  /// P[state = 0].
  double p0() const { return p0_; }

  /// P[state = n]. n may be negative (congested drivers); states below -K
  /// have probability 0. Positive states use the cached product chain.
  double StateProbability(int64_t n) const;

  /// Expected idle time (seconds) of an arriving driver: Eq. 10 for λ > μ,
  /// Eq. 13 for λ < μ, Eq. 16 for λ = μ (the regime is chosen by exact
  /// comparison after a relative-epsilon equality check).
  double ExpectedIdleSeconds() const { return expected_idle_; }

  /// Sum over all positive-state probabilities (share of time the region has
  /// waiting riders); diagnostic for tests.
  double ProbabilityRidersWaiting() const;

  /// Sum over negative states (share of time drivers congest).
  double ProbabilityDriversWaiting() const;

  /// Index of the last positive state with non-negligible probability.
  int64_t positive_tail_length() const {
    return static_cast<int64_t>(pos_products_.size());
  }

 private:
  BirthDeathChain() = default;

  QueueParams params_;
  double p0_ = 0.0;
  double expected_idle_ = 0.0;
  /// pos_products_[i] = Π_{j=1}^{i+1} λ/(μ+π(j)), i.e. p_{i+1}/p0 (Eq. 6).
  std::vector<double> pos_products_;
  double pos_sum_ = 0.0;  ///< Σ_n>=1 p_n / p0
  /// θ>=1 regime: normalizer B with p_{-j} = θ^{j-K}/B (overflow-safe form).
  double scaled_norm_b_ = 0.0;
};

/// Forgiving one-shot ET(λ, μ): clamps λ and μ to a small positive floor
/// (an empty region still has *some* chance of an arrival), K to >= 0 and β
/// to >= 0, and caps the returned idle time at `max_idle_seconds` (a driver
/// will not wait forever; the platform would reposition him, and unbounded
/// ET would drown every travel cost in Eq. 17). Returns the cap when the
/// clamped chain is still rejected (a NaN or infinite rate or β). The result
/// is in the reciprocal unit of the rates, the unit the cap must be given
/// in: seconds for rates per second, minutes for rates per minute (the
/// dispatch path solves per minute; see BatchContext::ComputeIdleSeconds).
/// Solves without allocating and keeps no product chain.
double EstimateIdleTimeSeconds(double lambda, double mu, int64_t max_drivers,
                               double beta,
                               double max_idle_seconds = 3600.0,
                               double rate_floor = 1e-6);

/// The dispatch path's solve: EstimateIdleTimeSeconds with β = growth.beta()
/// and the positive tail's growth terms read from `growth`. Returns the same
/// bits as the β overload.
double EstimateIdleTimeSeconds(double lambda, double mu, int64_t max_drivers,
                               const RenegingGrowthTable& growth,
                               double max_idle_seconds = 3600.0,
                               double rate_floor = 1e-6);

}  // namespace mrvd
