#include "queueing/birth_death.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mrvd {

namespace {

/// e^{βn}, the growth of π(n) (Eq. 4, as suggested in [25]). Guard the
/// exponent so pathological βn cannot overflow to inf (the chain has
/// negligible mass there anyway). Every reneging path evaluates this one
/// expression, so table and direct values agree bit for bit.
double RenegingGrowth(double beta, int64_t n) {
  return std::exp(std::min(beta * static_cast<double>(n), 700.0));
}

/// Growth terms computed per state, for solves without a run's table.
struct DirectGrowth {
  double beta;
  double operator()(int64_t n) const { return RenegingGrowth(beta, n); }
};

/// Null when `params` describe a solvable chain, else the reason.
const char* InvalidParamsReason(const QueueParams& params) {
  if (!(params.lambda > 0.0) || !std::isfinite(params.lambda)) {
    return "lambda must be positive and finite";
  }
  if (!(params.mu > 0.0) || !std::isfinite(params.mu)) {
    return "mu must be positive and finite";
  }
  if (params.max_drivers < 0) return "max_drivers (K) must be >= 0";
  if (!(params.beta >= 0.0) || !std::isfinite(params.beta)) {
    return "beta must be finite and >= 0";
  }
  return nullptr;
}

struct ChainSolution {
  double p0 = 0.0;
  double expected_idle = 0.0;
  double pos_sum = 0.0;  ///< Σ_n>=1 p_n / p0
  /// θ>=1 regime: normalizer B with p_{-j} = θ^{j-K}/B (overflow-safe form).
  double scaled_norm_b = 0.0;
};

/// Eqs. 6-16 for validated parameters. `growth(n)` is e^{min(βn, 700)};
/// `on_term(p_n / p0)` sees each positive-state product as it is summed.
template <typename Growth, typename OnTerm>
ChainSolution SolveChain(double lambda, double mu, int64_t K,
                         const Growth& growth, OnTerm&& on_term) {
  ChainSolution s;

  // Positive tail: products Π_{i=1}^{n} λ/(μ+π(i))  (Eq. 6). π grows
  // exponentially (β > 0) or is constant 1/μ (β = 0); in the latter case the
  // ratio λ/(μ + 1/μ) < 1 is not guaranteed, so cap the tail at a hard
  // iteration limit with a diminishing-term stop.
  {
    double term = 1.0;
    for (int64_t n = 1; n <= 200000; ++n) {
      term *= lambda / (mu + growth(n) / mu);
      if (!(term > 0.0) || !std::isfinite(term)) break;
      on_term(term);
      s.pos_sum += term;
      if (term < s.pos_sum * 1e-14 && n > 4) break;
    }
  }

  const double theta = mu / lambda;

  if (theta < 1.0) {
    // λ > μ (§4.2.1): unbounded negative tail, geometric with ratio θ < 1.
    const double neg_sum = theta / (1.0 - theta);  // Σ_{i>=1} θ^i (Eq. 7)
    s.p0 = 1.0 / (1.0 + neg_sum + s.pos_sum);
    // Eq. 10: ET = λ p0 / (λ - μ)^2.
    s.expected_idle = lambda * s.p0 / ((lambda - mu) * (lambda - mu));
    return s;
  }

  // λ <= μ (§4.2.2 / §4.2.3): negative states bounded by K. Work with sums
  // scaled by θ^{-K} so θ^K never overflows:
  //   B  = θ^{-K} (1 + pos_sum) + Σ_{j=1}^{K} θ^{j-K}
  //   A  = Σ_{j=0}^{K} (j+1) θ^{j-K}
  //   p0 = θ^{-K} / B,   ET = A / (λ B).
  // For θ = 1 this reduces exactly to Eqs. 15/16; for θ > 1 it equals
  // Eqs. 12/13 evaluated stably.
  const double log_theta = std::log(theta);
  auto scaled_pow = [&](int64_t j) {
    // θ^{j-K}; exponent <= 0, so this is always in (0, 1].
    return std::exp(static_cast<double>(j - K) * log_theta);
  };
  double b_sum = scaled_pow(0) * (1.0 + s.pos_sum);
  double a_sum = scaled_pow(0);  // (0+1) θ^{0-K}
  for (int64_t j = 1; j <= K; ++j) {
    double pw = scaled_pow(j);
    b_sum += pw;
    a_sum += static_cast<double>(j + 1) * pw;
  }
  s.scaled_norm_b = b_sum;
  s.p0 = scaled_pow(0) / b_sum;
  s.expected_idle = a_sum / (lambda * b_sum);
  return s;
}

/// Both EstimateIdleTimeSeconds overloads; `beta` must be what `growth`
/// was built from.
template <typename Growth>
double CappedIdleTime(double lambda, double mu, int64_t max_drivers,
                      double beta, const Growth& growth,
                      double max_idle_seconds, double rate_floor) {
  lambda = std::max(lambda, rate_floor);
  mu = std::max(mu, rate_floor);
  max_drivers = std::max<int64_t>(max_drivers, 0);
  if (InvalidParamsReason({lambda, mu, beta, max_drivers}) != nullptr) {
    return max_idle_seconds;
  }
  const ChainSolution s =
      SolveChain(lambda, mu, max_drivers, growth, [](double) {});
  return std::min(s.expected_idle, max_idle_seconds);
}

}  // namespace

double RenegingFunction::operator()(int64_t n) const {
  assert(n >= 1);
  return RenegingGrowth(beta_, n) / mu_;
}

RenegingGrowthTable::RenegingGrowthTable(double beta)
    : beta_(std::max(beta, 0.0)) {
  for (int64_t n = 1; n <= kSize; ++n) {
    growth_[static_cast<size_t>(n - 1)] = RenegingGrowth(beta_, n);
  }
}

double RenegingGrowthTable::operator()(int64_t n) const {
  assert(n >= 1);
  return n <= kSize ? growth_[static_cast<size_t>(n - 1)]
                    : RenegingGrowth(beta_, n);
}

StatusOr<BirthDeathChain> BirthDeathChain::Solve(const QueueParams& params) {
  if (const char* reason = InvalidParamsReason(params)) {
    return Status::InvalidArgument(reason);
  }
  BirthDeathChain chain;
  chain.params_ = params;
  std::vector<double>& products = chain.pos_products_;
  const ChainSolution s =
      SolveChain(params.lambda, params.mu, params.max_drivers,
                 DirectGrowth{params.beta},
                 [&products](double term) { products.push_back(term); });
  chain.p0_ = s.p0;
  chain.expected_idle_ = s.expected_idle;
  chain.pos_sum_ = s.pos_sum;
  chain.scaled_norm_b_ = s.scaled_norm_b;
  return chain;
}

double BirthDeathChain::StateProbability(int64_t n) const {
  const double theta = params_.mu / params_.lambda;
  if (n == 0) return p0_;
  if (n > 0) {
    auto idx = static_cast<size_t>(n - 1);
    if (idx >= pos_products_.size()) return 0.0;
    return p0_ * pos_products_[idx];
  }
  int64_t j = -n;
  if (theta < 1.0) {
    return p0_ * std::pow(theta, static_cast<double>(j));
  }
  if (j > params_.max_drivers) return 0.0;
  // Overflow-safe: p_{-j} = p0 θ^j = θ^{j-K} / B (p0 itself may underflow
  // while states near -K still carry almost all the mass).
  const double log_theta = std::log(theta);
  double scaled = std::exp(static_cast<double>(j - params_.max_drivers) *
                           log_theta);
  return scaled / scaled_norm_b_;
}

double BirthDeathChain::ProbabilityRidersWaiting() const {
  return p0_ * pos_sum_;
}

double BirthDeathChain::ProbabilityDriversWaiting() const {
  return std::max(0.0, 1.0 - p0_ * (1.0 + pos_sum_));
}

double EstimateIdleTimeSeconds(double lambda, double mu, int64_t max_drivers,
                               double beta, double max_idle_seconds,
                               double rate_floor) {
  beta = std::max(beta, 0.0);
  return CappedIdleTime(lambda, mu, max_drivers, beta, DirectGrowth{beta},
                        max_idle_seconds, rate_floor);
}

double EstimateIdleTimeSeconds(double lambda, double mu, int64_t max_drivers,
                               const RenegingGrowthTable& growth,
                               double max_idle_seconds, double rate_floor) {
  return CappedIdleTime(lambda, mu, max_drivers, growth.beta(), growth,
                        max_idle_seconds, rate_floor);
}

}  // namespace mrvd
