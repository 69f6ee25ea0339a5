#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "queueing/birth_death.h"
#include "queueing/rates.h"
#include "util/rng.h"

namespace mrvd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --------------------------------------------------------- validation

TEST(BirthDeathTest, RejectsBadParameters) {
  EXPECT_FALSE(BirthDeathChain::Solve({0.0, 1.0, 0.0, 5}).ok());
  EXPECT_FALSE(BirthDeathChain::Solve({1.0, 0.0, 0.0, 5}).ok());
  EXPECT_FALSE(BirthDeathChain::Solve({1.0, 1.0, -0.1, 5}).ok());
  EXPECT_FALSE(BirthDeathChain::Solve({1.0, 1.0, 0.0, -1}).ok());
  // A NaN β passes `β < 0`; it would make π(n) NaN and silently drop
  // reneging from ET.
  EXPECT_FALSE(BirthDeathChain::Solve({1.0, 1.0, kNaN, 5}).ok());
  EXPECT_FALSE(BirthDeathChain::Solve({1.0, 1.0, kInf, 5}).ok());
  EXPECT_FALSE(BirthDeathChain::Solve({1.0, 1.0, -kInf, 5}).ok());
  EXPECT_TRUE(BirthDeathChain::Solve({1.0, 1.0, 0.0, 0}).ok());
}

TEST(RenegingFunctionTest, MatchesDefinition) {
  RenegingFunction pi(0.1, 2.0);
  EXPECT_NEAR(pi(1), std::exp(0.1) / 2.0, 1e-12);
  EXPECT_NEAR(pi(10), std::exp(1.0) / 2.0, 1e-12);
  // beta = 0: constant 1/mu.
  RenegingFunction flat(0.0, 4.0);
  EXPECT_DOUBLE_EQ(flat(1), 0.25);
  EXPECT_DOUBLE_EQ(flat(100), 0.25);
}

// ------------------------------------------------- distribution shape

double SumStateProbabilities(const BirthDeathChain& chain, int64_t lo,
                             int64_t hi) {
  double s = 0.0;
  for (int64_t n = lo; n <= hi; ++n) s += chain.StateProbability(n);
  return s;
}

TEST(BirthDeathTest, ProbabilitiesSumToOneMoreRiders) {
  auto chain = BirthDeathChain::Solve({2.0, 1.0, 0.05, 50});
  ASSERT_TRUE(chain.ok());
  // λ > μ: negative side extends far; sum a generous range.
  double total = SumStateProbabilities(*chain, -2000,
                                       chain->positive_tail_length());
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(BirthDeathTest, ProbabilitiesSumToOneMoreDrivers) {
  auto chain = BirthDeathChain::Solve({1.0, 1.6, 0.05, 40});
  ASSERT_TRUE(chain.ok());
  double total =
      SumStateProbabilities(*chain, -40, chain->positive_tail_length());
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(BirthDeathTest, ProbabilitiesSumToOneBalanced) {
  auto chain = BirthDeathChain::Solve({1.0, 1.0, 0.05, 30});
  ASSERT_TRUE(chain.ok());
  double total =
      SumStateProbabilities(*chain, -30, chain->positive_tail_length());
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(BirthDeathTest, FlowBalanceHoldsAcrossEveryCut) {
  // Eq. 5: mu_n p_n == lambda p_{n-1}.
  QueueParams params{1.3, 0.9, 0.08, 25};
  auto chain = BirthDeathChain::Solve(params);
  ASSERT_TRUE(chain.ok());
  RenegingFunction pi(params.beta, params.mu);
  for (int64_t n = -20; n <= 15; ++n) {
    if (n == -25) continue;
    double mu_n = n <= 0 ? params.mu : params.mu + pi(n);
    double lhs = mu_n * chain->StateProbability(n);
    double rhs = params.lambda * chain->StateProbability(n - 1);
    EXPECT_NEAR(lhs, rhs, 1e-9 * (1.0 + lhs)) << "cut at n=" << n;
  }
}

TEST(BirthDeathTest, NegativeStatesGeometricWhenLambdaLarger) {
  // Eq. 6 for n < 0: p_n = p0 (mu/lambda)^{-n}.
  auto chain = BirthDeathChain::Solve({2.0, 1.0, 0.1, 10});
  ASSERT_TRUE(chain.ok());
  double p0 = chain->p0();
  for (int64_t j = 1; j <= 8; ++j) {
    EXPECT_NEAR(chain->StateProbability(-j), p0 * std::pow(0.5, j), 1e-12);
  }
}

TEST(BirthDeathTest, StatesBeyondCapHaveZeroProbability) {
  auto chain = BirthDeathChain::Solve({1.0, 2.0, 0.1, 7});
  ASSERT_TRUE(chain.ok());
  EXPECT_GT(chain->StateProbability(-7), 0.0);
  EXPECT_DOUBLE_EQ(chain->StateProbability(-8), 0.0);
  EXPECT_DOUBLE_EQ(chain->StateProbability(-100), 0.0);
}

// ----------------------------------------------- closed forms (Eqs. 9-16)

TEST(BirthDeathTest, P0MatchesEquation9AnalyticBetaZero) {
  // With beta = 0, pi(n) = 1/mu and the positive side is geometric with
  // ratio q = lambda / (mu + 1/mu); Eq. 9 has the closed form
  // p0 = 1 / (lambda/(lambda-mu) + q/(1-q)).
  double lambda = 2.0, mu = 1.5;
  double q = lambda / (mu + 1.0 / mu);
  ASSERT_LT(q, 1.0);
  double expected_p0 = 1.0 / (lambda / (lambda - mu) + q / (1.0 - q));
  auto chain = BirthDeathChain::Solve({lambda, mu, 0.0, 10});
  ASSERT_TRUE(chain.ok());
  EXPECT_NEAR(chain->p0(), expected_p0, 1e-9);
}

TEST(BirthDeathTest, IdleTimeMatchesEquation10) {
  // Eq. 10: ET = lambda p0 / (lambda - mu)^2 for lambda > mu.
  QueueParams params{1.8, 1.1, 0.07, 30};
  auto chain = BirthDeathChain::Solve(params);
  ASSERT_TRUE(chain.ok());
  double expected = params.lambda * chain->p0() /
                    ((params.lambda - params.mu) * (params.lambda - params.mu));
  EXPECT_NEAR(chain->ExpectedIdleSeconds(), expected, 1e-9 * expected);
}

TEST(BirthDeathTest, IdleTimeMatchesEquation13) {
  // Eq. 13 for lambda < mu with moderate K (closed form computed directly).
  double lambda = 1.0, mu = 1.5;
  int64_t K = 12;
  double theta = mu / lambda;
  QueueParams params{lambda, mu, 0.06, K};
  auto chain = BirthDeathChain::Solve(params);
  ASSERT_TRUE(chain.ok());
  double p0 = chain->p0();
  double kk = static_cast<double>(K);
  double expected =
      p0 / lambda *
      ((kk + 1.0) * std::pow(theta, kk + 2.0) -
       (kk + 2.0) * std::pow(theta, kk + 1.0) + 1.0) /
      ((theta - 1.0) * (theta - 1.0));
  EXPECT_NEAR(chain->ExpectedIdleSeconds(), expected, 1e-9 * expected);
}

TEST(BirthDeathTest, IdleTimeMatchesEquation16) {
  // Eq. 16: ET = p0 (K+1)(K+2) / (2 lambda) for lambda == mu.
  double lambda = 0.8;
  int64_t K = 9;
  auto chain = BirthDeathChain::Solve({lambda, lambda, 0.04, K});
  ASSERT_TRUE(chain.ok());
  double expected = chain->p0() * (K + 1.0) * (K + 2.0) / (2.0 * lambda);
  EXPECT_NEAR(chain->ExpectedIdleSeconds(), expected, 1e-9 * expected);
}

TEST(BirthDeathTest, IdleTimeEqualsDirectExpectationSum) {
  // ET must equal  sum_{n<=0} (|n|+1)/lambda * p_n  in every regime.
  for (QueueParams params : {QueueParams{2.0, 1.0, 0.05, 20},
                             QueueParams{1.0, 1.7, 0.05, 20},
                             QueueParams{1.2, 1.2, 0.05, 20}}) {
    auto chain = BirthDeathChain::Solve(params);
    ASSERT_TRUE(chain.ok());
    double direct = 0.0;
    for (int64_t n = 0; n >= -3000; --n) {
      double p = chain->StateProbability(n);
      direct += (static_cast<double>(-n) + 1.0) / params.lambda * p;
      if (p == 0.0 && n < -static_cast<int64_t>(params.max_drivers)) break;
    }
    EXPECT_NEAR(chain->ExpectedIdleSeconds(), direct,
                1e-6 * (1.0 + direct))
        << "lambda=" << params.lambda << " mu=" << params.mu;
  }
}

// ----------------------------------------------------------- monotonicity

TEST(BirthDeathTest, IdleTimeIncreasesWithDriverRate) {
  // More rejoining drivers -> longer expected idle (core of Lemma 5.1).
  double prev = 0.0;
  for (double mu : {0.5, 0.8, 1.1, 1.4, 1.7}) {
    auto chain = BirthDeathChain::Solve({1.0, mu, 0.05, 25});
    ASSERT_TRUE(chain.ok());
    EXPECT_GT(chain->ExpectedIdleSeconds(), prev) << "mu=" << mu;
    prev = chain->ExpectedIdleSeconds();
  }
}

TEST(BirthDeathTest, IdleTimeDecreasesWithRiderRate) {
  double prev = 1e100;
  for (double lambda : {0.5, 0.8, 1.1, 1.4, 1.7}) {
    auto chain = BirthDeathChain::Solve({lambda, 1.0, 0.05, 25});
    ASSERT_TRUE(chain.ok());
    EXPECT_LT(chain->ExpectedIdleSeconds(), prev) << "lambda=" << lambda;
    prev = chain->ExpectedIdleSeconds();
  }
}

TEST(BirthDeathTest, StrongerRenegingRaisesP0) {
  // Larger beta sheds positive states faster, pushing mass toward 0.
  auto weak = BirthDeathChain::Solve({2.0, 1.0, 0.01, 20});
  auto strong = BirthDeathChain::Solve({2.0, 1.0, 0.5, 20});
  ASSERT_TRUE(weak.ok() && strong.ok());
  EXPECT_GT(strong->ExpectedIdleSeconds(), 0.0);
  EXPECT_GT(strong->p0(), weak->p0());
  EXPECT_LT(strong->ProbabilityRidersWaiting(),
            weak->ProbabilityRidersWaiting());
}

// ---------------------------------------------------------- numerics

TEST(BirthDeathTest, LargeCapDoesNotOverflow) {
  auto chain = BirthDeathChain::Solve({1.0, 2.0, 0.05, 10000});
  ASSERT_TRUE(chain.ok());
  double et = chain->ExpectedIdleSeconds();
  EXPECT_TRUE(std::isfinite(et));
  // Deep congestion: idle close to (K+1 .. ish)/lambda but must not blow up.
  EXPECT_GT(et, 100.0);
  EXPECT_LT(et, 20002.0);
  // p0 may underflow but the deep states carry the mass.
  EXPECT_GT(chain->StateProbability(-10000), 0.4);
}

TEST(BirthDeathTest, NearCriticalRegimeIsStable) {
  // theta barely above 1 must not hit the (theta-1)^2 singularity.
  auto chain = BirthDeathChain::Solve({1.0, 1.0 + 1e-9, 0.05, 50});
  ASSERT_TRUE(chain.ok());
  auto balanced = BirthDeathChain::Solve({1.0, 1.0, 0.05, 50});
  ASSERT_TRUE(balanced.ok());
  EXPECT_NEAR(chain->ExpectedIdleSeconds(), balanced->ExpectedIdleSeconds(),
              1e-4 * balanced->ExpectedIdleSeconds());
}

TEST(EstimateIdleTimeTest, ClampsDegenerateRates) {
  // Zero rates hit the floor instead of failing.
  double et = EstimateIdleTimeSeconds(0.0, 0.0, 0, 0.0, 3600.0);
  EXPECT_TRUE(std::isfinite(et));
  EXPECT_LE(et, 3600.0);
  EXPECT_GE(et, 0.0);
}

TEST(EstimateIdleTimeTest, CapsAtMaxIdle) {
  // Tiny rider rate -> astronomic idle, clamped to the cap.
  double et = EstimateIdleTimeSeconds(1e-6, 1.0, 100, 0.02, 1800.0);
  EXPECT_DOUBLE_EQ(et, 1800.0);
}

TEST(EstimateIdleTimeTest, BusyRegionNearZeroIdle) {
  // Lots of riders, few drivers: a rejoining driver is re-tasked instantly.
  double et = EstimateIdleTimeSeconds(5.0, 0.2, 10, 0.02);
  EXPECT_LT(et, 2.0);
}

TEST(EstimateIdleTimeTest, NonFiniteBetaReturnsCap) {
  // The chain rejects a NaN or +inf β, so both overloads return the cap,
  // as for any rejected chain; a finite β gives an ET far below it.
  ASSERT_LT(EstimateIdleTimeSeconds(2.0, 1.0, 10, 0.02, 1800.0), 10.0);
  for (double beta : {kNaN, kInf}) {
    EXPECT_EQ(EstimateIdleTimeSeconds(2.0, 1.0, 10, beta, 1800.0), 1800.0)
        << beta;
    EXPECT_EQ(EstimateIdleTimeSeconds(2.0, 1.0, 10, RenegingGrowthTable(beta),
                                      1800.0),
              1800.0)
        << beta;
  }
  // β < 0, -inf included, is clamped to 0 like any negative β.
  EXPECT_EQ(EstimateIdleTimeSeconds(2.0, 1.0, 10, -kInf, 1800.0),
            EstimateIdleTimeSeconds(2.0, 1.0, 10, 0.0, 1800.0));
  EXPECT_EQ(RenegingGrowthTable(-kInf).beta(), 0.0);
}

// ------------------------------------- oracle: the solver before the table

// BirthDeathChain's solver and EstimateIdleTimeSeconds as they were before
// the reneging-growth table: std::exp on every positive-tail term, every
// product kept in a vector, and β < 0 the only β rejected. The function
// bodies are verbatim; they are the reference the table kernel must match
// bit for bit. Do not "fix" them.
namespace reference {

class RenegingFunction {
 public:
  RenegingFunction(double beta, double mu) : beta_(beta), mu_(mu) {}

  double operator()(int64_t n) const {
    assert(n >= 1);
    // e^{beta*n} / mu, as suggested in [25]. Guard the exponent so
    // pathological beta*n cannot overflow to inf (the chain has negligible
    // mass there anyway).
    double ex = std::min(beta_ * static_cast<double>(n), 700.0);
    return std::exp(ex) / mu_;
  }

 private:
  double beta_;
  double mu_;
};

class BirthDeathChain {
 public:
  static StatusOr<BirthDeathChain> Solve(const QueueParams& params) {
    if (!(params.lambda > 0.0) || !std::isfinite(params.lambda)) {
      return Status::InvalidArgument("lambda must be positive and finite");
    }
    if (!(params.mu > 0.0) || !std::isfinite(params.mu)) {
      return Status::InvalidArgument("mu must be positive and finite");
    }
    if (params.max_drivers < 0) {
      return Status::InvalidArgument("max_drivers (K) must be >= 0");
    }
    if (params.beta < 0.0) {
      return Status::InvalidArgument("beta must be >= 0");
    }
    BirthDeathChain chain;
    chain.params_ = params;
    chain.SolveInternal();
    return chain;
  }

  double p0() const { return p0_; }
  double ExpectedIdleSeconds() const { return expected_idle_; }
  int64_t positive_tail_length() const {
    return static_cast<int64_t>(pos_products_.size());
  }
  double ProbabilityRidersWaiting() const { return p0_ * pos_sum_; }
  double ProbabilityDriversWaiting() const {
    return std::max(0.0, 1.0 - p0_ * (1.0 + pos_sum_));
  }

  double StateProbability(int64_t n) const {
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
    const double log_theta = std::log(theta);
    double scaled = std::exp(static_cast<double>(j - params_.max_drivers) *
                             log_theta);
    return scaled / scaled_norm_b_;
  }

 private:
  BirthDeathChain() = default;

  void SolveInternal() {
    const double lambda = params_.lambda;
    const double mu = params_.mu;
    const int64_t K = params_.max_drivers;
    const RenegingFunction pi(params_.beta, mu);

    pos_products_.clear();
    pos_sum_ = 0.0;
    {
      double term = 1.0;
      for (int64_t n = 1; n <= 200000; ++n) {
        term *= lambda / (mu + pi(n));
        if (!(term > 0.0) || !std::isfinite(term)) break;
        pos_products_.push_back(term);
        pos_sum_ += term;
        if (term < pos_sum_ * 1e-14 && n > 4) break;
      }
    }

    const double theta = mu / lambda;

    if (theta < 1.0) {
      neg_sum_ = theta / (1.0 - theta);
      p0_ = 1.0 / (1.0 + neg_sum_ + pos_sum_);
      expected_idle_ = lambda * p0_ / ((lambda - mu) * (lambda - mu));
      return;
    }

    const double log_theta = std::log(theta);
    auto scaled_pow = [&](int64_t j) {
      return std::exp(static_cast<double>(j - K) * log_theta);
    };
    double b_sum = scaled_pow(0) * (1.0 + pos_sum_);
    double a_sum = scaled_pow(0);
    for (int64_t j = 1; j <= K; ++j) {
      double pw = scaled_pow(j);
      b_sum += pw;
      a_sum += static_cast<double>(j + 1) * pw;
    }
    neg_sum_ = 0.0;
    scaled_norm_b_ = b_sum;
    p0_ = scaled_pow(0) / b_sum;
    expected_idle_ = a_sum / (lambda * b_sum);
  }

  QueueParams params_;
  double p0_ = 0.0;
  double expected_idle_ = 0.0;
  std::vector<double> pos_products_;
  double pos_sum_ = 0.0;
  double neg_sum_ = 0.0;
  double scaled_norm_b_ = 0.0;
};

double EstimateIdleTimeSeconds(double lambda, double mu, int64_t max_drivers,
                               double beta, double max_idle_seconds = 3600.0,
                               double rate_floor = 1e-6) {
  lambda = std::max(lambda, rate_floor);
  mu = std::max(mu, rate_floor);
  max_drivers = std::max<int64_t>(max_drivers, 0);
  auto chain = BirthDeathChain::Solve(
      {lambda, mu, std::max(beta, 0.0), max_drivers});
  if (!chain.ok()) return max_idle_seconds;
  return std::min(chain->ExpectedIdleSeconds(), max_idle_seconds);
}

}  // namespace reference

::testing::AssertionResult SameBits(double got, double want) {
  uint64_t g = 0, w = 0;
  std::memcpy(&g, &got, sizeof g);
  std::memcpy(&w, &want, sizeof w);
  if (g == w) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << got << " != reference " << want;
}

struct OracleCase {
  double lambda, mu;
  int64_t max_drivers;
  double beta;
  double max_idle = 3600.0;
  double rate_floor = 1e-6;
};

/// Every value the new solver returns for `c` against the reference: both
/// EstimateIdleTimeSeconds overloads and, where the reference accepts the
/// parameters, the solved chain.
void ExpectMatchesReference(const OracleCase& c) {
  SCOPED_TRACE(::testing::Message()
               << std::hexfloat << "lambda=" << c.lambda << " mu=" << c.mu
               << " K=" << c.max_drivers << " beta=" << c.beta
               << " cap=" << c.max_idle << " floor=" << c.rate_floor);
  const double want = reference::EstimateIdleTimeSeconds(
      c.lambda, c.mu, c.max_drivers, c.beta, c.max_idle, c.rate_floor);
  const RenegingGrowthTable growth(c.beta);
  EXPECT_TRUE(SameBits(EstimateIdleTimeSeconds(c.lambda, c.mu, c.max_drivers,
                                               growth, c.max_idle,
                                               c.rate_floor),
                       want));
  EXPECT_TRUE(SameBits(EstimateIdleTimeSeconds(c.lambda, c.mu, c.max_drivers,
                                               c.beta, c.max_idle,
                                               c.rate_floor),
                       want));

  const QueueParams params{c.lambda, c.mu, c.beta, c.max_drivers};
  auto ref = reference::BirthDeathChain::Solve(params);
  auto got = BirthDeathChain::Solve(params);
  ASSERT_EQ(got.ok(), ref.ok());
  if (!ref.ok()) return;
  EXPECT_TRUE(
      SameBits(got->ExpectedIdleSeconds(), ref->ExpectedIdleSeconds()));
  EXPECT_TRUE(SameBits(got->p0(), ref->p0()));
  EXPECT_TRUE(SameBits(got->ProbabilityRidersWaiting(),
                       ref->ProbabilityRidersWaiting()));
  EXPECT_TRUE(SameBits(got->ProbabilityDriversWaiting(),
                       ref->ProbabilityDriversWaiting()));
  const int64_t tail = ref->positive_tail_length();
  EXPECT_EQ(got->positive_tail_length(), tail);
  const int64_t K = c.max_drivers;
  for (int64_t n : {-K - 1, -K, -K / 2, int64_t{-1}, int64_t{0}, int64_t{1},
                    tail / 2, tail, tail + 1}) {
    EXPECT_TRUE(SameBits(got->StateProbability(n), ref->StateProbability(n)))
        << "n=" << n;
  }
}

/// Positive-tail length of the reference chain (0 when it rejects).
int64_t ReferenceTail(double lambda, double mu, int64_t K, double beta) {
  auto chain = reference::BirthDeathChain::Solve({lambda, mu, beta, K});
  return chain.ok() ? chain->positive_tail_length() : 0;
}

TEST(GrowthTableOracleTest, EdgeCasesMatchReferenceBits) {
  const double one_up = std::nextafter(1.0, 2.0);
  const double one_down = std::nextafter(1.0, 0.0);
  const std::vector<OracleCase> cases = {
      // λ > μ, λ < μ, λ = μ.
      {2.0, 1.0, 20, 0.02},
      {1.0, 2.0, 20, 0.02},
      {1.5, 1.5, 20, 0.02},
      {37.25, 37.25, 300, 0.02},
      // θ = μ/λ one ulp either side of 1, reached from λ and from μ.
      {one_up, 1.0, 50, 0.02},
      {one_down, 1.0, 50, 0.02},
      {1.0, one_up, 50, 0.02},
      {1.0, one_down, 50, 0.02},
      // K = 0 and K = 10,000 in each regime.
      {1.0, 2.0, 0, 0.05},
      {2.0, 1.0, 0, 0.05},
      {1.0, 1.0, 0, 0.05},
      {1.0, 2.0, 10000, 0.05},
      {1.0, 1.0, 10000, 0.05},
      {2.0, 1.0, 10000, 0.05},
      // β = 0: constant reneging; growing terms overflow to inf past the
      // table's end, decaying ones end by the relative-size test.
      {3.0, 1.0, 20, 0.0},
      {1.0, 1.0, 20, 0.0},
      {0.2, 3.0, 20, 0.0},
      // Small β: tails past the table's end (the std::exp fallback).
      {2.0, 1.0, 40, 1e-4},
      {2.0, 1.0, 40, 1e-5},
      {1.0, 1.3, 40, 2e-5},
      // βn crosses the 700 guard inside the table, and at n = 1.
      {50.0, 1.0, 10, 1.0},
      {1e6, 1.0, 10, 800.0},
      // Large β: tails of a few terms.
      {2.0, 1.0, 20, 5.0},
      {0.5, 1.0, 20, 50.0},
      // Rates below the floor: zero and negative, with floors 1e-6 and 0.
      {0.0, 0.0, 5, 0.02},
      {-1.0, 2.0, 5, 0.02},
      {2.0, -3.0, 5, 0.02},
      {0.0, 1.0, 5, 0.02, 3600.0, 0.0},
      // ET above the cap.
      {1e-6, 1.0, 100, 0.02, 1800.0},
      {0.01, 50.0, 2000, 0.02, 60.0},
      // Per-minute rates with the dispatch path's 60-minute cap.
      {12.5, 9.75, 83, 0.02, 60.0},
      {4.0, 30.0, 400, 0.02, 60.0},
  };
  for (const OracleCase& c : cases) ExpectMatchesReference(c);

  // The fallback and short-tail cases reach what they are named for.
  EXPECT_GT(ReferenceTail(2.0, 1.0, 40, 1e-4), RenegingGrowthTable::kSize);
  EXPECT_GT(ReferenceTail(2.0, 1.0, 40, 1e-5), RenegingGrowthTable::kSize);
  EXPECT_GT(ReferenceTail(3.0, 1.0, 20, 0.0), RenegingGrowthTable::kSize);
  EXPECT_LT(ReferenceTail(2.0, 1.0, 20, 5.0), 8);
  EXPECT_EQ(reference::EstimateIdleTimeSeconds(1e-6, 1.0, 100, 0.02, 1800.0),
            1800.0);
}

TEST(GrowthTableOracleTest, SeededSweepMatchesReferenceBits) {
  Rng rng(20190417);
  for (int i = 0; i < 3000; ++i) {
    OracleCase c{};
    // Rates log-uniform over 1e-3..1e3 per minute; every 8th case balanced.
    c.lambda = std::pow(10.0, rng.Uniform(-3.0, 3.0));
    c.mu = i % 8 == 0 ? c.lambda : std::pow(10.0, rng.Uniform(-3.0, 3.0));
    c.max_drivers = rng.UniformInt(0, 600);
    switch (i % 4) {
      case 0: c.beta = 0.02; break;           // SimConfig's default
      case 1: c.beta = rng.Uniform(0.0, 0.1); break;
      case 2: c.beta = rng.Uniform(0.0, 3.0); break;
      default: c.beta = std::pow(10.0, rng.Uniform(-6.0, -2.0)); break;
    }
    c.max_idle = i % 3 == 0 ? 60.0 : 3600.0;
    ExpectMatchesReference(c);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(GrowthTableOracleTest, EntriesOverMuEqualRenegingFunction) {
  for (double beta : {0.0, 1e-5, 0.02, 0.37, 1.0, 5.0, 800.0}) {
    const RenegingGrowthTable growth(beta);
    EXPECT_EQ(growth.beta(), beta);
    for (double mu : {1e-6, 0.3, 1.0, 7.5, 1e3}) {
      const RenegingFunction pi(beta, mu);
      const reference::RenegingFunction ref_pi(beta, mu);
      for (int64_t n = 1; n <= RenegingGrowthTable::kSize + 64; ++n) {
        ASSERT_TRUE(SameBits(growth(n) / mu, pi(n)))
            << "beta=" << beta << " mu=" << mu << " n=" << n;
        ASSERT_TRUE(SameBits(pi(n), ref_pi(n)))
            << "beta=" << beta << " mu=" << mu << " n=" << n;
      }
    }
  }
  // A negative β builds the β = 0 table, as EstimateIdleTimeSeconds reads
  // it.
  const RenegingGrowthTable negative(-0.5);
  EXPECT_EQ(negative.beta(), 0.0);
  EXPECT_EQ(negative(1), 1.0);
  EXPECT_EQ(negative(RenegingGrowthTable::kSize + 1), 1.0);
}

// ------------------------------------------------------ rate estimation

TEST(RegionRatesTest, RiderSurplusFoldsIntoLambda) {
  // Eq. 18 lower branch: |R_k| > |D_k|.
  RegionSnapshot snap;
  snap.waiting_riders = 30;
  snap.available_drivers = 10;
  snap.predicted_riders = 60.0;
  snap.predicted_drivers = 40.0;
  RegionRates r = EstimateRegionRates(snap, 1200.0);
  EXPECT_NEAR(r.lambda, (60.0 + 30.0 - 10.0) / 1200.0, 1e-12);
  EXPECT_NEAR(r.mu, 40.0 / 1200.0, 1e-12);
}

TEST(RegionRatesTest, DriverSurplusFoldsIntoMu) {
  // Eq. 19 upper branch: |R_k| <= |D_k|.
  RegionSnapshot snap;
  snap.waiting_riders = 5;
  snap.available_drivers = 25;
  snap.predicted_riders = 50.0;
  snap.predicted_drivers = 20.0;
  RegionRates r = EstimateRegionRates(snap, 600.0);
  EXPECT_NEAR(r.lambda, 50.0 / 600.0, 1e-12);
  EXPECT_NEAR(r.mu, (20.0 + 25.0 - 5.0) / 600.0, 1e-12);
}

TEST(RegionRatesTest, NeverNegative) {
  RegionSnapshot snap;  // all zeros
  RegionRates r = EstimateRegionRates(snap, 1200.0);
  EXPECT_GE(r.lambda, 0.0);
  EXPECT_GE(r.mu, 0.0);
}

}  // namespace
}  // namespace mrvd
