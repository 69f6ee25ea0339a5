// Micro-benchmarks of the queueing substrate (google-benchmark):
// closed-form ET(λ, μ) evaluation across regimes, the dispatch path's
// table-backed solve, the reneging-strength (β) ablation, and the CTMC
// queue simulator.
#include <benchmark/benchmark.h>

#include "queueing/birth_death.h"
#include "queueing/queue_sim.h"
#include "util/rng.h"

namespace mrvd {
namespace {

void BM_SolveChain_MoreRiders(benchmark::State& state) {
  QueueParams params{2.0, 1.0, 0.05, state.range(0)};
  for (auto _ : state) {
    auto chain = BirthDeathChain::Solve(params);
    benchmark::DoNotOptimize(chain->ExpectedIdleSeconds());
  }
}
BENCHMARK(BM_SolveChain_MoreRiders)->Arg(10)->Arg(100)->Arg(1000);

void BM_SolveChain_MoreDrivers(benchmark::State& state) {
  // λ < μ exercises the O(K) scaled summation.
  QueueParams params{1.0, 1.5, 0.05, state.range(0)};
  for (auto _ : state) {
    auto chain = BirthDeathChain::Solve(params);
    benchmark::DoNotOptimize(chain->ExpectedIdleSeconds());
  }
}
BENCHMARK(BM_SolveChain_MoreDrivers)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SolveChain_Balanced(benchmark::State& state) {
  QueueParams params{1.0, 1.0, 0.05, state.range(0)};
  for (auto _ : state) {
    auto chain = BirthDeathChain::Solve(params);
    benchmark::DoNotOptimize(chain->ExpectedIdleSeconds());
  }
}
BENCHMARK(BM_SolveChain_Balanced)->Arg(100)->Arg(1000);

// Reneging-strength ablation: β shifts work into/out of the positive tail.
void BM_RenegingBetaAblation(benchmark::State& state) {
  double beta = static_cast<double>(state.range(0)) / 1000.0;
  QueueParams params{2.0, 1.0, beta, 100};
  for (auto _ : state) {
    auto chain = BirthDeathChain::Solve(params);
    benchmark::DoNotOptimize(chain->p0());
  }
  auto chain = BirthDeathChain::Solve(params);
  state.counters["tail_len"] =
      static_cast<double>(chain->positive_tail_length());
  state.counters["ET_s"] = chain->ExpectedIdleSeconds();
}
BENCHMARK(BM_RenegingBetaAblation)->Arg(0)->Arg(10)->Arg(50)->Arg(200)->Arg(500);

void BM_EstimateIdleTimeHelper(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateIdleTimeSeconds(1.3, 0.9, 50, 0.02));
  }
}
BENCHMARK(BM_EstimateIdleTimeHelper);

// The dispatch path's solve (BatchContext::ComputeIdleSeconds): growth terms
// read from the run's table, no product chain, per-minute rates, 60-minute
// cap. Args are λ, μ per minute and K at SimConfig's default β = 0.02. The
// λ > μ cases time the positive tail alone (its ratios divided in vector
// lanes): 166 terms (near paper_day's mean of 171), 276 (near city_rush's
// mean of 286) and 298 (city_rush's median). The λ < μ case times the
// θ >= 1 sums, one std::exp per state for K + 1 states, at K = 442 (about
// the mean K, 441, of city_rush's λ <= μ solves) behind a 33-term tail.
// Tail lengths and K are those of one default-seed day's solves.
void BM_DispatchPathSolve(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  const double mu = static_cast<double>(state.range(1));
  const int64_t max_drivers = state.range(2);
  const RenegingGrowthTable growth(0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateIdleTimeSeconds(lambda, mu, max_drivers, growth, 60.0));
  }
  state.counters["tail_len"] = static_cast<double>(
      BirthDeathChain::Solve({lambda, mu, 0.02, max_drivers})
          ->positive_tail_length());
}
BENCHMARK(BM_DispatchPathSolve)
    ->Args({10, 1, 100})
    ->Args({20, 5, 100})
    ->Args({19, 12, 100})
    ->Args({1, 2, 442});

// The same solves computing every growth term with std::exp (the β
// overload), for the table's saving per solve.
void BM_DirectGrowthSolve(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  const double mu = static_cast<double>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateIdleTimeSeconds(lambda, mu, 100, 0.02, 60.0));
  }
}
BENCHMARK(BM_DirectGrowthSolve)->Args({10, 1})->Args({20, 5});

void BM_QueueCtmcSimulation(benchmark::State& state) {
  QueueParams params{2.0, 1.0, 0.05, 30};
  Rng rng(7);
  for (auto _ : state) {
    auto result =
        SimulateDoubleSidedQueue(params, static_cast<double>(state.range(0)),
                                 rng);
    benchmark::DoNotOptimize(result.mean_driver_idle);
  }
}
BENCHMARK(BM_QueueCtmcSimulation)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace mrvd

BENCHMARK_MAIN();
