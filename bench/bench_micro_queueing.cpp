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
// cap. Args are λ, μ per minute at SimConfig's default β = 0.02, chosen for
// positive tails like the repository benchmark's means: 166 terms (about
// paper_day's 170) and 276 (about city_rush's 278). λ > μ keeps the θ >= 1
// sum, whose K + 1 exp calls the table cannot replace, out of the timing.
void BM_DispatchPathSolve(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  const double mu = static_cast<double>(state.range(1));
  const RenegingGrowthTable growth(0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateIdleTimeSeconds(lambda, mu, 100, growth, 60.0));
  }
  state.counters["tail_len"] = static_cast<double>(
      BirthDeathChain::Solve({lambda, mu, 0.02, 100})->positive_tail_length());
}
BENCHMARK(BM_DispatchPathSolve)->Args({10, 1})->Args({20, 5});

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
