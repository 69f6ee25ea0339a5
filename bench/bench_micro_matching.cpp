// Micro-benchmarks of the matching substrate and one-batch dispatch latency
// (google-benchmark): Hungarian and Hopcroft-Karp scaling, greedy matching,
// and the IRG lazy-requeue greedy vs. a full re-sort baseline — the
// "lazy re-sorting" ablation called out in DESIGN.md.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "api/dispatcher_registry.h"
#include "dispatch/candidates.h"
#include "dispatch/irg_core.h"
#include "geo/travel.h"
#include "matching/bipartite.h"
#include "matching/hungarian.h"
#include "util/rng.h"

namespace mrvd {
namespace {

void BM_Hungarian(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(42);
  std::vector<double> cost(static_cast<size_t>(n) * n);
  for (auto& c : cost) c = rng.Uniform(0, 1000);
  for (auto _ : state) {
    auto r = SolveMinCostAssignment(cost, n, n);
    benchmark::DoNotOptimize(r->total_cost);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_HopcroftKarp(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7);
  BipartiteGraph g(n, n);
  for (int i = 0; i < 8 * n; ++i) {
    g.AddEdge(static_cast<int>(rng.UniformInt(0, n - 1)),
              static_cast<int>(rng.UniformInt(0, n - 1)));
  }
  for (auto _ : state) {
    auto m = MaxCardinalityMatching(g);
    benchmark::DoNotOptimize(m.size);
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GreedyMatch(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(9);
  std::vector<WeightedPair> pairs;
  for (int i = 0; i < 10 * n; ++i) {
    pairs.push_back({static_cast<int>(rng.UniformInt(0, n - 1)),
                     static_cast<int>(rng.UniformInt(0, n - 1)),
                     rng.Uniform(0, 1)});
  }
  for (auto _ : state) {
    auto sel = GreedyMatch(pairs);
    benchmark::DoNotOptimize(sel.size());
  }
}
BENCHMARK(BM_GreedyMatch)->Arg(100)->Arg(1000)->Arg(10000);

// --- One-batch dispatch latency on a synthetic peak-hour batch ----------

struct BatchFixture {
  Grid grid{kNycBoundingBox, 16, 16};
  StraightLineCostModel cost{11.0, 1.3};
  BatchContext ctx{36000.0, 1200.0, 0.02, grid, cost};

  explicit BatchFixture(int riders, int drivers) {
    Rng rng(13);
    auto random_point = [&] {
      return LatLon{rng.Uniform(40.58, 40.92), rng.Uniform(-74.03, -73.77)};
    };
    for (int i = 0; i < riders; ++i) {
      WaitingRider r;
      r.order_id = i;
      r.pickup = random_point();
      r.dropoff = random_point();
      r.request_time = 36000.0 - rng.Uniform(0, 60);
      r.pickup_deadline = 36000.0 + rng.Uniform(30, 125);
      r.trip_seconds = cost.TravelSeconds(r.pickup, r.dropoff);
      r.revenue = r.trip_seconds;
      r.pickup_region = grid.RegionOf(r.pickup);
      r.dropoff_region = grid.RegionOf(r.dropoff);
      ctx.AddRider(r);
    }
    for (int j = 0; j < drivers; ++j) {
      AvailableDriver d;
      d.driver_id = j;
      d.location = random_point();
      d.region = grid.RegionOf(d.location);
      d.available_since = 36000.0 - rng.Uniform(0, 300);
      ctx.AddDriver(d);
    }
    std::vector<RegionSnapshot> snaps(static_cast<size_t>(grid.num_regions()));
    for (const auto& r : ctx.riders())
      ++snaps[static_cast<size_t>(r.pickup_region)].waiting_riders;
    for (const auto& d : ctx.drivers())
      ++snaps[static_cast<size_t>(d.region)].available_drivers;
    for (auto& s : snaps) s.predicted_riders = 20.0;
    ctx.SetSnapshots(std::move(snaps));
  }
};

void BM_OneBatchDispatch(benchmark::State& state, const char* which) {
  BatchFixture fx(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  StatusOr<std::unique_ptr<Dispatcher>> d =
      DispatcherRegistry::Global().Create(which);
  if (!d.ok()) {
    state.SkipWithError(d.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    std::vector<Assignment> out;
    (*d)->Dispatch(fx.ctx, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK_CAPTURE(BM_OneBatchDispatch, irg, "IRG")
    ->Args({500, 300})
    ->Args({2000, 1000});
BENCHMARK_CAPTURE(BM_OneBatchDispatch, ls, "LS")
    ->Args({500, 300})
    ->Args({2000, 1000});
BENCHMARK_CAPTURE(BM_OneBatchDispatch, near, "NEAR")
    ->Args({500, 300})
    ->Args({2000, 1000});
BENCHMARK_CAPTURE(BM_OneBatchDispatch, polar, "POLAR")
    ->Args({500, 300})
    ->Args({2000, 1000});

// Lazy-requeue ablation: the IRG selection loop vs. re-sorting all pairs
// after every acceptance (the naive reading of Algorithm 2's line 7+11).
void BM_IrgLazyGreedy(benchmark::State& state) {
  BatchFixture fx(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  auto pairs = GenerateValidPairs(fx.ctx);
  for (auto _ : state) {
    IrgState s = RunGreedySelection(fx.ctx, pairs,
                                    GreedyObjective::kIdleRatio);
    benchmark::DoNotOptimize(s.assignments.size());
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_IrgLazyGreedy)->Args({500, 300})->Args({2000, 1000});

void BM_IrgFullResort(benchmark::State& state) {
  BatchFixture fx(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)));
  auto pairs = GenerateValidPairs(fx.ctx);
  for (auto _ : state) {
    // Naive variant: recompute and fully re-sort the remaining pairs after
    // each accepted assignment.
    std::vector<int> extra(static_cast<size_t>(fx.grid.num_regions()), 0);
    std::vector<char> rider_used(fx.ctx.riders().size(), false);
    std::vector<char> driver_used(fx.ctx.drivers().size(), false);
    std::vector<size_t> remaining(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) remaining[i] = i;
    size_t accepted = 0;
    while (!remaining.empty()) {
      // Score and pick the min.
      size_t best = 0;
      double best_score = 1e300;
      for (size_t k = 0; k < remaining.size(); ++k) {
        const auto& cp = pairs[remaining[k]];
        const auto& rider =
            fx.ctx.riders()[static_cast<size_t>(cp.rider_index)];
        double s = ScorePair(
            fx.ctx, rider, GreedyObjective::kIdleRatio,
            extra[static_cast<size_t>(rider.dropoff_region)],
            cp.pickup_seconds);
        if (s < best_score) {
          best_score = s;
          best = k;
        }
      }
      const auto& cp = pairs[remaining[best]];
      rider_used[static_cast<size_t>(cp.rider_index)] = true;
      driver_used[static_cast<size_t>(cp.driver_index)] = true;
      ++extra[static_cast<size_t>(
          fx.ctx.riders()[static_cast<size_t>(cp.rider_index)]
              .dropoff_region)];
      ++accepted;
      std::erase_if(remaining, [&](size_t idx) {
        return rider_used[static_cast<size_t>(pairs[idx].rider_index)] ||
               driver_used[static_cast<size_t>(pairs[idx].driver_index)];
      });
    }
    benchmark::DoNotOptimize(accepted);
  }
}
BENCHMARK(BM_IrgFullResort)->Args({500, 300});

}  // namespace
}  // namespace mrvd

BENCHMARK_MAIN();
