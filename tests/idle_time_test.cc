// BatchContext::ComputeIdleSeconds, the dispatch path's ET(k, extra) solve:
// its one walk over the service neighbourhood against the Grid::Neighbors
// aggregation it replaced, and concurrent solves through one shared growth
// table and one shared context.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "queueing/birth_death.h"
#include "queueing/rates.h"
#include "sim/batch.h"
#include "util/rng.h"

namespace mrvd {
namespace {

constexpr double kWindowSeconds = 1200.0;
constexpr double kBeta = 0.02;

::testing::AssertionResult SameBits(double got, double want) {
  uint64_t g = 0, w = 0;
  std::memcpy(&g, &got, sizeof g);
  std::memcpy(&w, &want, sizeof w);
  if (g == w) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << got << " != reference " << want;
}

/// ComputeIdleSeconds aggregated the way it was before the single walk:
/// one pass over Grid::Neighbors for the rates (Eqs. 18/19) and a second
/// for K, then the β overload of EstimateIdleTimeSeconds in per-minute
/// rates with a 60-minute cap.
double ReferenceIdleSeconds(const Grid& grid,
                            const std::vector<RegionSnapshot>& snapshots,
                            CandidateMode mode, RegionId region,
                            int extra_drivers) {
  // RatesFor.
  RegionSnapshot snap = snapshots[static_cast<size_t>(region)];
  if (mode == CandidateMode::kRingExpand) {
    for (RegionId nb : grid.Neighbors(region)) {
      const RegionSnapshot& s = snapshots[static_cast<size_t>(nb)];
      snap.waiting_riders += s.waiting_riders;
      snap.available_drivers += s.available_drivers;
      snap.predicted_riders += s.predicted_riders;
      snap.predicted_drivers += s.predicted_drivers;
    }
  }
  snap.predicted_drivers += static_cast<double>(extra_drivers);
  const RegionRates rates = EstimateRegionRates(snap, kWindowSeconds);

  // MaxDriversFor.
  RegionSnapshot cap = snapshots[static_cast<size_t>(region)];
  if (mode == CandidateMode::kRingExpand) {
    for (RegionId nb : grid.Neighbors(region)) {
      const RegionSnapshot& s = snapshots[static_cast<size_t>(nb)];
      cap.available_drivers += s.available_drivers;
      cap.predicted_drivers += s.predicted_drivers;
    }
  }
  const int64_t k = std::max<int64_t>(
      cap.available_drivers + static_cast<int64_t>(cap.predicted_drivers) +
          extra_drivers,
      1);

  return 60.0 * EstimateIdleTimeSeconds(rates.lambda * 60.0, rates.mu * 60.0,
                                        k, kBeta,
                                        /*max_idle_seconds=*/60.0);
}

/// Random region snapshots: fractional predictions, so the order of the
/// neighbourhood sums shows in their bits, and empty regions, so rates hit
/// the floor.
std::vector<RegionSnapshot> RandomSnapshots(int num_regions, Rng& rng) {
  std::vector<RegionSnapshot> snaps(static_cast<size_t>(num_regions));
  for (RegionSnapshot& s : snaps) {
    if (rng.NextDouble() < 0.15) continue;
    s.waiting_riders = rng.UniformInt(0, 40);
    s.available_drivers = rng.UniformInt(0, 40);
    s.predicted_riders = rng.Uniform(0.0, 60.0);
    s.predicted_drivers = rng.Uniform(0.0, 30.0);
  }
  return snaps;
}

TEST(IdleTimeTest, NeighbourhoodWalkMatchesNeighborsAggregation) {
  const StraightLineCostModel cost;
  const RenegingGrowthTable growth(kBeta);
  Rng rng(20190417);
  for (auto [rows, cols] : {std::pair{16, 16}, std::pair{5, 23}}) {
    const Grid grid(kNycBoundingBox, rows, cols);
    for (CandidateMode mode :
         {CandidateMode::kRingExpand, CandidateMode::kRegionLocal}) {
      // One context for every rep: SetSnapshots must invalidate the ET
      // memo the previous rep filled.
      BatchContext ctx(0.0, kWindowSeconds, growth, grid, cost, mode);
      for (int rep = 0; rep < 3; ++rep) {
        const std::vector<RegionSnapshot> snaps =
            RandomSnapshots(grid.num_regions(), rng);
        ctx.SetSnapshots(snaps);
        // Every region: corners, edges and interior.
        for (RegionId r = 0; r < grid.num_regions(); ++r) {
          for (int extra : {0, 1, 7}) {
            const double want =
                ReferenceIdleSeconds(grid, snaps, mode, r, extra);
            ASSERT_TRUE(SameBits(ctx.ComputeIdleSeconds(r, extra), want))
                << rows << "x" << cols << " mode="
                << static_cast<int>(mode) << " rep=" << rep
                << " region=" << r << " extra=" << extra;
            ASSERT_TRUE(SameBits(ctx.ExpectedIdleSeconds(r, extra), want));
          }
        }
      }
    }
  }
}

TEST(IdleTimeTest, HandAssembledContextMatchesBorrowedTable) {
  // The β constructor owns its own table; a moved context keeps using it.
  const StraightLineCostModel cost;
  const Grid grid(kNycBoundingBox, 5, 23);
  Rng rng(7);
  const std::vector<RegionSnapshot> snaps =
      RandomSnapshots(grid.num_regions(), rng);
  const RenegingGrowthTable growth(kBeta);
  BatchContext borrowed(0.0, kWindowSeconds, growth, grid, cost);
  BatchContext owning(0.0, kWindowSeconds, kBeta, grid, cost);
  borrowed.SetSnapshots(snaps);
  owning.SetSnapshots(snaps);
  const BatchContext moved(std::move(owning));
  for (RegionId r = 0; r < grid.num_regions(); ++r) {
    ASSERT_TRUE(SameBits(moved.ComputeIdleSeconds(r, 3),
                         borrowed.ComputeIdleSeconds(r, 3)))
        << "region=" << r;
  }
}

TEST(IdleTimeConcurrencyTest, SharedTableAndContextGiveSerialBits) {
  // Four threads solve every (region, extra) key through one growth table
  // and one context, each in its own order; every value must equal the
  // serial pass's bits. The pure ComputeIdleSeconds path writes nothing.
  const StraightLineCostModel cost;
  const Grid grid(kNycBoundingBox, 16, 16);
  const RenegingGrowthTable growth(kBeta);
  Rng rng(20260417);
  BatchContext ctx(0.0, kWindowSeconds, growth, grid, cost);
  ctx.SetSnapshots(RandomSnapshots(grid.num_regions(), rng));

  constexpr int kExtras = 8;
  const int keys = grid.num_regions() * kExtras;
  auto solve = [&](int key) {
    return ctx.ComputeIdleSeconds(key / kExtras, key % kExtras);
  };
  std::vector<double> serial(static_cast<size_t>(keys));
  for (int key = 0; key < keys; ++key) {
    serial[static_cast<size_t>(key)] = solve(key);
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> results(
      kThreads, std::vector<double>(static_cast<size_t>(keys)));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < keys; ++i) {
        const int key = (i + t * keys / kThreads) % keys;
        results[static_cast<size_t>(t)][static_cast<size_t>(key)] = solve(key);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int key = 0; key < keys; ++key) {
      ASSERT_TRUE(
          SameBits(results[static_cast<size_t>(t)][static_cast<size_t>(key)],
                   serial[static_cast<size_t>(key)]))
          << "thread=" << t << " region=" << key / kExtras
          << " extra=" << key % kExtras;
    }
  }
}

}  // namespace
}  // namespace mrvd
