// Equivalence and partitioning tests for the region-sharded dispatch
// pipeline: with a BatchExecution attached, every dispatcher must produce
// the exact Assignment sequence of the serial path, because sharding only
// relocates pure work (candidate generation and idle-time solves).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/dispatcher_registry.h"
#include "dispatch/candidates.h"
#include "dispatch/dispatchers.h"
#include "dispatch/pipeline.h"
#include "registry_test_helpers.h"
#include "geo/region_partitioner.h"
#include "geo/travel.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ---------------------------------------------------- RegionPartitioner

TEST(RegionPartitionerTest, RowBandsCoverEveryRegionOnce) {
  Grid grid = MakeNycGrid16x16();
  for (int k : {1, 2, 5, 8, 16, 40}) {
    RegionPartitioner parts = RegionPartitioner::RowBands(grid, k);
    EXPECT_LE(parts.num_shards(), grid.rows());
    EXPECT_GE(parts.num_shards(), 1);
    EXPECT_EQ(parts.num_regions(), grid.num_regions());
    std::vector<int> seen(static_cast<size_t>(grid.num_regions()), 0);
    for (int s = 0; s < parts.num_shards(); ++s) {
      EXPECT_FALSE(parts.shard_regions()[static_cast<size_t>(s)].empty())
          << "shard " << s << " of " << k;
      for (RegionId r : parts.shard_regions()[static_cast<size_t>(s)]) {
        EXPECT_EQ(parts.shard_of(r), s);
        ++seen[static_cast<size_t>(r)];
      }
    }
    for (int r = 0; r < grid.num_regions(); ++r) {
      EXPECT_EQ(seen[static_cast<size_t>(r)], 1) << "region " << r;
    }
  }
}

TEST(RegionPartitionerTest, ShardsAreConnected) {
  Grid grid = MakeNycGrid16x16();
  for (int k : {1, 3, 7, 16}) {
    RegionPartitioner parts = RegionPartitioner::RowBands(grid, k);
    EXPECT_TRUE(parts.ShardsConnected(grid)) << k << " shards";
  }
}

TEST(RegionPartitionerTest, WeightedSplitBalancesLoad) {
  Grid grid(kNycBoundingBox, 8, 8);
  // All weight in the top half: the bands must concentrate there.
  std::vector<double> weights(static_cast<size_t>(grid.num_regions()), 0.0);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 8; ++c) {
      weights[static_cast<size_t>(grid.RegionAt(r, c))] = 10.0;
    }
  }
  RegionPartitioner parts = RegionPartitioner::RowBands(grid, 4, weights);
  ASSERT_EQ(parts.num_shards(), 4);
  EXPECT_TRUE(parts.ShardsConnected(grid));
  // The weighted rows (0..3) should not all land in one shard.
  EXPECT_NE(parts.shard_of(grid.RegionAt(0, 0)),
            parts.shard_of(grid.RegionAt(3, 0)));
}

// ------------------------------------------------------ batch equivalence

/// Builds a randomized batch over the 16x16 NYC grid. Returns the context
/// fully snapshotted; the same seed always produces the same batch.
class ShardedPipelineTest : public ::testing::Test {
 protected:
  ShardedPipelineTest() : grid_(MakeNycGrid16x16()), cost_(7.0, 1.3) {}

  std::unique_ptr<BatchContext> MakeBatch(uint64_t seed, int num_riders,
                                          int num_drivers,
                                          CandidateMode mode) {
    auto ctx = std::make_unique<BatchContext>(
        /*now=*/3600.0, /*window=*/1200.0, /*beta=*/0.02, grid_, cost_, mode);
    Rng rng(seed);
    auto random_point = [&] {
      return LatLon{rng.Uniform(kNycBoundingBox.lat_min,
                                kNycBoundingBox.lat_max),
                    rng.Uniform(kNycBoundingBox.lon_min,
                                kNycBoundingBox.lon_max)};
    };
    for (int i = 0; i < num_riders; ++i) {
      WaitingRider r;
      r.order_id = i;
      r.pickup = random_point();
      r.dropoff = random_point();
      r.request_time = 3600.0 - rng.Uniform(0.0, 120.0);
      r.pickup_deadline = 3600.0 + rng.Uniform(60.0, 600.0);
      r.trip_seconds = cost_.TravelSeconds(r.pickup, r.dropoff);
      r.revenue = r.trip_seconds;
      r.pickup_region = grid_.RegionOf(r.pickup);
      r.dropoff_region = grid_.RegionOf(r.dropoff);
      ctx->AddRider(r);
    }
    for (int j = 0; j < num_drivers; ++j) {
      AvailableDriver d;
      d.driver_id = j;
      d.location = random_point();
      d.region = grid_.RegionOf(d.location);
      d.available_since = 3600.0 - rng.Uniform(0.0, 300.0);
      ctx->AddDriver(d);
    }
    std::vector<RegionSnapshot> snaps(
        static_cast<size_t>(grid_.num_regions()));
    for (const auto& r : ctx->riders()) {
      ++snaps[static_cast<size_t>(r.pickup_region)].waiting_riders;
    }
    for (const auto& d : ctx->drivers()) {
      ++snaps[static_cast<size_t>(d.region)].available_drivers;
    }
    for (auto& s : snaps) {
      s.predicted_riders = rng.Uniform(0.0, 30.0);
      s.predicted_drivers = rng.Uniform(0.0, 10.0);
    }
    ctx->SetSnapshots(std::move(snaps));
    return ctx;
  }

  Grid grid_;
  StraightLineCostModel cost_;
};

std::vector<Assignment> DispatchOnce(Dispatcher& d, const BatchContext& ctx) {
  std::vector<Assignment> out;
  d.Dispatch(ctx, &out);
  return out;
}

bool SameAssignments(const std::vector<Assignment>& a,
                     const std::vector<Assignment>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rider_index != b[i].rider_index ||
        a[i].driver_index != b[i].driver_index) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------- candidate generation

/// The candidate search before reach boxes, kept as the reference for the
/// canonical pair order: each rider walks the rings around its pickup
/// region out to floor(reach / smallest cell side) + 2 and prices every
/// driver on them. It lists each ring itself, so it shares no code with
/// the search it checks.
std::vector<CandidatePair> RingWalkReference(const BatchContext& ctx) {
  const Grid& grid = ctx.grid();
  auto ring_cells = [&grid](RegionId r, int ring) {
    if (ring == 0) return std::vector<RegionId>{r};
    std::vector<RegionId> out;
    const int row = grid.RowOf(r), col = grid.ColOf(r);
    const int r0 = row - ring, r1 = row + ring;
    const int c0 = col - ring, c1 = col + ring;
    for (int c = c0; c <= c1; ++c) {
      if (c < 0 || c >= grid.cols()) continue;
      if (r0 >= 0) out.push_back(grid.RegionAt(r0, c));
      if (r1 < grid.rows()) out.push_back(grid.RegionAt(r1, c));
    }
    for (int rr = r0 + 1; rr <= r1 - 1; ++rr) {
      if (rr < 0 || rr >= grid.rows()) continue;
      if (c0 >= 0) out.push_back(grid.RegionAt(rr, c0));
      if (c1 < grid.cols()) out.push_back(grid.RegionAt(rr, c1));
    }
    return out;
  };
  const BoundingBox cell = grid.CellBox(grid.RegionAt(grid.rows() / 2, 0));
  const LatLon corner{cell.lat_min, cell.lon_min};
  const double min_cell_m =
      std::min(EquirectangularMeters(corner, {cell.lat_min, cell.lon_max}),
               EquirectangularMeters(corner, {cell.lat_max, cell.lon_min}));
  std::vector<CandidatePair> out;
  for (int ri = 0; ri < static_cast<int>(ctx.riders().size()); ++ri) {
    const WaitingRider& r = ctx.riders()[static_cast<size_t>(ri)];
    const double budget_seconds = r.pickup_deadline - ctx.now();
    if (budget_seconds < 0.0) continue;
    int max_ring = 0;
    if (ctx.candidate_mode() == CandidateMode::kRingExpand) {
      const double reach_m = budget_seconds * ctx.cost_model().SpeedMps();
      max_ring = std::min(std::max(grid.rows(), grid.cols()),
                          static_cast<int>(reach_m / min_cell_m) + 2);
    }
    for (int g = 0; g <= max_ring; ++g) {
      for (RegionId reg : ring_cells(r.pickup_region, g)) {
        for (int di : ctx.drivers_by_region()[static_cast<size_t>(reg)]) {
          const double tt =
              ctx.PickupSeconds(ctx.drivers()[static_cast<size_t>(di)], r);
          if (ctx.now() + tt <= r.pickup_deadline) out.push_back({ri, di, tt});
        }
      }
    }
  }
  return out;
}

/// A batch on the reach box's edges: riders and drivers off the grid's box
/// (clamped into border cells) and on cell boundaries and corners, riders
/// on a driver, metres from it, or sharing its latitude or longitude;
/// budgets of zero, of city-wide reach, and ones that driver meets with
/// now + tt == deadline exactly.
std::unique_ptr<BatchContext> MakeEdgeBatch(const Grid& grid,
                                            const TravelCostModel& cost,
                                            CandidateMode mode, double now,
                                            uint64_t seed) {
  auto ctx = std::make_unique<BatchContext>(now, /*window=*/1200.0,
                                            /*beta=*/0.02, grid, cost, mode);
  Rng rng(seed);
  const BoundingBox& box = grid.box();
  const double cell_h = box.HeightDegrees() / grid.rows();
  const double cell_w = box.WidthDegrees() / grid.cols();
  auto boundary_lat = [&] {
    return box.lat_min + static_cast<double>(rng.UniformInt(0, grid.rows())) *
                             cell_h;
  };
  auto boundary_lon = [&] {
    return box.lon_min + static_cast<double>(rng.UniformInt(0, grid.cols())) *
                             cell_w;
  };
  auto random_point = [&]() -> LatLon {
    const double lat = rng.Uniform(box.lat_min, box.lat_max);
    const double lon = rng.Uniform(box.lon_min, box.lon_max);
    switch (rng.UniformInt(0, 4)) {
      case 0:
        return {rng.Uniform(box.lat_min - 0.05, box.lat_max + 0.05),
                rng.Uniform(box.lon_min - 0.05, box.lon_max + 0.05)};
      case 1:
        return {boundary_lat(), lon};
      case 2:
        return {lat, boundary_lon()};
      case 3:
        return {boundary_lat(), boundary_lon()};
      default:
        return {lat, lon};
    }
  };
  std::vector<AvailableDriver> drivers(120);
  for (int j = 0; j < static_cast<int>(drivers.size()); ++j) {
    AvailableDriver& d = drivers[static_cast<size_t>(j)];
    d.driver_id = j;
    d.location = random_point();
    d.region = grid.RegionOf(d.location);
    ctx->AddDriver(d);
  }
  for (int i = 0; i < 150; ++i) {
    const AvailableDriver& target = drivers[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(drivers.size()) - 1))];
    WaitingRider r;
    r.order_id = i;
    const LatLon elsewhere = random_point();
    switch (rng.UniformInt(0, 5)) {
      case 0:
        r.pickup = target.location;
        break;
      case 1:
        r.pickup = {target.location.lat, elsewhere.lon};
        break;
      case 2:
        r.pickup = {elsewhere.lat, target.location.lon};
        break;
      case 3:  // metres away: the deadline's rounding dwarfs the box's pad
        r.pickup = {target.location.lat + rng.Uniform(-1e-4, 1e-4),
                    target.location.lon};
        break;
      default:
        r.pickup = elsewhere;
    }
    r.dropoff = random_point();
    switch (i % 4) {
      case 0:
        r.pickup_deadline = now;  // zero budget
        break;
      case 1:
        r.pickup_deadline = now + 1e5;  // the whole city is in reach
        break;
      case 2:
        r.pickup_deadline = now + cost.TravelSeconds(target.location, r.pickup);
        break;
      default:
        r.pickup_deadline = now + rng.Uniform(0.0, 600.0);
    }
    r.pickup_region = grid.RegionOf(r.pickup);
    r.dropoff_region = grid.RegionOf(r.dropoff);
    ctx->AddRider(r);
  }
  return ctx;
}

void ExpectSamePairs(const std::vector<CandidatePair>& got,
                     const std::vector<CandidatePair>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rider_index, want[i].rider_index) << label << " #" << i;
    EXPECT_EQ(got[i].driver_index, want[i].driver_index) << label << " #" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].pickup_seconds),
              std::bit_cast<uint64_t>(want[i].pickup_seconds))
        << label << " #" << i;
  }
}

TEST_F(ShardedPipelineTest, CandidatePairsIdenticalUnderSharding) {
  // Serial and sharded generation must equal, pair for pair, a brute-force
  // Def.-3 scan (as sets per rider) and the pre-reach-box ring walk (bit for
  // bit, in order) on a random batch and on edge batches over a square and
  // a non-square grid, under three travel models and both candidate modes.
  Grid wide(kNycBoundingBox, 5, 23);
  const StraightLineCostModel direct(7.0, 1.0);
  const ManhattanCostModel manhattan(7.0);
  const std::vector<const TravelCostModel*> costs = {&cost_, &direct,
                                                     &manhattan};
  for (CandidateMode mode :
       {CandidateMode::kRingExpand, CandidateMode::kRegionLocal}) {
    std::vector<std::pair<std::string, std::function<
                                           std::unique_ptr<BatchContext>()>>>
        batches = {{"random", [&] { return MakeBatch(99, 150, 100, mode); }}};
    for (const Grid* grid : {&grid_, &wide}) {
      for (size_t c = 0; c < costs.size(); ++c) {
        // A clock years in makes now + tt round as coarsely as 7.5e-9 s.
        for (double now : {3600.0, 1e8}) {
          batches.emplace_back(
              "edges " + std::to_string(grid->rows()) + "x" +
                  std::to_string(grid->cols()) + " cost " + std::to_string(c) +
                  " now " + std::to_string(now),
              [&, grid, c, now] {
                return MakeEdgeBatch(*grid, *costs[c], mode, now, 41 + c);
              });
        }
      }
    }
    int exact_deadline_pairs = 0, zero_budget_pairs = 0, off_box_pairs = 0;
    for (const auto& [name, make] : batches) {
      const std::string label =
          name + (mode == CandidateMode::kRingExpand ? " ring" : " local");
      const std::unique_ptr<BatchContext> plain = make();
      const std::vector<CandidatePair> reference = RingWalkReference(*plain);

      // Brute force: the reference's pairs of each rider are exactly its
      // Def.-3-valid drivers (region-local: those in its pickup region), so
      // matching the reference also matches the brute-force scan.
      std::vector<std::vector<int>> valid(plain->riders().size());
      for (const CandidatePair& p : reference) {
        valid[static_cast<size_t>(p.rider_index)].push_back(p.driver_index);
        const WaitingRider& r =
            plain->riders()[static_cast<size_t>(p.rider_index)];
        const AvailableDriver& d =
            plain->drivers()[static_cast<size_t>(p.driver_index)];
        exact_deadline_pairs +=
            plain->now() + p.pickup_seconds == r.pickup_deadline;
        zero_budget_pairs += r.pickup_deadline == plain->now();
        off_box_pairs += !plain->grid().box().Contains(d.location);
      }
      for (size_t ri = 0; ri < plain->riders().size(); ++ri) {
        const WaitingRider& r = plain->riders()[ri];
        std::vector<int> brute;
        for (size_t dj = 0; dj < plain->drivers().size(); ++dj) {
          const bool same_region =
              plain->drivers()[dj].region == r.pickup_region;
          if ((mode == CandidateMode::kRingExpand || same_region) &&
              plain->IsValidPair(plain->drivers()[dj], r)) {
            brute.push_back(static_cast<int>(dj));
          }
        }
        std::sort(valid[ri].begin(), valid[ri].end());
        EXPECT_EQ(valid[ri], brute) << label << " rider " << ri;
      }

      for (int threads : {1, 4}) {
        const std::unique_ptr<BatchContext> ctx = make();
        ThreadPool pool(threads);
        RegionPartitioner parts = RegionPartitioner::RowBands(
            ctx->grid(), SimConfig().ResolveShards(threads));
        BatchExecution exec{&pool, &parts};
        ctx->SetExecution(&exec);
        const std::string at = label + " threads " + std::to_string(threads);
        ExpectSamePairs(GenerateValidPairs(*ctx), reference, at);
        std::vector<CandidatePair> flat;
        for (const auto& group : GenerateValidPairsPerRider(*ctx)) {
          flat.insert(flat.end(), group.begin(), group.end());
        }
        ExpectSamePairs(flat, reference, at + " per rider");
      }
    }
    // The edge batches really reach the edges they are built for.
    EXPECT_GT(exact_deadline_pairs, 0);
    EXPECT_GT(zero_budget_pairs, 0);
    EXPECT_GT(off_box_pairs, 0);
  }
}

using test::MakeSeeded;  // registry-built, canonical test seed by default

TEST_F(ShardedPipelineTest, AllDispatchersBitIdenticalAcrossThreadCounts) {
  // Every registered dispatcher that is meaningful on a raw batch (UPPER's
  // zero-pickup trait only applies through the engine) — straight from the
  // registry, so a newly registered approach joins the check automatically.
  const std::vector<std::string> names = test::RosterWithoutZeroPickup();
  for (uint64_t seed : {7u, 20190417u}) {
    for (CandidateMode mode :
         {CandidateMode::kRingExpand, CandidateMode::kRegionLocal}) {
      auto serial_ctx = MakeBatch(seed, 120, 90, mode);
      auto serial_results = std::vector<std::vector<Assignment>>();
      for (const auto& name : names) {
        auto d = MakeSeeded(name);
        ASSERT_NE(d, nullptr) << name;
        serial_results.push_back(DispatchOnce(*d, *serial_ctx));
      }
      for (int threads : {2, 4}) {
        ThreadPool pool(threads);
        // Shard count routed through SimConfig, so the test exercises the
        // partition the engine itself would derive for this thread count.
        RegionPartitioner parts = RegionPartitioner::RowBands(
            grid_, SimConfig().ResolveShards(threads));
        BatchExecution exec{&pool, &parts};
        auto sharded_ctx = MakeBatch(seed, 120, 90, mode);
        sharded_ctx->SetExecution(&exec);
        for (size_t n = 0; n < names.size(); ++n) {
          auto d = MakeSeeded(names[n]);
          auto got = DispatchOnce(*d, *sharded_ctx);
          EXPECT_TRUE(SameAssignments(serial_results[n], got))
              << names[n] << " diverged at " << threads << " threads, seed "
              << seed << " (serial " << serial_results[n].size()
              << " pairs, sharded " << got.size() << ")";
        }
      }
    }
  }
}

TEST_F(ShardedPipelineTest, ShardedPrepareRecordsEveryShard) {
  auto ctx = MakeBatch(11, 200, 150, CandidateMode::kRingExpand);
  ThreadPool pool(4);
  RegionPartitioner parts = RegionPartitioner::RowBands(grid_, 8);
  BatchExecution exec{&pool, &parts};
  ctx->SetExecution(&exec);
  PreparedBatch prepared = PrepareShardedBatch(*ctx);
  EXPECT_FALSE(prepared.pairs.empty());
  ASSERT_EQ(prepared.shard_stats.size(), 8u);
  int64_t riders = 0;
  for (const ShardLoadStat& s : prepared.shard_stats) riders += s.riders;
  EXPECT_EQ(riders, static_cast<int64_t>(ctx->riders().size()));
}

// ---------------------------------------------------- engine equivalence

TEST(ShardedEngineTest, FullDayRunMatchesSerialExactly) {
  // A small synthetic day through the real engine: num_threads must not
  // change a single aggregate (assignments are identical batch by batch).
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 600.0;
  gcfg.seed = 20190417;
  NycLikeGenerator gen(gcfg);
  Workload workload = gen.GenerateDay(/*day_index=*/1, /*num_drivers=*/40);
  StraightLineCostModel cost(7.0, 1.3);

  SimConfig base;
  base.horizon_seconds = 6 * 3600.0;
  base.batch_interval = 30.0;

  SimConfig serial_cfg = base;
  serial_cfg.num_threads = 1;
  SimConfig sharded_cfg = base;
  sharded_cfg.num_threads = 3;

  Simulator serial_sim(serial_cfg, workload, gen.grid(), cost, nullptr);
  Simulator sharded_sim(sharded_cfg, workload, gen.grid(), cost, nullptr);

  for (const char* name : {"IRG", "LS", "SHORT"}) {
    auto d1 = MakeSeeded(name);
    auto d2 = MakeSeeded(name);
    SimResult a = serial_sim.Run(*d1);
    SimResult b = sharded_sim.Run(*d2);
    EXPECT_EQ(a.served_orders, b.served_orders) << name;
    EXPECT_EQ(a.reneged_orders, b.reneged_orders) << name;
    EXPECT_EQ(a.total_revenue, b.total_revenue) << name;  // bit-exact
    EXPECT_EQ(a.num_batches, b.num_batches) << name;
  }
}

}  // namespace
}  // namespace mrvd
