#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dispatch/candidates.h"
#include "dispatch/dispatchers.h"
#include "dispatch/irg_core.h"
#include "geo/travel.h"
#include "random_batch_test_helpers.h"
#include "sim/batch.h"
#include "util/rng.h"

namespace mrvd {
namespace {

// Fixture with a hand-built 4x4 batch context.
class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest()
      : grid_(kNycBoundingBox, 4, 4),
        cost_(10.0, 1.0),
        ctx_(/*now=*/1000.0, /*window=*/1200.0, /*beta=*/0.02, grid_, cost_) {}

  WaitingRider MakeRider(OrderId id, LatLon pickup, LatLon dropoff,
                         double deadline_slack = 200.0) {
    WaitingRider r;
    r.order_id = id;
    r.pickup = pickup;
    r.dropoff = dropoff;
    r.request_time = 990.0;
    r.pickup_deadline = 1000.0 + deadline_slack;
    r.trip_seconds = cost_.TravelSeconds(pickup, dropoff);
    r.revenue = r.trip_seconds;
    r.pickup_region = grid_.RegionOf(pickup);
    r.dropoff_region = grid_.RegionOf(dropoff);
    return r;
  }

  AvailableDriver MakeDriver(DriverId id, LatLon loc) {
    AvailableDriver d;
    d.driver_id = id;
    d.location = loc;
    d.region = grid_.RegionOf(loc);
    d.available_since = 900.0;
    return d;
  }

  void FinalizeSnapshots(
      const std::vector<std::pair<RegionId, double>>& predicted_riders = {}) {
    std::vector<RegionSnapshot> snaps(
        static_cast<size_t>(grid_.num_regions()));
    for (const auto& r : ctx_.riders()) {
      ++snaps[static_cast<size_t>(r.pickup_region)].waiting_riders;
    }
    for (const auto& d : ctx_.drivers()) {
      ++snaps[static_cast<size_t>(d.region)].available_drivers;
    }
    for (auto [region, count] : predicted_riders) {
      snaps[static_cast<size_t>(region)].predicted_riders = count;
    }
    ctx_.SetSnapshots(std::move(snaps));
  }

  static bool AssignmentsValid(const BatchContext& ctx,
                               const std::vector<Assignment>& as) {
    std::vector<char> r_used(ctx.riders().size(), false);
    std::vector<char> d_used(ctx.drivers().size(), false);
    for (const auto& a : as) {
      if (a.rider_index < 0 || a.driver_index < 0) return false;
      if (r_used[static_cast<size_t>(a.rider_index)]) return false;
      if (d_used[static_cast<size_t>(a.driver_index)]) return false;
      r_used[static_cast<size_t>(a.rider_index)] = true;
      d_used[static_cast<size_t>(a.driver_index)] = true;
      if (!ctx.IsValidPair(
              ctx.drivers()[static_cast<size_t>(a.driver_index)],
              ctx.riders()[static_cast<size_t>(a.rider_index)]))
        return false;
    }
    return true;
  }

  Grid grid_;
  StraightLineCostModel cost_;
  BatchContext ctx_;
};

// ------------------------------------------------------------- candidates

TEST_F(DispatchTest, CandidatesRespectDeadline) {
  LatLon near_p{40.70, -74.00};
  LatLon far_p{40.90, -73.79};
  ctx_.AddRider(MakeRider(0, near_p, far_p, /*deadline_slack=*/100.0));
  ctx_.AddDriver(MakeDriver(0, near_p));  // ~0 s away
  ctx_.AddDriver(MakeDriver(1, far_p));   // ~40 km away at 10 m/s
  FinalizeSnapshots();

  auto pairs = GenerateValidPairs(ctx_);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].driver_index, 0);
  EXPECT_LT(pairs[0].pickup_seconds, 100.0);
}

TEST_F(DispatchTest, CandidatesFindCrossRegionDrivers) {
  // Driver in the adjacent cell but within the deadline reach. Cell rows of
  // the 4x4 grid break at 40.665; straddle that boundary.
  LatLon rider_p{40.664, -74.00};
  LatLon driver_p{40.667, -74.00};  // ~330 m north, next row up
  ctx_.AddRider(MakeRider(0, rider_p, LatLon{40.75, -73.95}, 400.0));
  ctx_.AddDriver(MakeDriver(0, driver_p));
  FinalizeSnapshots();
  ASSERT_NE(grid_.RegionOf(rider_p), grid_.RegionOf(driver_p));

  auto pairs = GenerateValidPairs(ctx_);
  ASSERT_EQ(pairs.size(), 1u);
}

// ------------------------------------------------- memoised valid pairs

/// One context refilled by hand across batches, as the engine refills its
/// own: each batch checks ValidPairs() against the from-scratch search bit
/// for bit, and how many rider searches the memo skipped. Parameters: the
/// candidate mode and the grid's column count. 4 rows x 4 columns makes
/// cells ~9.4 km tall and ~5.5 km wide; 4 x 700 makes them ~30 m wide, so
/// a 2 km reach walks more than 64 columns and one row's join bits span
/// several words.
class ValidPairsMemoTest
    : public ::testing::TestWithParam<std::tuple<CandidateMode, int>> {
 protected:
  ValidPairsMemoTest()
      : grid_(kNycBoundingBox, 4, std::get<1>(GetParam())),
        cost_(10.0, 1.0),
        ctx_(/*now=*/1000.0, /*window=*/1200.0, /*beta=*/0.02, grid_, cost_,
             std::get<0>(GetParam())) {}

  /// A rider at `pickup` whose deadline is 1200 s: a 2 km reach at 1000 s.
  WaitingRider Rider(OrderId id, LatLon pickup) const {
    WaitingRider r;
    r.order_id = id;
    r.pickup = pickup;
    r.dropoff = {40.75, -73.95};
    r.pickup_deadline = 1200.0;
    r.trip_seconds = cost_.TravelSeconds(r.pickup, r.dropoff);
    r.revenue = r.trip_seconds;
    r.pickup_region = grid_.RegionOf(r.pickup);
    r.dropoff_region = grid_.RegionOf(r.dropoff);
    return r;
  }

  AvailableDriver Driver(DriverId id, LatLon location,
                         double available_since) const {
    AvailableDriver d;
    d.driver_id = id;
    d.location = location;
    d.region = grid_.RegionOf(location);
    d.available_since = available_since;
    return d;
  }

  /// Refills the context for the batch at `now`.
  void Refill(double now, const std::vector<WaitingRider>& riders,
              const std::vector<AvailableDriver>& drivers) {
    ctx_.Reset(now);
    for (const WaitingRider& r : riders) ctx_.AddRider(r);
    for (const AvailableDriver& d : drivers) ctx_.AddDriver(d);
  }

  /// Checks the batch's list against GenerateValidPairs and returns how
  /// many searches it skipped.
  int64_t CheckBatch(const std::string& label) {
    const int64_t skipped_before = ctx_.skipped_searches();
    const std::vector<CandidatePair>& got = ctx_.ValidPairs();
    const std::vector<CandidatePair> want = GenerateValidPairs(ctx_);
    EXPECT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].rider_index, want[i].rider_index) << label;
      EXPECT_EQ(got[i].driver_index, want[i].driver_index) << label;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].pickup_seconds),
                std::bit_cast<uint64_t>(want[i].pickup_seconds))
          << label;
    }
    return ctx_.skipped_searches() - skipped_before;
  }

  bool Paired(int rider_index) const {
    for (const CandidatePair& p : ctx_.ValidPairs()) {
      if (p.rider_index == rider_index) return true;
    }
    return false;
  }

  Grid grid_;
  StraightLineCostModel cost_;
  BatchContext ctx_;
};

TEST_P(ValidPairsMemoTest, SkipsOnlyRidersNoDriverHasJoinedNear) {
  // A sits 280 m below a row boundary, so its 2 km reach box spans two
  // rows under ring expansion; B, C and E are far from A and each other.
  // L stands on E's pickup, but its deadline passed before the first batch,
  // so its search walks no cell at all.
  const WaitingRider a = Rider(1, {40.7475, -73.9325});
  const WaitingRider b = Rider(2, {40.88, -74.00});
  const WaitingRider c = Rider(3, {40.85, -73.80});
  const WaitingRider e = Rider(5, {40.62, -74.00});
  WaitingRider late = Rider(6, e.pickup);
  late.pickup_deadline = 990.0;
  const LatLon far_corner{40.60, -73.78};
  const AvailableDriver far = Driver(0, far_corner, 0.0);

  // Batch 1000: nothing in reach; every rider is searched.
  Refill(1000.0, {a, b, c, late}, {far});
  EXPECT_EQ(CheckBatch("1000"), 0);
  EXPECT_TRUE(ctx_.ValidPairs().empty());
  std::vector<CandidatePair> unused;
  const CellSpan a_walked = ctx_.SearchRider(0, &unused);
  ASSERT_LT(a_walked.col_hi + 1, grid_.cols());
  if (grid_.cols() > 64 &&
      std::get<0>(GetParam()) == CandidateMode::kRingExpand) {
    // A's walked cells cover a whole word of each row and part of the
    // words on either side.
    ASSERT_GE(a_walked.col_hi / 64 - a_walked.col_lo / 64, 2);
  }
  const CellSpan late_walked = ctx_.SearchRider(3, &unused);
  ASSERT_GT(late_walked.row_lo, late_walked.row_hi);
  ASSERT_GT(late_walked.col_lo, late_walked.col_hi);

  // Batch 1030: no driver joined, so no rider is searched again.
  Refill(1030.0, {a, b, c, late}, {far});
  EXPECT_EQ(CheckBatch("1030"), 4);
  EXPECT_TRUE(ctx_.ValidPairs().empty());

  // Batch 1060: B leaves from the middle of the list and E arrives at its
  // end; a driver joins just across the east edge of A's walked cells. A,
  // C and L are skipped, E (new) is searched. `zero` waits at the far
  // corner, where it has been all day.
  const LatLon past_a_edge{
      a.pickup.lat,
      grid_.CellBox(grid_.RegionAt(grid_.RowOf(a.pickup_region),
                                   a_walked.col_hi + 1))
              .lon_min +
          1e-6};
  const AvailableDriver edge = Driver(1, past_a_edge, 1060.0);
  ASSERT_EQ(grid_.ColOf(edge.region), a_walked.col_hi + 1);
  Refill(1060.0, {a, c, late, e}, {far, edge, Driver(2, far_corner, 0.0)});
  EXPECT_EQ(CheckBatch("1060"), 3);
  EXPECT_TRUE(ctx_.ValidPairs().empty());

  // Batch 1090: `zero` was assigned at 1060 and its zero-length trip put
  // it on E's pickup, available since exactly E's search `now`. E is
  // searched and paired. `inside` joins the far corner of A's last walked
  // column, out of A's reach: A is searched and stays pair-less. C and L
  // stay skipped, L although a driver joined at its pickup.
  const AvailableDriver zero = Driver(2, e.pickup, 1060.0);
  const BoundingBox last_cell = grid_.CellBox(
      grid_.RegionAt(grid_.RowOf(a.pickup_region), a_walked.col_hi));
  const AvailableDriver inside = Driver(
      3, {last_cell.lat_min + 1e-6, last_cell.lon_max - 1e-6}, 1090.0);
  ASSERT_EQ(grid_.RowOf(inside.region), grid_.RowOf(a.pickup_region));
  ASSERT_EQ(grid_.ColOf(inside.region), a_walked.col_hi);
  Refill(1090.0, {a, c, late, e}, {far, edge, zero, inside});
  EXPECT_EQ(CheckBatch("1090"), 2);
  EXPECT_FALSE(Paired(0));
  EXPECT_FALSE(Paired(2));
  EXPECT_TRUE(Paired(3));

  // The clock going backwards drops the memo: every rider is searched.
  Refill(1000.0, {a, c, e}, {far, edge, zero});
  EXPECT_EQ(CheckBatch("back to 1000"), 0);

  // So does a driver added after the batch's list was read: it may have
  // stood there all along (available since 0), so A must be searched.
  Refill(1120.0, {a, c}, {far});
  EXPECT_EQ(CheckBatch("1120"), 2);
  EXPECT_FALSE(Paired(0));
  ctx_.AddDriver(Driver(3, a.pickup, 0.0));
  EXPECT_EQ(CheckBatch("1120 + late driver"), 0);
  EXPECT_TRUE(Paired(0));

  // A rider is matched to its entry by order id, but a memo entry only
  // stands for the same pickup and deadline. C's deadline moves out until
  // a driver 2.2 km away in its cell is in reach...
  WaitingRider c_later = c;
  c_later.pickup_deadline = 5000.0;
  const AvailableDriver c_cell = Driver(5, {40.87, -73.80}, 0.0);
  ASSERT_EQ(c_cell.region, c.pickup_region);
  Refill(1150.0, {a, c_later}, {far, c_cell});
  EXPECT_EQ(CheckBatch("1150, C's deadline moved"), 0);
  EXPECT_TRUE(Paired(1));
  // ...and A, pair-less again at 1150, moves within its cell onto a driver
  // 5.3 km south of its old pickup, out of the old search's reach.
  const LatLon stand{40.70, a.pickup.lon};
  const WaitingRider a_moved = Rider(1, stand);
  ASSERT_EQ(a_moved.pickup_region, a.pickup_region);
  Refill(1180.0, {a_moved}, {far, Driver(4, stand, 0.0)});
  EXPECT_EQ(CheckBatch("1180, A's pickup moved"), 0);
  EXPECT_TRUE(Paired(0));
}

TEST_P(ValidPairsMemoTest, LaterComputationsInOneBatchKeepTheMemo) {
  // A rider added after the batch's list was read makes the context compute
  // the list again, at the same `now` and with the same drivers: a rider
  // that an earlier computation left pair-less is skipped.
  const WaitingRider a = Rider(1, {40.7475, -73.9325});
  const WaitingRider c = Rider(3, {40.85, -73.80});
  const AvailableDriver far = Driver(0, {40.60, -73.78}, 0.0);
  // A driver waits in C's cell all day, 2.2 km north of C: out of the
  // 1.7 km reach C has at 1030.
  const AvailableDriver north_of_c = Driver(1, {40.87, -73.80}, 0.0);
  ASSERT_EQ(north_of_c.region, c.pickup_region);
  Refill(1000.0, {a}, {far, north_of_c});
  EXPECT_EQ(CheckBatch("1000"), 0);

  Refill(1030.0, {a}, {far, north_of_c});
  EXPECT_EQ(CheckBatch("1030"), 1);  // A
  ctx_.AddRider(c);
  EXPECT_EQ(CheckBatch("1030 + C"), 1);  // A; C is new
  ctx_.AddRider(Rider(7, {40.88, -74.00}));
  EXPECT_EQ(CheckBatch("1030 + C + 7"), 2);  // A and C; 7 is new
  EXPECT_TRUE(ctx_.ValidPairs().empty());
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, ValidPairsMemoTest,
    ::testing::Combine(::testing::Values(CandidateMode::kRingExpand,
                                         CandidateMode::kRegionLocal),
                       ::testing::Values(4, 700)));

// ------------------------------------------- candidate-pair oracle

/// The candidate search before reach boxes, kept as the reference for the
/// canonical pair order: each rider walks the rings around its pickup
/// region out to floor(reach / smallest cell side) + 2 and prices every
/// driver on them. It lists each ring itself, so it shares no code with
/// the search it checks. Its reach is (deadline - now) * SpeedMps(), wider
/// than the CrowFlySpeedMps() box the search prunes on, so a pair the
/// tighter box drops still shows up here.
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

TEST(CandidateOracleTest, PairsMatchTheBruteForceScanAndTheRingWalk) {
  // The from-scratch search and the context's list must equal, pair for
  // pair, a brute-force Def.-3 scan (as sets per rider) and the
  // pre-reach-box ring walk (bit for bit, in order) on a random batch and
  // on edge batches over a square and a non-square grid, under three
  // travel models and both candidate modes.
  const Grid square = MakeNycGrid16x16();
  const Grid wide(kNycBoundingBox, 5, 23);
  const StraightLineCostModel detour(7.0, 1.3);
  const StraightLineCostModel direct(7.0, 1.0);
  const ManhattanCostModel manhattan(7.0);
  const std::vector<const TravelCostModel*> costs = {&detour, &direct,
                                                     &manhattan};
  for (CandidateMode mode :
       {CandidateMode::kRingExpand, CandidateMode::kRegionLocal}) {
    std::vector<std::pair<std::string, std::function<
                                           std::unique_ptr<BatchContext>()>>>
        batches = {{"random", [&] {
                      return test::MakeRandomBatch(square, detour, 99, 150,
                                                   100, mode);
                    }}};
    for (const Grid* grid : {&square, &wide}) {
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
      const std::unique_ptr<BatchContext> ctx = make();
      const std::vector<CandidatePair> reference = RingWalkReference(*ctx);

      // Brute force: the reference's pairs of each rider are exactly its
      // Def.-3-valid drivers (region-local: those in its pickup region), so
      // matching the reference also matches the brute-force scan.
      std::vector<std::vector<int>> valid(ctx->riders().size());
      for (const CandidatePair& p : reference) {
        valid[static_cast<size_t>(p.rider_index)].push_back(p.driver_index);
        const WaitingRider& r =
            ctx->riders()[static_cast<size_t>(p.rider_index)];
        const AvailableDriver& d =
            ctx->drivers()[static_cast<size_t>(p.driver_index)];
        exact_deadline_pairs +=
            ctx->now() + p.pickup_seconds == r.pickup_deadline;
        zero_budget_pairs += r.pickup_deadline == ctx->now();
        off_box_pairs += !ctx->grid().box().Contains(d.location);
      }
      for (size_t ri = 0; ri < ctx->riders().size(); ++ri) {
        const WaitingRider& r = ctx->riders()[ri];
        std::vector<int> brute;
        for (size_t dj = 0; dj < ctx->drivers().size(); ++dj) {
          const bool same_region = ctx->drivers()[dj].region == r.pickup_region;
          if ((mode == CandidateMode::kRingExpand || same_region) &&
              ctx->IsValidPair(ctx->drivers()[dj], r)) {
            brute.push_back(static_cast<int>(dj));
          }
        }
        std::sort(valid[ri].begin(), valid[ri].end());
        EXPECT_EQ(valid[ri], brute) << label << " rider " << ri;
      }

      ExpectSamePairs(GenerateValidPairs(*ctx), reference, label);
      ExpectSamePairs(ctx->ValidPairs(), reference, label + " ValidPairs");
    }
    // The edge batches really reach the edges they are built for.
    EXPECT_GT(exact_deadline_pairs, 0);
    EXPECT_GT(zero_budget_pairs, 0);
    EXPECT_GT(off_box_pairs, 0);
  }
}

// ---------------------------------------------------------------- scoring

TEST_F(DispatchTest, IdleRatioDecreasesWithTripLength) {
  LatLon origin{40.70, -74.00};
  WaitingRider short_trip = MakeRider(0, origin, LatLon{40.705, -73.995});
  WaitingRider long_trip = MakeRider(1, origin, LatLon{40.706, -73.994});
  // Same destination region; force the same ET by aligning dropoff regions.
  ASSERT_EQ(short_trip.dropoff_region, long_trip.dropoff_region);
  long_trip.trip_seconds = short_trip.trip_seconds * 10;
  ctx_.AddRider(short_trip);
  ctx_.AddRider(long_trip);
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots();

  double ir_short =
      ScorePair(ctx_, ctx_.riders()[0], GreedyObjective::kIdleRatio, 0);
  double ir_long =
      ScorePair(ctx_, ctx_.riders()[1], GreedyObjective::kIdleRatio, 0);
  EXPECT_LT(ir_long, ir_short);
}

TEST_F(DispatchTest, IdleRatioFavorsHotDestinations) {
  LatLon origin{40.70, -74.00};
  LatLon hot_dest{40.88, -73.80};   // region we mark as high-demand
  LatLon cold_dest{40.88, -74.00};  // symmetric distance, no demand
  WaitingRider to_hot = MakeRider(0, origin, hot_dest);
  WaitingRider to_cold = MakeRider(1, origin, cold_dest);
  ctx_.AddRider(to_hot);
  ctx_.AddRider(to_cold);
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots({{to_hot.dropoff_region, 200.0}});

  double ir_hot =
      ScorePair(ctx_, ctx_.riders()[0], GreedyObjective::kIdleRatio, 0);
  double ir_cold =
      ScorePair(ctx_, ctx_.riders()[1], GreedyObjective::kIdleRatio, 0);
  EXPECT_LT(ir_hot, ir_cold);
}

TEST_F(DispatchTest, ExtraDriversRaiseExpectedIdleWhenCongested) {
  // In the congested regime (few predicted riders), each extra rejoining
  // driver lengthens the queue a new driver joins behind, so ET rises.
  // (In the heavily rider-surplus regime the paper's reneging coupling
  // π(n) = e^{βn}/μ can make ET locally non-monotone in μ; see
  // queueing_test's monotonicity cases for the standard regimes.)
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.88, -73.80}));
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots({{ctx_.riders()[0].dropoff_region, 2.0}});
  RegionId dest = ctx_.riders()[0].dropoff_region;
  double et2 = ctx_.ExpectedIdleSeconds(dest, 2);
  double et10 = ctx_.ExpectedIdleSeconds(dest, 10);
  EXPECT_GE(et10, et2);
}

// ------------------------------------------------------------ dispatchers

TEST_F(DispatchTest, IrgPrefersHotLongTrips) {
  LatLon origin{40.70, -74.00};
  LatLon hot_dest{40.88, -73.80};
  LatLon cold_dest{40.71, -74.01};  // short hop to a cold region
  ctx_.AddRider(MakeRider(0, origin, cold_dest));
  ctx_.AddRider(MakeRider(1, origin, hot_dest));
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots({{grid_.RegionOf(hot_dest), 300.0}});

  auto irg = MakeIrgDispatcher();
  std::vector<Assignment> out;
  irg->Dispatch(ctx_, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rider_index, 1);  // the hot, long trip wins
  EXPECT_TRUE(AssignmentsValid(ctx_, out));
}

TEST_F(DispatchTest, AllDispatchersProduceValidAssignments) {
  // A denser scenario: 6 riders, 4 drivers spread over the city.
  std::vector<LatLon> pickups = {
      {40.70, -74.00}, {40.71, -73.99}, {40.80, -73.90},
      {40.81, -73.89}, {40.60, -74.02}, {40.90, -73.78}};
  for (int i = 0; i < 6; ++i) {
    ctx_.AddRider(MakeRider(i, pickups[static_cast<size_t>(i)],
                            LatLon{40.75, -73.92}, 600.0));
  }
  std::vector<LatLon> locs = {
      {40.705, -74.0}, {40.805, -73.895}, {40.61, -74.01}, {40.89, -73.79}};
  for (int j = 0; j < 4; ++j) {
    ctx_.AddDriver(MakeDriver(j, locs[static_cast<size_t>(j)]));
  }
  FinalizeSnapshots({{ctx_.riders()[0].dropoff_region, 40.0}});

  auto rand = MakeRandomDispatcher(7);
  auto near = MakeNearestDispatcher();
  auto ltg = MakeLongTripGreedyDispatcher();
  auto irg = MakeIrgDispatcher();
  auto ls = MakeLocalSearchDispatcher();
  auto shrt = MakeShortDispatcher();
  auto polar = MakePolarDispatcher();
  for (Dispatcher* d : {rand.get(), near.get(), ltg.get(), irg.get(),
                        ls.get(), shrt.get(), polar.get()}) {
    std::vector<Assignment> out;
    d->Dispatch(ctx_, &out);
    EXPECT_TRUE(AssignmentsValid(ctx_, out)) << d->name();
    // Every driver has at least one feasible rider here; greedy approaches
    // should match all 4 drivers.
    if (d->name() != "RAND") {
      EXPECT_EQ(out.size(), 4u) << d->name();
    } else {
      EXPECT_GE(out.size(), 3u) << d->name();
    }
  }
}

TEST_F(DispatchTest, NearestPicksClosestDriver) {
  LatLon rider_p{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, rider_p, LatLon{40.75, -73.95}, 500.0));
  ctx_.AddDriver(MakeDriver(0, LatLon{40.72, -74.00}));  // farther
  ctx_.AddDriver(MakeDriver(1, LatLon{40.701, -74.00}));  // closest
  FinalizeSnapshots();
  auto near = MakeNearestDispatcher();
  std::vector<Assignment> out;
  near->Dispatch(ctx_, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].driver_index, 1);
}

TEST_F(DispatchTest, LtgPicksHighestRevenue) {
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.705, -74.00}));   // short
  ctx_.AddRider(MakeRider(1, origin, LatLon{40.90, -73.78}));    // long
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots();
  auto ltg = MakeLongTripGreedyDispatcher();
  std::vector<Assignment> out;
  ltg->Dispatch(ctx_, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rider_index, 1);
}

TEST_F(DispatchTest, UpperAssignsTopRevenueRiders) {
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.705, -74.00}));
  ctx_.AddRider(MakeRider(1, origin, LatLon{40.90, -73.78}));
  ctx_.AddRider(MakeRider(2, origin, LatLon{40.80, -73.90}));
  ctx_.AddDriver(MakeDriver(0, LatLon{40.60, -74.02}));
  ctx_.AddDriver(MakeDriver(1, LatLon{40.61, -74.02}));
  FinalizeSnapshots();
  auto upper = MakeUpperBoundDispatcher();
  std::vector<Assignment> out;
  upper->Dispatch(ctx_, &out);
  ASSERT_EQ(out.size(), 2u);  // min(3 riders, 2 drivers)
  // The two most expensive riders (1 then 2) are selected.
  EXPECT_EQ(out[0].rider_index, 1);
  EXPECT_EQ(out[1].rider_index, 2);
}

TEST_F(DispatchTest, LocalSearchNeverWorseThanIrgObjective) {
  // Compare the summed idle ratios of LS vs IRG on a contended scenario.
  std::vector<LatLon> pickups = {
      {40.70, -74.00}, {40.703, -74.002}, {40.706, -73.998}};
  std::vector<LatLon> dests = {
      {40.88, -73.80}, {40.62, -74.01}, {40.75, -73.92}};
  for (int i = 0; i < 3; ++i) {
    ctx_.AddRider(MakeRider(i, pickups[static_cast<size_t>(i)],
                            dests[static_cast<size_t>(i)], 400.0));
  }
  ctx_.AddDriver(MakeDriver(0, LatLon{40.701, -74.0}));
  ctx_.AddDriver(MakeDriver(1, LatLon{40.704, -74.0}));
  FinalizeSnapshots({{grid_.RegionOf(dests[0]), 100.0}});

  auto score_sum = [&](const std::vector<Assignment>& as) {
    double s = 0;
    for (const auto& a : as) {
      s += ScorePair(ctx_, ctx_.riders()[static_cast<size_t>(a.rider_index)],
                     GreedyObjective::kIdleRatio, 0);
    }
    return s;
  };

  auto irg = MakeIrgDispatcher();
  auto ls = MakeLocalSearchDispatcher();
  std::vector<Assignment> irg_out, ls_out;
  irg->Dispatch(ctx_, &irg_out);
  ls->Dispatch(ctx_, &ls_out);
  EXPECT_TRUE(AssignmentsValid(ctx_, ls_out));
  EXPECT_EQ(ls_out.size(), irg_out.size());
  EXPECT_LE(score_sum(ls_out), score_sum(irg_out) + 1e-9);
}

TEST_F(DispatchTest, EmptyBatchYieldsNoAssignments) {
  FinalizeSnapshots();
  std::vector<std::unique_ptr<Dispatcher>> dispatchers;
  dispatchers.push_back(MakeIrgDispatcher());
  dispatchers.push_back(MakeLocalSearchDispatcher());
  dispatchers.push_back(MakeShortDispatcher());
  dispatchers.push_back(MakePolarDispatcher());
  dispatchers.push_back(MakeNearestDispatcher());
  dispatchers.push_back(MakeUpperBoundDispatcher());
  for (auto& d : dispatchers) {
    std::vector<Assignment> out;
    d->Dispatch(ctx_, &out);
    EXPECT_TRUE(out.empty()) << d->name();
  }
}

}  // namespace
}  // namespace mrvd
