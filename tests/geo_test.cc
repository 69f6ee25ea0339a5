#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/travel.h"
#include "util/rng.h"

namespace mrvd {
namespace {

// ------------------------------------------------------------- distances

TEST(DistanceTest, HaversineKnownValue) {
  // Times Square to JFK is roughly 21 km great-circle.
  LatLon times_square{40.7580, -73.9855};
  LatLon jfk{40.6413, -73.7781};
  double d = HaversineMeters(times_square, jfk);
  EXPECT_NEAR(d, 21500.0, 800.0);
}

TEST(DistanceTest, ZeroForIdenticalPoints) {
  LatLon p{40.7, -74.0};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
  EXPECT_DOUBLE_EQ(EquirectangularMeters(p, p), 0.0);
}

TEST(DistanceTest, EquirectangularCloseToHaversineAtCityScale) {
  LatLon a{40.60, -74.00};
  LatLon b{40.90, -73.80};
  double h = HaversineMeters(a, b);
  double e = EquirectangularMeters(a, b);
  EXPECT_NEAR(e / h, 1.0, 0.002);
}

TEST(DistanceTest, Symmetry) {
  LatLon a{40.61, -73.99}, b{40.85, -73.81};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
  EXPECT_DOUBLE_EQ(EquirectangularMeters(a, b), EquirectangularMeters(b, a));
}

/// Random point pairs for the distance properties: pairs in the NYC box and
/// near (0°, 0°), where coordinates are tiny and rounding is relatively
/// coarse; pairs sharing a latitude or a longitude; pairs a few metres
/// apart; and pairs with ends off the NYC box (up to a degree out).
std::vector<std::pair<LatLon, LatLon>> RandomPointPairs(uint64_t seed) {
  Rng rng(seed);
  const BoundingBox near_origin{-0.01, 0.01, -0.01, 0.01};
  auto in = [&](const BoundingBox& box) {
    return LatLon{rng.Uniform(box.lat_min, box.lat_max),
                  rng.Uniform(box.lon_min, box.lon_max)};
  };
  const BoundingBox off_nyc{
      kNycBoundingBox.lon_min - 1.0, kNycBoundingBox.lon_max + 1.0,
      kNycBoundingBox.lat_min - 1.0, kNycBoundingBox.lat_max + 1.0};
  std::vector<std::pair<LatLon, LatLon>> pairs;
  for (int i = 0; i < 1000; ++i) {
    for (const BoundingBox* box : {&kNycBoundingBox, &near_origin}) {
      LatLon a = in(*box);
      LatLon b = in(*box);
      pairs.push_back({a, b});
      pairs.push_back({a, LatLon{a.lat, b.lon}});
      pairs.push_back({a, LatLon{b.lat, a.lon}});
      pairs.push_back({a, LatLon{a.lat + rng.Uniform(-1e-4, 1e-4),
                                 a.lon + rng.Uniform(-1e-4, 1e-4)}});
      pairs.push_back({a, in(off_nyc)});
    }
    pairs.push_back({in(off_nyc), in(off_nyc)});
  }
  return pairs;
}

TEST(DistanceTest, ReachBoxHoldsEveryPointWithinTheRadius) {
  // A box whose radius is exactly a pair's distance must hold the far end:
  // the tightest case, with the far end on the box's boundary.
  for (const auto& [a, b] : RandomPointPairs(17)) {
    const double d = EquirectangularMeters(a, b);
    EXPECT_TRUE(EquirectangularReachBox(a, d).Contains(b)) << a << " " << b;
    EXPECT_TRUE(EquirectangularReachBox(b, d).Contains(a)) << a << " " << b;
  }
}

TEST(DistanceTest, ReachBoxIsTight) {
  const LatLon c{40.75, -73.9};
  const BoundingBox box = EquirectangularReachBox(c, 1000.0);
  const double half_lat_deg = 1000.0 / kEarthRadiusMeters * 180.0 / M_PI;
  EXPECT_NEAR(box.lat_max - c.lat, half_lat_deg, 2e-9 * half_lat_deg);
  EXPECT_NEAR(c.lat - box.lat_min, half_lat_deg, 2e-9 * half_lat_deg);
  // Longitude is stretched by 1 / cos(latitude), no more than that.
  const double stretched = half_lat_deg / std::cos(c.lat * M_PI / 180.0);
  EXPECT_GT(c.lon - box.lon_min, stretched);
  EXPECT_LT(c.lon - box.lon_min, 1.001 * stretched);
  EXPECT_TRUE(EquirectangularReachBox(c, 0.0).Contains(c));
}

TEST(DistanceTest, ReachBoxDegenerateRadii) {
  const LatLon c{40.75, -73.9};
  const double inf = std::numeric_limits<double>::infinity();
  const BoundingBox all = EquirectangularReachBox(c, inf);
  EXPECT_TRUE(all.Contains({-89.0, 179.0}));
  EXPECT_TRUE(all.Contains({89.0, -179.0}));
  EXPECT_FALSE(EquirectangularReachBox(c, std::nan("")).Contains(c));
  // Near a pole the longitude bound is dropped.
  const BoundingBox polar = EquirectangularReachBox({88.95, 0.0}, 20000.0);
  EXPECT_TRUE(polar.Contains({88.95, 179.0}));
  EXPECT_FALSE(polar.Contains({86.0, 0.0}));
}

// ---------------------------------------------------------- bounding box

TEST(BoundingBoxTest, ContainsAndClamp) {
  EXPECT_TRUE(kNycBoundingBox.Contains({40.7, -73.9}));
  EXPECT_FALSE(kNycBoundingBox.Contains({41.5, -73.9}));
  LatLon clamped = kNycBoundingBox.Clamp({41.5, -75.0});
  EXPECT_TRUE(kNycBoundingBox.Contains(clamped));
  EXPECT_DOUBLE_EQ(clamped.lat, 40.92);
  EXPECT_DOUBLE_EQ(clamped.lon, -74.03);
}

// ------------------------------------------------------------------ grid

TEST(GridTest, NycGridHas256Regions) {
  Grid g = MakeNycGrid16x16();
  EXPECT_EQ(g.num_regions(), 256);
  EXPECT_EQ(g.rows(), 16);
  EXPECT_EQ(g.cols(), 16);
}

TEST(GridTest, RegionOfCornerPoints) {
  Grid g(kNycBoundingBox, 16, 16);
  EXPECT_EQ(g.RegionOf({40.58, -74.03}), 0);           // SW corner
  EXPECT_EQ(g.RegionOf({40.9199, -73.7701}), 255);     // NE corner
}

TEST(GridTest, OutOfBoxPointsClampToBorderCells) {
  Grid g(kNycBoundingBox, 16, 16);
  EXPECT_EQ(g.RegionOf({39.0, -75.0}), 0);
  EXPECT_EQ(g.RegionOf({42.0, -73.0}), 255);
}

TEST(GridTest, CenterRoundTrips) {
  Grid g(kNycBoundingBox, 16, 16);
  for (RegionId r = 0; r < g.num_regions(); ++r) {
    EXPECT_EQ(g.RegionOf(g.CenterOf(r)), r);
  }
}

TEST(GridTest, RowColRoundTrip) {
  Grid g(kNycBoundingBox, 16, 16);
  for (RegionId r = 0; r < g.num_regions(); ++r) {
    EXPECT_EQ(g.RegionAt(g.RowOf(r), g.ColOf(r)), r);
  }
}

TEST(GridTest, NeighborsInterior) {
  Grid g(kNycBoundingBox, 16, 16);
  RegionId center = g.RegionAt(8, 8);
  EXPECT_EQ(g.Neighbors(center).size(), 8u);
}

TEST(GridTest, NeighborsCornerHasThree) {
  Grid g(kNycBoundingBox, 16, 16);
  EXPECT_EQ(g.Neighbors(0).size(), 3u);
}

TEST(GridTest, RingZeroIsSelf) {
  Grid g(kNycBoundingBox, 16, 16);
  auto ring0 = g.Ring(37, 0);
  ASSERT_EQ(ring0.size(), 1u);
  EXPECT_EQ(ring0[0], 37);
}

TEST(GridTest, RingsPartitionTheGrid) {
  Grid g(kNycBoundingBox, 8, 8);
  RegionId from = g.RegionAt(3, 4);
  std::vector<char> seen(static_cast<size_t>(g.num_regions()), false);
  int total = 0;
  for (int ring = 0; ring < 8; ++ring) {
    for (RegionId r : g.Ring(from, ring)) {
      EXPECT_FALSE(seen[static_cast<size_t>(r)]) << "duplicate region " << r;
      EXPECT_EQ(g.RingDistance(from, r), ring);
      seen[static_cast<size_t>(r)] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, g.num_regions());
}

TEST(GridTest, RingOrderIsPinned) {
  // Top and bottom edges column by column, then the sides row by row.
  Grid g(kNycBoundingBox, 4, 4);
  std::vector<RegionId> expected = {
      g.RegionAt(0, 0), g.RegionAt(2, 0), g.RegionAt(0, 1), g.RegionAt(2, 1),
      g.RegionAt(0, 2), g.RegionAt(2, 2), g.RegionAt(1, 0), g.RegionAt(1, 2)};
  EXPECT_EQ(g.Ring(g.RegionAt(1, 1), 1), expected);
}

TEST(GridTest, ClippedRingWalkFiltersRingInOrder) {
  Grid g(kNycBoundingBox, 7, 11);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    int r0 = static_cast<int>(rng.UniformInt(0, 6));
    int r1 = static_cast<int>(rng.UniformInt(0, 6));
    int c0 = static_cast<int>(rng.UniformInt(0, 10));
    int c1 = static_cast<int>(rng.UniformInt(0, 10));
    CellSpan span{std::min(r0, r1), std::max(r0, r1), std::min(c0, c1),
                  std::max(c0, c1)};
    auto center = static_cast<RegionId>(rng.UniformInt(0, 76));
    for (int ring = 0; ring <= 11; ++ring) {
      std::vector<RegionId> expected;
      for (RegionId r : g.Ring(center, ring)) {
        if (span.Contains(g.RowOf(r), g.ColOf(r))) expected.push_back(r);
      }
      std::vector<RegionId> walked;
      g.ForEachRingCell(center, ring, span,
                        [&walked](RegionId r) { walked.push_back(r); });
      EXPECT_EQ(walked, expected) << "center " << center << " ring " << ring;
    }
  }
}

TEST(GridTest, SpanOfCoversRegionOfEveryPointInTheBox) {
  Grid g(kNycBoundingBox, 5, 23);
  const double cell_h = kNycBoundingBox.HeightDegrees() / 5;
  const double cell_w = kNycBoundingBox.WidthDegrees() / 23;
  Rng rng(9);
  auto coord = [&](double lo, double cell, int n) {
    // Half the draws land exactly on a cell boundary (as CellBox computes
    // it), some of them past the grid's edge.
    if (rng.Bernoulli(0.5)) {
      return lo + static_cast<double>(rng.UniformInt(-2, n + 2)) * cell;
    }
    return rng.Uniform(lo - 2 * cell, lo + (n + 2) * cell);
  };
  for (int trial = 0; trial < 2000; ++trial) {
    double lat_a = coord(kNycBoundingBox.lat_min, cell_h, 5);
    double lat_b = coord(kNycBoundingBox.lat_min, cell_h, 5);
    double lon_a = coord(kNycBoundingBox.lon_min, cell_w, 23);
    double lon_b = coord(kNycBoundingBox.lon_min, cell_w, 23);
    BoundingBox box{std::min(lon_a, lon_b), std::max(lon_a, lon_b),
                    std::min(lat_a, lat_b), std::max(lat_a, lat_b)};
    CellSpan span = g.SpanOf(box);
    for (LatLon p : {LatLon{box.lat_min, box.lon_min},
                     LatLon{box.lat_max, box.lon_max},
                     LatLon{box.lat_min, box.lon_max},
                     LatLon{rng.Uniform(box.lat_min, box.lat_max),
                            rng.Uniform(box.lon_min, box.lon_max)}}) {
      RegionId r = g.RegionOf(p);
      EXPECT_TRUE(span.Contains(g.RowOf(r), g.ColOf(r))) << p;
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  CellSpan all = g.SpanOf({-inf, inf, -inf, inf});
  EXPECT_EQ(all.row_lo, 0);
  EXPECT_EQ(all.row_hi, 4);
  EXPECT_EQ(all.col_lo, 0);
  EXPECT_EQ(all.col_hi, 22);
  const double nan = std::nan("");
  CellSpan none = g.SpanOf({nan, nan, nan, nan});  // clamped, no overflow
  EXPECT_TRUE(none.Contains(none.row_lo, none.col_lo));
}

TEST(GridTest, CellBoxContainsCenter) {
  Grid g(kNycBoundingBox, 16, 16);
  for (RegionId r : {0, 17, 255, 128}) {
    EXPECT_TRUE(g.CellBox(r).Contains(g.CenterOf(r)));
  }
}

// ---------------------------------------------------------- travel models

TEST(TravelTest, StraightLineScalesWithDetour) {
  StraightLineCostModel fast(10.0, 1.0);
  StraightLineCostModel detoured(10.0, 1.5);
  LatLon a{40.7, -74.0}, b{40.75, -73.95};
  EXPECT_NEAR(detoured.TravelSeconds(a, b) / fast.TravelSeconds(a, b), 1.5,
              1e-9);
}

TEST(TravelTest, TravelMetersConsistentWithSeconds) {
  StraightLineCostModel m(7.0, 1.3);
  LatLon a{40.7, -74.0}, b{40.75, -73.95};
  EXPECT_NEAR(m.TravelMeters(a, b), m.TravelSeconds(a, b) * m.SpeedMps(),
              1e-6);
}

TEST(TravelTest, ManhattanAtLeastStraightLine) {
  ManhattanCostModel manhattan(7.0);
  StraightLineCostModel straight(7.0, 1.0);
  LatLon a{40.70, -74.00}, b{40.80, -73.85};
  EXPECT_GE(manhattan.TravelSeconds(a, b),
            straight.TravelSeconds(a, b) * 0.999);
  // And at most sqrt(2) times it.
  EXPECT_LE(manhattan.TravelSeconds(a, b),
            straight.TravelSeconds(a, b) * 1.4143);
}

TEST(TravelTest, NoTripIsFasterThanTheCrowFliesAtSpeedMps) {
  // The SpeedMps contract that candidate generation prunes on.
  StraightLineCostModel direct(7.0, 1.0);
  StraightLineCostModel detoured(11.0, 1.3);
  ManhattanCostModel manhattan(7.0);
  const std::vector<const TravelCostModel*> models = {&direct, &detoured,
                                                      &manhattan};
  for (const TravelCostModel* m : models) {
    for (const auto& [a, b] : RandomPointPairs(23)) {
      EXPECT_GE(m->TravelSeconds(a, b),
                EquirectangularMeters(a, b) / m->SpeedMps())
          << a << " " << b;
    }
  }
}

TEST(TravelTest, ZeroDistanceZeroTime) {
  StraightLineCostModel m(7.0, 1.3);
  LatLon p{40.7, -74.0};
  EXPECT_DOUBLE_EQ(m.TravelSeconds(p, p), 0.0);
}

}  // namespace
}  // namespace mrvd
