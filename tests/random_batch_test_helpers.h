// A randomized hand-assembled batch, shared by the suites that check
// dispatch results against a reference on it (dispatch, local search).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "sim/batch.h"
#include "util/rng.h"

namespace mrvd::test {

/// `num_riders` riders and `num_drivers` drivers uniform over the NYC box at
/// now = 3600 s, riders' deadlines 1-10 minutes out, with snapshots counted
/// from them plus random predicted riders and rejoiners. The same seed
/// always gives the same batch.
inline std::unique_ptr<BatchContext> MakeRandomBatch(
    const Grid& grid, const TravelCostModel& cost, uint64_t seed,
    int num_riders, int num_drivers,
    CandidateMode mode = CandidateMode::kRingExpand) {
  auto ctx = std::make_unique<BatchContext>(
      /*now=*/3600.0, /*window=*/1200.0, /*beta=*/0.02, grid, cost, mode);
  Rng rng(seed);
  auto random_point = [&] {
    return LatLon{rng.Uniform(kNycBoundingBox.lat_min, kNycBoundingBox.lat_max),
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
    r.trip_seconds = cost.TravelSeconds(r.pickup, r.dropoff);
    r.revenue = r.trip_seconds;
    r.pickup_region = grid.RegionOf(r.pickup);
    r.dropoff_region = grid.RegionOf(r.dropoff);
    ctx->AddRider(r);
  }
  for (int j = 0; j < num_drivers; ++j) {
    AvailableDriver d;
    d.driver_id = j;
    d.location = random_point();
    d.region = grid.RegionOf(d.location);
    d.available_since = 3600.0 - rng.Uniform(0.0, 300.0);
    ctx->AddDriver(d);
  }
  std::vector<RegionSnapshot> snaps(static_cast<size_t>(grid.num_regions()));
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

}  // namespace mrvd::test
