// Unit tests for the staged engine's building blocks: the incremental
// region counters of FleetState/OrderBook and FleetState's
// dispatchable-driver set must track the brute-force recounts the
// monolithic engine used to perform every batch, the BatchBuilder's build
// with a parallel execution attached must equal the serial build, the one
// context the engine refills in place must equal a freshly built context
// on every batch, and the SimObserver hooks must fire consistently with
// the aggregates the MetricsCollector reports.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/dispatchers.h"
#include "geo/region_partitioner.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "prediction/predictor.h"
#include "sim/assignment_applier.h"
#include "sim/batch_builder.h"
#include "sim/engine.h"
#include "sim/fleet_state.h"
#include "sim/order_book.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ------------------------------------------------------------ FleetState

class FleetStateTest : public ::testing::Test {
 protected:
  FleetStateTest() : grid_(kNycBoundingBox, 4, 4) {
    // Ten drivers spread over the bounding box.
    for (int j = 0; j < 10; ++j) {
      double frac = static_cast<double>(j) / 10.0;
      LatLon at{kNycBoundingBox.lat_min +
                    frac * (kNycBoundingBox.lat_max - kNycBoundingBox.lat_min),
                kNycBoundingBox.lon_min +
                    frac * (kNycBoundingBox.lon_max - kNycBoundingBox.lon_min)};
      workload_.drivers.push_back({j, at, 0.0});
    }
  }

  LatLon PointAt(double lat_frac, double lon_frac) const {
    return {kNycBoundingBox.lat_min +
                lat_frac * (kNycBoundingBox.lat_max - kNycBoundingBox.lat_min),
            kNycBoundingBox.lon_min +
                lon_frac * (kNycBoundingBox.lon_max - kNycBoundingBox.lon_min)};
  }

  /// The kept dispatchable set must yield exactly {j : Dispatchable()},
  /// in ascending index order.
  static void ExpectDispatchableMatchesScan(const FleetState& fleet,
                                            const std::string& after) {
    std::vector<int> walked, scanned;
    fleet.ForEachDispatchable([&](int j) { walked.push_back(j); });
    for (int j = 0; j < fleet.size(); ++j) {
      if (fleet.driver(j).Dispatchable()) scanned.push_back(j);
    }
    EXPECT_EQ(walked, scanned) << "after " << after;
  }

  /// Brute-force recount of both supply counters, exactly as the
  /// monolithic engine recomputed them per batch — extended with the
  /// scenario shift semantics: signed-off drivers are out of the supply,
  /// and a pending sign-off will not rejoin its dropoff region. The kept
  /// dispatchable set is checked too.
  void ExpectCountersMatchRecount(const FleetState& fleet, double now,
                                  double window) {
    ExpectDispatchableMatchesScan(fleet, "now=" + std::to_string(now));

    std::vector<int64_t> available(static_cast<size_t>(grid_.num_regions()),
                                   0);
    std::vector<int32_t> rejoining(static_cast<size_t>(grid_.num_regions()),
                                   0);
    int64_t available_total = 0;
    for (const DriverState& d : fleet.drivers()) {
      if (d.signed_off) continue;
      if (!d.busy) {
        ++available[static_cast<size_t>(d.region)];
        ++available_total;
      } else if (!d.sign_off_pending && d.busy_until > now &&
                 d.busy_until <= now + window) {
        ++rejoining[static_cast<size_t>(d.busy_dest_region)];
      }
    }
    EXPECT_EQ(fleet.available_count(), available_total) << "now=" << now;
    for (int k = 0; k < grid_.num_regions(); ++k) {
      EXPECT_EQ(fleet.available_by_region()[static_cast<size_t>(k)],
                available[static_cast<size_t>(k)])
          << "region " << k << " now=" << now;
      EXPECT_EQ(fleet.rejoining_in_window()[static_cast<size_t>(k)],
                rejoining[static_cast<size_t>(k)])
          << "region " << k << " now=" << now;
    }
  }

  Grid grid_;
  Workload workload_;
};

TEST_F(FleetStateTest, IncrementalCountersMatchRecountAcrossLifecycle) {
  const double window = 1200.0;
  FleetState fleet(workload_, grid_);
  ExpectCountersMatchRecount(fleet, 0.0, window);

  // Three trips: one short, one ending inside the first window, one so long
  // it only enters the window after several batches.
  LatLon dest_a = PointAt(0.1, 0.9), dest_b = PointAt(0.9, 0.1),
         dest_c = PointAt(0.5, 0.5);
  fleet.MarkBusy(2, /*busy_until=*/100.0, dest_a, grid_.RegionOf(dest_a));
  ExpectDispatchableMatchesScan(fleet, "MarkBusy(2)");
  fleet.MarkBusy(5, /*busy_until=*/900.0, dest_b, grid_.RegionOf(dest_b));
  fleet.MarkBusy(7, /*busy_until=*/1500.0, dest_c, grid_.RegionOf(dest_c));
  ExpectDispatchableMatchesScan(fleet, "MarkBusy(5), MarkBusy(7)");

  bool reassigned = false;
  for (double now = 30.0; now <= 2400.0; now += 30.0) {
    fleet.ReleaseFinished(now);
    fleet.AdvanceRejoinWindow(now, window);
    ExpectCountersMatchRecount(fleet, now, window);
    if (!reassigned && now >= 150.0) {
      // Driver 2 is free again: send it out on a second, long trip that is
      // beyond the current window and enters it later.
      ASSERT_FALSE(fleet.driver(2).busy);
      fleet.MarkBusy(2, now + window + 600.0, dest_b, grid_.RegionOf(dest_b));
      reassigned = true;
      ExpectCountersMatchRecount(fleet, now, window);
    }
  }
  // Everything completed: the fleet is fully available again.
  EXPECT_EQ(fleet.available_count(), 10);
  EXPECT_FALSE(fleet.HasBusyDrivers());
}

TEST_F(FleetStateTest, SignOnSignOffLifecycleKeepsIncrementalCounters) {
  const double window = 600.0;
  FleetState fleet(workload_, grid_);
  fleet.AdvanceRejoinWindow(0.0, window);
  ExpectCountersMatchRecount(fleet, 0.0, window);

  // Idle sign-off leaves the supply immediately; a second sign-off and a
  // sign-on of an on-duty driver are no-ops.
  EXPECT_TRUE(fleet.SignOff(1));
  ExpectCountersMatchRecount(fleet, 0.0, window);
  EXPECT_FALSE(fleet.SignOff(1));
  EXPECT_FALSE(fleet.SignOn(4, 0.0));
  EXPECT_TRUE(fleet.driver(1).signed_off);
  EXPECT_EQ(fleet.available_count(), 9);
  ExpectCountersMatchRecount(fleet, 0.0, window);

  // Busy sign-off: driver 3 departs on a trip ending inside the rejoin
  // window, so it is counted as predicted supply — until the sign-off
  // removes it (the driver will not rejoin).
  LatLon dest = PointAt(0.8, 0.2);
  fleet.MarkBusy(3, /*busy_until=*/300.0, dest, grid_.RegionOf(dest));
  ExpectDispatchableMatchesScan(fleet, "MarkBusy(3)");
  fleet.AdvanceRejoinWindow(30.0, window);
  EXPECT_EQ(
      fleet.rejoining_in_window()[static_cast<size_t>(grid_.RegionOf(dest))],
      1);
  EXPECT_TRUE(fleet.SignOff(3));
  EXPECT_TRUE(fleet.driver(3).sign_off_pending);
  ExpectCountersMatchRecount(fleet, 30.0, window);

  // The trip completes: the driver leaves instead of rejoining.
  fleet.ReleaseFinished(330.0);
  fleet.AdvanceRejoinWindow(330.0, window);
  EXPECT_TRUE(fleet.driver(3).signed_off);
  EXPECT_FALSE(fleet.driver(3).busy);
  EXPECT_EQ(fleet.available_count(), 8);
  ExpectCountersMatchRecount(fleet, 330.0, window);

  // Sign-ons re-enter incrementally at the driver's current location and
  // queue a fresh idle-time estimate; driver 3 rejoins where it dropped
  // off.
  fleet.CaptureIdleEstimates(nullptr);
  EXPECT_TRUE(fleet.SignOn(1, 400.0));
  ExpectDispatchableMatchesScan(fleet, "SignOn(1)");
  EXPECT_TRUE(fleet.SignOn(3, 420.0));
  EXPECT_EQ(fleet.driver(3).region, grid_.RegionOf(dest));
  EXPECT_EQ(fleet.driver(3).available_since, 420.0);
  EXPECT_EQ(fleet.available_count(), 10);
  EXPECT_TRUE(fleet.HasFreshDrivers());
  ExpectCountersMatchRecount(fleet, 420.0, window);

  // Mid-trip reversal: sign-off pending, then sign-on before completion —
  // the driver stays on duty, re-enters the window schedule, and rejoins
  // normally, without double-counting the duplicate heap entry.
  fleet.MarkBusy(6, /*busy_until=*/700.0, dest, grid_.RegionOf(dest));
  EXPECT_TRUE(fleet.SignOff(6));
  ExpectDispatchableMatchesScan(fleet, "busy SignOff(6)");
  EXPECT_TRUE(fleet.SignOn(6, 450.0));
  ExpectDispatchableMatchesScan(fleet, "mid-trip SignOn(6)");
  for (double now = 450.0; now <= 900.0; now += 30.0) {
    fleet.ReleaseFinished(now);
    fleet.AdvanceRejoinWindow(now, window);
    ExpectCountersMatchRecount(fleet, now, window);
  }
  EXPECT_FALSE(fleet.driver(6).busy);
  EXPECT_FALSE(fleet.driver(6).signed_off);
  EXPECT_EQ(fleet.available_count(), 10);
}

TEST_F(FleetStateTest, ReleaseQueuesFreshDriversForEstimateCapture) {
  FleetState fleet(workload_, grid_);
  EXPECT_TRUE(fleet.HasFreshDrivers());  // everyone joins at t = 0
  fleet.CaptureIdleEstimates(nullptr);
  EXPECT_FALSE(fleet.HasFreshDrivers());

  LatLon dest = PointAt(0.2, 0.8);
  fleet.MarkBusy(3, 50.0, dest, grid_.RegionOf(dest));
  fleet.ReleaseFinished(60.0);
  EXPECT_TRUE(fleet.HasFreshDrivers());
  EXPECT_EQ(fleet.driver(3).region, grid_.RegionOf(dest));
  EXPECT_EQ(fleet.driver(3).available_since, 50.0);
}

// ------------------------------------------------------------- OrderBook

class RenegeCounter : public SimObserver {
 public:
  void OnRiderReneged(double /*now*/, const Order& order) override {
    reneged_ids.push_back(order.id);
  }
  std::vector<OrderId> reneged_ids;
};

class OrderBookTest : public ::testing::Test {
 protected:
  OrderBookTest() : grid_(kNycBoundingBox, 4, 4), cost_(10.0, 1.0) {
    LatLon a{40.70, -74.00}, b{40.75, -73.95}, c{40.85, -73.85};
    for (int i = 0; i < 6; ++i) {
      Order o;
      o.id = i;
      o.request_time = 10.0 * i;
      o.pickup = (i % 2 == 0) ? a : c;
      o.dropoff = b;
      o.pickup_deadline = o.request_time + ((i == 1 || i == 4) ? 15.0 : 600.0);
      workload_.orders.push_back(o);
    }
  }

  void ExpectDemandMatchesRecount(const OrderBook& book) {
    std::vector<int64_t> demand(static_cast<size_t>(grid_.num_regions()), 0);
    for (const PendingRider& pr : book.waiting()) {
      if (!pr.served) ++demand[static_cast<size_t>(pr.pickup_region)];
    }
    for (int k = 0; k < grid_.num_regions(); ++k) {
      EXPECT_EQ(book.demand_by_region()[static_cast<size_t>(k)],
                demand[static_cast<size_t>(k)])
          << "region " << k;
    }
  }

  Grid grid_;
  StraightLineCostModel cost_;
  Workload workload_;
};

TEST_F(OrderBookTest, InjectRenegeServeCompactKeepsCountsAndOrder) {
  OrderBook book(workload_, grid_, cost_, /*alpha=*/2.0);
  book.InjectArrivals(25.0);  // orders 0, 1, 2
  ASSERT_EQ(book.waiting().size(), 3u);
  EXPECT_FALSE(book.Exhausted());
  ExpectDemandMatchesRecount(book);
  // Derived quantities are computed once at injection.
  const PendingRider& first = book.waiting().front();
  EXPECT_EQ(first.order.id, 0);
  EXPECT_EQ(first.trip_seconds,
            cost_.TravelSeconds(first.order.pickup, first.order.dropoff));
  EXPECT_EQ(first.revenue, 2.0 * first.trip_seconds);

  // Order 1 (deadline 25) reneges at now = 30; the observer hears it.
  RenegeCounter reneges;
  book.RemoveExpired(30.0, &reneges);
  ASSERT_EQ(reneges.reneged_ids.size(), 1u);
  EXPECT_EQ(reneges.reneged_ids[0], 1);
  ASSERT_EQ(book.waiting().size(), 2u);
  ExpectDemandMatchesRecount(book);

  book.InjectArrivals(60.0);  // orders 3..5 (order 4 not yet expired)
  ASSERT_EQ(book.waiting().size(), 5u);
  ExpectDemandMatchesRecount(book);
  EXPECT_TRUE(book.Exhausted());

  // Serve the first and third waiting riders; the pool keeps arrival order
  // after the single compaction pass.
  book.MarkServed(0);
  book.MarkServed(2);
  ExpectDemandMatchesRecount(book);
  book.CompactServed();
  ASSERT_EQ(book.waiting().size(), 3u);
  std::vector<OrderId> left;
  for (const PendingRider& pr : book.waiting()) left.push_back(pr.order.id);
  EXPECT_EQ(left, (std::vector<OrderId>{2, 4, 5}));
  ExpectDemandMatchesRecount(book);
  EXPECT_EQ(book.UnservedRemainder(), 3);
}

TEST_F(OrderBookTest, CompactionWhenEveryWaitingRiderServedInOneBatch) {
  OrderBook book(workload_, grid_, cost_, /*alpha=*/1.0);
  book.InjectArrivals(52.0);  // all six orders
  ASSERT_EQ(book.waiting().size(), 6u);
  ExpectDemandMatchesRecount(book);

  // A dispatcher clears the whole pool in a single batch.
  for (int i = 0; i < 6; ++i) book.MarkServed(i);
  ExpectDemandMatchesRecount(book);  // demand zeroed before compaction
  for (int k = 0; k < grid_.num_regions(); ++k) {
    EXPECT_EQ(book.demand_by_region()[static_cast<size_t>(k)], 0) << k;
  }
  book.CompactServed();
  EXPECT_TRUE(book.waiting().empty());
  ExpectDemandMatchesRecount(book);
  EXPECT_EQ(book.UnservedRemainder(), 0);
  EXPECT_TRUE(book.Exhausted());
}

TEST_F(OrderBookTest, ServeAndRenegeDistinctRidersInTheSameBatch) {
  OrderBook book(workload_, grid_, cost_, /*alpha=*/1.0);
  book.InjectArrivals(60.0);  // all six orders
  ASSERT_EQ(book.waiting().size(), 6u);

  // One batch at now = 60: orders 1 (deadline 25) and 4 (deadline 55)
  // renege, then distinct riders 0 and 5 are served.
  RenegeCounter reneges;
  book.RemoveExpired(60.0, &reneges);
  EXPECT_EQ(reneges.reneged_ids, (std::vector<OrderId>{1, 4}));
  ASSERT_EQ(book.waiting().size(), 4u);  // orders 0, 2, 3, 5
  ExpectDemandMatchesRecount(book);

  book.MarkServed(0);  // order 0
  book.MarkServed(3);  // order 5
  ExpectDemandMatchesRecount(book);
  book.CompactServed();
  ASSERT_EQ(book.waiting().size(), 2u);
  std::vector<OrderId> left;
  for (const PendingRider& pr : book.waiting()) left.push_back(pr.order.id);
  EXPECT_EQ(left, (std::vector<OrderId>{2, 3}));
  ExpectDemandMatchesRecount(book);
  EXPECT_EQ(book.UnservedRemainder(), 2);
}

TEST_F(OrderBookTest, CancelledRidersLeaveDemandAndSkipServedAndUnknown) {
  OrderBook book(workload_, grid_, cost_, /*alpha=*/1.0);
  book.InjectArrivals(60.0);
  ASSERT_EQ(book.waiting().size(), 6u);

  // Serve order 0, then cancel {0, 2, 5, 99}: the served rider and the
  // unknown id are skipped; 2 and 5 cancel, in pool order.
  book.MarkServed(0);
  class CancelRecorder : public SimObserver {
   public:
    void OnRiderCancelled(double /*now*/, const Order& order) override {
      ids.push_back(order.id);
    }
    std::vector<OrderId> ids;
  } cancels;
  int64_t n = book.CancelRiders({0, 2, 5, 99}, 60.0, &cancels);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(cancels.ids, (std::vector<OrderId>{2, 5}));
  ExpectDemandMatchesRecount(book);
  book.CompactServed();
  ASSERT_EQ(book.waiting().size(), 3u);  // orders 1, 3, 4
  ExpectDemandMatchesRecount(book);
}

// ----------------------------------------------------------- BatchBuilder

TEST(BatchBuilderTest, ShardParallelBuildMatchesSerialBuild) {
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 40000.0;  // enough waiting riders to fill
  gcfg.seed = 7;                  // every shard
  NycLikeGenerator gen(gcfg);
  Workload workload = gen.GenerateDay(/*day_index=*/2, /*num_drivers=*/600);
  const Grid& grid = gen.grid();
  StraightLineCostModel cost(7.0, 1.3);
  const double now = 7200.0, window = 1200.0;

  FleetState fleet(workload, grid);
  // Send a third of the fleet out on trips with completion times around the
  // window boundary, then slide the window to `now`.
  for (int j = 0; j < fleet.size(); j += 3) {
    const Order& o =
        workload.orders[static_cast<size_t>(j) % workload.orders.size()];
    double busy_until = now - 600.0 + 7.5 * static_cast<double>(j);
    fleet.MarkBusy(j, busy_until, o.dropoff, grid.RegionOf(o.dropoff));
  }
  fleet.ReleaseFinished(now);
  fleet.AdvanceRejoinWindow(now, window);

  OrderBook orders(workload, grid, cost, /*alpha=*/1.0);
  orders.InjectArrivals(now);
  ASSERT_GE(orders.waiting().size(), 512u) << "too few riders per shard";
  ASSERT_GE(fleet.drivers().size(), 512u);

  BatchBuilder serial_builder(grid, cost, nullptr, window, 0.02,
                              CandidateMode::kRingExpand, nullptr);
  auto serial_ctx = serial_builder.Build(now, orders, fleet);

  ThreadPool pool(4);
  RegionPartitioner parts = RegionPartitioner::RowBands(grid, 8);
  BatchExecution exec{&pool, &parts};
  BatchBuilder sharded_builder(grid, cost, nullptr, window, 0.02,
                               CandidateMode::kRingExpand, &exec);
  auto sharded_ctx = sharded_builder.Build(now, orders, fleet);

  // Riders: identical contents in identical (arrival) order.
  ASSERT_EQ(serial_ctx->riders().size(), sharded_ctx->riders().size());
  for (size_t i = 0; i < serial_ctx->riders().size(); ++i) {
    EXPECT_EQ(serial_ctx->riders()[i].order_id,
              sharded_ctx->riders()[i].order_id);
    EXPECT_EQ(serial_ctx->riders()[i].revenue,
              sharded_ctx->riders()[i].revenue);
    EXPECT_EQ(serial_ctx->riders()[i].pickup_region,
              sharded_ctx->riders()[i].pickup_region);
  }
  // Drivers: ascending fleet index, available only.
  ASSERT_EQ(serial_ctx->drivers().size(), sharded_ctx->drivers().size());
  for (size_t j = 0; j < serial_ctx->drivers().size(); ++j) {
    EXPECT_EQ(serial_ctx->drivers()[j].driver_id,
              sharded_ctx->drivers()[j].driver_id);
    EXPECT_EQ(serial_ctx->drivers()[j].region,
              sharded_ctx->drivers()[j].region);
    EXPECT_EQ(serial_ctx->drivers()[j].available_since,
              sharded_ctx->drivers()[j].available_since);
  }
  EXPECT_EQ(serial_ctx->drivers_by_region(),
            sharded_ctx->drivers_by_region());
  // Snapshots off the incremental counters match in every field.
  for (int k = 0; k < grid.num_regions(); ++k) {
    const RegionSnapshot& a = serial_ctx->snapshots()[static_cast<size_t>(k)];
    const RegionSnapshot& b =
        sharded_ctx->snapshots()[static_cast<size_t>(k)];
    EXPECT_EQ(a.waiting_riders, b.waiting_riders) << k;
    EXPECT_EQ(a.available_drivers, b.available_drivers) << k;
    EXPECT_EQ(a.predicted_riders, b.predicted_riders) << k;
    EXPECT_EQ(a.predicted_drivers, b.predicted_drivers) << k;
  }

  // The prebuilt shard index equals a brute-force membership scan.
  const BatchContext::ShardIndex* index = sharded_ctx->shard_index();
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->partitioner, &parts);
  for (int s = 0; s < parts.num_shards(); ++s) {
    std::vector<int> rider_scan, driver_scan;
    for (int i = 0; i < static_cast<int>(sharded_ctx->riders().size()); ++i) {
      if (parts.shard_of(
              sharded_ctx->riders()[static_cast<size_t>(i)].pickup_region) ==
          s) {
        rider_scan.push_back(i);
      }
    }
    for (int j = 0; j < static_cast<int>(sharded_ctx->drivers().size());
         ++j) {
      if (parts.shard_of(
              sharded_ctx->drivers()[static_cast<size_t>(j)].region) == s) {
        driver_scan.push_back(j);
      }
    }
    EXPECT_EQ(index->riders[static_cast<size_t>(s)], rider_scan) << s;
    EXPECT_EQ(index->drivers[static_cast<size_t>(s)], driver_scan) << s;
  }

  // Snapshot counters also equal the monolith's per-batch entity recount.
  std::vector<int64_t> waiting_recount(
      static_cast<size_t>(grid.num_regions()), 0);
  std::vector<int64_t> available_recount(
      static_cast<size_t>(grid.num_regions()), 0);
  for (const auto& r : serial_ctx->riders()) {
    ++waiting_recount[static_cast<size_t>(r.pickup_region)];
  }
  for (const auto& d : serial_ctx->drivers()) {
    ++available_recount[static_cast<size_t>(d.region)];
  }
  for (int k = 0; k < grid.num_regions(); ++k) {
    EXPECT_EQ(serial_ctx->snapshots()[static_cast<size_t>(k)].waiting_riders,
              waiting_recount[static_cast<size_t>(k)])
        << k;
    EXPECT_EQ(
        serial_ctx->snapshots()[static_cast<size_t>(k)].available_drivers,
        available_recount[static_cast<size_t>(k)])
        << k;
  }
}

// ------------------------------------------------ in-place context reuse

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Every field a dispatcher can read, bit for bit.
void ExpectSameContext(const BatchContext& got, const BatchContext& want,
                       int batch) {
  EXPECT_TRUE(SameBits(got.now(), want.now())) << "batch " << batch;
  ASSERT_EQ(got.riders().size(), want.riders().size()) << "batch " << batch;
  for (size_t i = 0; i < want.riders().size(); ++i) {
    const WaitingRider& a = got.riders()[i];
    const WaitingRider& b = want.riders()[i];
    const bool same =
        a.order_id == b.order_id && SameBits(a.pickup.lat, b.pickup.lat) &&
        SameBits(a.pickup.lon, b.pickup.lon) &&
        SameBits(a.dropoff.lat, b.dropoff.lat) &&
        SameBits(a.dropoff.lon, b.dropoff.lon) &&
        SameBits(a.request_time, b.request_time) &&
        SameBits(a.pickup_deadline, b.pickup_deadline) &&
        SameBits(a.revenue, b.revenue) &&
        SameBits(a.trip_seconds, b.trip_seconds) &&
        a.pickup_region == b.pickup_region &&
        a.dropoff_region == b.dropoff_region;
    EXPECT_TRUE(same) << "batch " << batch << " rider " << i;
  }
  ASSERT_EQ(got.drivers().size(), want.drivers().size()) << "batch " << batch;
  for (size_t j = 0; j < want.drivers().size(); ++j) {
    const AvailableDriver& a = got.drivers()[j];
    const AvailableDriver& b = want.drivers()[j];
    const bool same = a.driver_id == b.driver_id &&
                      SameBits(a.location.lat, b.location.lat) &&
                      SameBits(a.location.lon, b.location.lon) &&
                      a.region == b.region &&
                      SameBits(a.available_since, b.available_since);
    EXPECT_TRUE(same) << "batch " << batch << " driver " << j;
  }
  EXPECT_EQ(got.drivers_by_region(), want.drivers_by_region())
      << "batch " << batch;
  ASSERT_EQ(got.snapshots().size(), want.snapshots().size());
  for (size_t k = 0; k < want.snapshots().size(); ++k) {
    const RegionSnapshot& a = got.snapshots()[k];
    const RegionSnapshot& b = want.snapshots()[k];
    EXPECT_TRUE(a.waiting_riders == b.waiting_riders &&
                a.available_drivers == b.available_drivers &&
                SameBits(a.predicted_riders, b.predicted_riders) &&
                SameBits(a.predicted_drivers, b.predicted_drivers))
        << "batch " << batch << " region " << k;
  }
  const BatchContext::ShardIndex* gi = got.shard_index();
  const BatchContext::ShardIndex* wi = want.shard_index();
  ASSERT_NE(gi, nullptr) << "batch " << batch;
  ASSERT_NE(wi, nullptr) << "batch " << batch;
  EXPECT_EQ(gi->partitioner, wi->partitioner);
  EXPECT_EQ(gi->riders, wi->riders) << "batch " << batch;
  EXPECT_EQ(gi->drivers, wi->drivers) << "batch " << batch;
}

TEST(BatchContextReuseTest, RefilledContextEqualsAFreshBuildEveryBatch) {
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 30000.0;
  gcfg.seed = 20190417;
  NycLikeGenerator gen(gcfg);
  Workload workload = gen.GenerateDay(/*day_index=*/1, /*num_drivers=*/400);
  const Grid& grid = gen.grid();
  StraightLineCostModel cost(7.0, 1.3);
  const double window = 1200.0, beta = 0.02, delta = 30.0;
  const DemandHistory history = gen.GenerateHistory(2, 48);
  auto oracle = MakeOraclePredictor();
  StatusOr<DemandForecast> forecast =
      DemandForecast::Build(*oracle, history, /*eval_day=*/1);
  ASSERT_TRUE(forecast.ok()) << forecast.status();

  ThreadPool pool(2);
  RegionPartitioner parts = RegionPartitioner::RowBands(grid, 4);
  BatchExecution exec{&pool, &parts};
  BatchBuilder builder(grid, cost, &*forecast, window, beta,
                       CandidateMode::kRingExpand, &exec);
  BatchBuilder fresh_builder(grid, cost, &*forecast, window, beta,
                             CandidateMode::kRingExpand, &exec);
  std::unique_ptr<BatchContext> ctx = builder.NewContext();

  FleetState fleet(workload, grid);
  OrderBook orders(workload, grid, cost, /*alpha=*/1.0);
  AssignmentApplier applier("LS", /*zero_pickup_travel=*/false);
  auto ls = MakeLocalSearchDispatcher();
  const std::vector<double> surge(static_cast<size_t>(grid.num_regions()),
                                  1.5);

  constexpr int kBatches = 60;
  int64_t assigned = 0;
  double now = 7 * 3600.0;
  for (int b = 0; b < kBatches; ++b, now += delta) {
    fleet.ReleaseFinished(now);
    orders.InjectArrivals(now);
    orders.RemoveExpired(now, nullptr);
    fleet.AdvanceRejoinWindow(now, window);
    const std::vector<double>* multipliers = b % 3 == 2 ? &surge : nullptr;
    builder.Fill(now, orders, fleet, multipliers, ctx.get());
    std::unique_ptr<BatchContext> fresh =
        fresh_builder.Build(now, orders, fleet, multipliers);
    ExpectSameContext(*ctx, *fresh, b);

    // The drivers are the dispatchable ones, in ascending fleet index.
    std::vector<int> scanned;
    for (int j = 0; j < fleet.size(); ++j) {
      if (fleet.driver(j).Dispatchable()) scanned.push_back(j);
    }
    ASSERT_EQ(ctx->drivers().size(), scanned.size());
    for (size_t j = 0; j < scanned.size(); ++j) {
      EXPECT_EQ(ctx->drivers()[j].driver_id, scanned[j]) << "batch " << b;
    }

    // ET reads the refilled memo, which the previous batch (its queries
    // here and LS's) grew past extra 40; nothing from that batch may
    // survive the refill.
    for (RegionId k = 0; k < grid.num_regions(); ++k) {
      for (int extra : {0, 1, 7, 40}) {
        ASSERT_TRUE(SameBits(ctx->ExpectedIdleSeconds(k, extra),
                             fresh->ExpectedIdleSeconds(k, extra)))
            << "batch " << b << " region " << k << " extra " << extra;
      }
    }

    std::vector<Assignment> assignments;
    ls->Dispatch(*ctx, &assignments);
    assigned += static_cast<int64_t>(assignments.size());
    applier.Apply(now, *ctx, assignments, &fleet, &orders, nullptr);
  }
  // The day moved: riders were served and drivers left and rejoined.
  EXPECT_GT(assigned, kBatches);
}

// ------------------------------------------------------- observer hooks

class RecordingObserver : public SimObserver {
 public:
  void OnBatchBuilt(double /*now*/, double build_seconds,
                    const BatchContext& ctx) override {
    ++batches_built;
    build_seconds_nonnegative &= build_seconds >= 0.0;
    // The incremental snapshots must equal an entity recount every batch.
    std::vector<int64_t> waiting(ctx.snapshots().size(), 0);
    std::vector<int64_t> available(ctx.snapshots().size(), 0);
    for (const auto& r : ctx.riders()) {
      ++waiting[static_cast<size_t>(r.pickup_region)];
    }
    for (const auto& d : ctx.drivers()) {
      ++available[static_cast<size_t>(d.region)];
    }
    for (size_t k = 0; k < ctx.snapshots().size(); ++k) {
      snapshots_match &= ctx.snapshots()[k].waiting_riders == waiting[k];
      snapshots_match &= ctx.snapshots()[k].available_drivers == available[k];
    }
  }
  void OnDispatchDone(double /*now*/, double /*dispatch_seconds*/,
                      const std::vector<Assignment>& a) override {
    ++dispatches;
    assignments_emitted += static_cast<int64_t>(a.size());
  }
  void OnAssignmentApplied(double now, const AssignmentEvent& e) override {
    ++assignments_applied;
    events_consistent &= e.busy_until >= now;
    events_consistent &= e.revenue > 0.0;
    events_consistent &= e.wait_seconds >= 0.0;
    events_consistent &= e.order_id >= 0 && e.driver_id >= 0;
  }
  void OnRiderReneged(double /*now*/, const Order& /*order*/) override {
    ++reneges;
  }
  void OnBatchEnd(double /*now*/) override { ++batch_ends; }
  void OnRunEnd(double /*end_time*/, int64_t never_dispatched) override {
    ++run_ends;
    leftover = never_dispatched;
  }

  int batches_built = 0, dispatches = 0, batch_ends = 0, run_ends = 0;
  int64_t assignments_emitted = 0, assignments_applied = 0, reneges = 0;
  int64_t leftover = 0;
  bool snapshots_match = true, events_consistent = true;
  bool build_seconds_nonnegative = true;
};

TEST(SimObserverTest, HooksAgreeWithCollectedMetrics) {
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 800.0;
  gcfg.seed = 11;
  NycLikeGenerator gen(gcfg);
  Workload workload = gen.GenerateDay(/*day_index=*/1, /*num_drivers=*/30);
  StraightLineCostModel cost(7.0, 1.3);

  SimConfig cfg;
  cfg.horizon_seconds = 3 * 3600.0;
  cfg.batch_interval = 30.0;

  Simulator sim(cfg, workload, gen.grid(), cost, nullptr);
  auto dispatcher = MakeNearestDispatcher();
  RecordingObserver obs;
  SimResult r = sim.Run(*dispatcher, &obs);

  ASSERT_GT(r.served_orders, 0);
  EXPECT_EQ(obs.batches_built, r.num_batches);
  EXPECT_EQ(obs.dispatches, r.num_batches);
  EXPECT_EQ(obs.batch_ends, r.num_batches);
  EXPECT_EQ(obs.run_ends, 1);
  EXPECT_EQ(obs.assignments_applied, r.served_orders);
  EXPECT_EQ(obs.reneges + obs.leftover, r.reneged_orders);
  EXPECT_TRUE(obs.snapshots_match);
  EXPECT_TRUE(obs.events_consistent);
  EXPECT_TRUE(obs.build_seconds_nonnegative);
  EXPECT_EQ(r.batch_build_seconds.count(), r.num_batches);
}

}  // namespace
}  // namespace mrvd
