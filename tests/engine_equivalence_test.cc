// Golden equivalence for the staged engine: Simulator::Run (FleetState +
// OrderBook + BatchBuilder + AssignmentApplier + observers) must reproduce
// the pre-refactor monolithic engine loop bit-for-bit — same assignments,
// same SimResult aggregates down to the last ulp — for every dispatcher at
// any thread count. ReferenceRun below is a faithful copy of the monolith
// (full per-batch recounts, O(W²) served-rider erases and all), kept as the
// executable specification the staged engine is checked against.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "api/dispatcher_registry.h"
#include "geo/region_partitioner.h"
#include "registry_test_helpers.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "prediction/predictor.h"
#include "scenario/script.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ------------------------------------------------ reference (old) engine

struct RefDriverState {
  LatLon location;
  RegionId region = kInvalidRegion;
  double available_since = 0.0;
  bool busy = false;
  double busy_until = 0.0;
  LatLon busy_dest;
  RegionId busy_dest_region = kInvalidRegion;
  double pending_estimate = -1.0;
};

struct RefPendingRider {
  const Order* order = nullptr;
  double trip_seconds = 0.0;
  double revenue = 0.0;
  RegionId pickup_region = kInvalidRegion;
  RegionId dropoff_region = kInvalidRegion;
};

/// The monolithic Simulator::Run as it stood before the staged refactor
/// (PR 1 state), minus log output. Uses only public library API.
SimResult ReferenceRun(const SimConfig& config, const Workload& workload,
                       const Grid& grid, const TravelCostModel& cost_model,
                       const DemandForecast* forecast,
                       Dispatcher& dispatcher) {
  SimResult result;
  result.dispatcher = dispatcher.name();
  result.total_orders = static_cast<int64_t>(workload.orders.size());
  result.region_idle.assign(static_cast<size_t>(grid.num_regions()), {});

  std::vector<RefDriverState> drivers(workload.drivers.size());
  for (size_t j = 0; j < drivers.size(); ++j) {
    drivers[j].location = workload.drivers[j].origin;
    drivers[j].region = grid.RegionOf(drivers[j].location);
    drivers[j].available_since = workload.drivers[j].join_time;
    drivers[j].busy = false;
  }
  using BusyEntry = std::pair<double, int>;
  std::priority_queue<BusyEntry, std::vector<BusyEntry>, std::greater<>>
      busy_heap;

  std::deque<RefPendingRider> waiting;
  size_t next_order = 0;

  std::vector<int> fresh_drivers;
  for (size_t j = 0; j < drivers.size(); ++j) {
    fresh_drivers.push_back(static_cast<int>(j));
  }

  const double delta = config.batch_interval;
  const double horizon = config.horizon_seconds;

  int threads = config.num_threads == 0 ? ThreadPool::HardwareThreads()
                                        : config.num_threads;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<RegionPartitioner> partitioner;
  BatchExecution execution;
  if (threads > 1) {
    int shards = config.num_shards > 0 ? config.num_shards : 2 * threads;
    pool = std::make_unique<ThreadPool>(threads);
    partitioner = std::make_unique<RegionPartitioner>(
        RegionPartitioner::RowBands(grid, shards));
    execution.pool = pool.get();
    execution.partitioner = partitioner.get();
  }

  for (double now = 0.0; now < horizon; now += delta) {
    while (!busy_heap.empty() && busy_heap.top().first <= now) {
      int j = busy_heap.top().second;
      busy_heap.pop();
      RefDriverState& d = drivers[static_cast<size_t>(j)];
      d.busy = false;
      d.location = d.busy_dest;
      d.region = d.busy_dest_region;
      d.available_since = d.busy_until;
      fresh_drivers.push_back(j);
    }

    while (next_order < workload.orders.size() &&
           workload.orders[next_order].request_time <= now) {
      const Order& o = workload.orders[next_order];
      RefPendingRider pr;
      pr.order = &o;
      pr.trip_seconds = cost_model.TravelSeconds(o.pickup, o.dropoff);
      pr.revenue = config.alpha * pr.trip_seconds;
      pr.pickup_region = grid.RegionOf(o.pickup);
      pr.dropoff_region = grid.RegionOf(o.dropoff);
      waiting.push_back(pr);
      ++next_order;
    }

    std::erase_if(waiting, [&](const RefPendingRider& pr) {
      if (pr.order->pickup_deadline < now) {
        ++result.reneged_orders;
        return true;
      }
      return false;
    });

    if (waiting.empty() && fresh_drivers.empty() && busy_heap.empty() &&
        next_order >= workload.orders.size()) {
      break;
    }

    BatchContext ctx(now, config.window_seconds, config.reneging_beta, grid,
                     cost_model, config.candidate_mode);
    if (pool != nullptr) ctx.SetExecution(&execution);
    std::vector<int> rider_backing;
    rider_backing.reserve(waiting.size());
    for (size_t i = 0; i < waiting.size(); ++i) {
      const RefPendingRider& pr = waiting[i];
      WaitingRider wr;
      wr.order_id = pr.order->id;
      wr.pickup = pr.order->pickup;
      wr.dropoff = pr.order->dropoff;
      wr.request_time = pr.order->request_time;
      wr.pickup_deadline = pr.order->pickup_deadline;
      wr.revenue = pr.revenue;
      wr.trip_seconds = pr.trip_seconds;
      wr.pickup_region = pr.pickup_region;
      wr.dropoff_region = pr.dropoff_region;
      ctx.AddRider(wr);
      rider_backing.push_back(static_cast<int>(i));
    }
    std::vector<int> driver_backing;
    for (size_t j = 0; j < drivers.size(); ++j) {
      const RefDriverState& d = drivers[j];
      if (d.busy) continue;
      AvailableDriver ad;
      ad.driver_id = static_cast<DriverId>(j);
      ad.location = d.location;
      ad.region = d.region;
      ad.available_since = d.available_since;
      ctx.AddDriver(ad);
      driver_backing.push_back(static_cast<int>(j));
    }

    std::vector<RegionSnapshot> snaps(static_cast<size_t>(grid.num_regions()));
    for (const auto& r : ctx.riders()) {
      ++snaps[static_cast<size_t>(r.pickup_region)].waiting_riders;
    }
    for (const auto& d : ctx.drivers()) {
      ++snaps[static_cast<size_t>(d.region)].available_drivers;
    }
    if (forecast != nullptr) {
      for (int k = 0; k < grid.num_regions(); ++k) {
        snaps[static_cast<size_t>(k)].predicted_riders =
            forecast->WindowCount(now, config.window_seconds, k);
      }
    }
    for (const auto& d : drivers) {
      if (d.busy && d.busy_until > now &&
          d.busy_until <= now + config.window_seconds) {
        snaps[static_cast<size_t>(d.busy_dest_region)].predicted_drivers +=
            1.0;
      }
    }
    ctx.SetSnapshots(std::move(snaps));

    if (config.record_idle_samples) {
      for (int j : fresh_drivers) {
        RefDriverState& d = drivers[static_cast<size_t>(j)];
        if (d.busy) continue;
        d.pending_estimate = ctx.ExpectedIdleSeconds(d.region);
      }
    }
    fresh_drivers.clear();

    std::vector<Assignment> assignments;
    Stopwatch watch;
    dispatcher.Dispatch(ctx, &assignments);
    result.batch_seconds.Add(watch.ElapsedSeconds());
    ++result.num_batches;

    std::vector<char> rider_taken(ctx.riders().size(), false);
    std::vector<char> driver_taken(ctx.drivers().size(), false);
    std::vector<int> served_waiting_indices;
    for (const Assignment& a : assignments) {
      if (a.rider_index < 0 ||
          a.rider_index >= static_cast<int>(ctx.riders().size()) ||
          a.driver_index < 0 ||
          a.driver_index >= static_cast<int>(ctx.drivers().size())) {
        continue;
      }
      if (rider_taken[static_cast<size_t>(a.rider_index)] ||
          driver_taken[static_cast<size_t>(a.driver_index)]) {
        continue;
      }
      const WaitingRider& r = ctx.riders()[static_cast<size_t>(a.rider_index)];
      const AvailableDriver& ad =
          ctx.drivers()[static_cast<size_t>(a.driver_index)];
      double pickup_tt =
          config.zero_pickup_travel ? 0.0 : ctx.PickupSeconds(ad, r);
      if (!config.zero_pickup_travel && now + pickup_tt > r.pickup_deadline) {
        continue;
      }
      rider_taken[static_cast<size_t>(a.rider_index)] = true;
      driver_taken[static_cast<size_t>(a.driver_index)] = true;

      int j = driver_backing[static_cast<size_t>(a.driver_index)];
      RefDriverState& d = drivers[static_cast<size_t>(j)];
      double real_idle = now - d.available_since;
      if (config.record_idle_samples && d.pending_estimate >= 0.0) {
        result.idle_error.Add(d.pending_estimate, real_idle);
        auto& reg = result.region_idle[static_cast<size_t>(d.region)];
        reg.predicted_sum += d.pending_estimate;
        reg.real_sum += real_idle;
        ++reg.count;
      }
      result.driver_idle_seconds.Add(real_idle);
      d.pending_estimate = -1.0;

      d.busy = true;
      d.busy_until = now + pickup_tt + r.trip_seconds;
      d.busy_dest = r.dropoff;
      d.busy_dest_region = r.dropoff_region;
      busy_heap.push({d.busy_until, j});

      result.total_revenue += r.revenue;
      ++result.served_orders;
      result.served_wait_seconds.Add(now - r.request_time);
      served_waiting_indices.push_back(
          rider_backing[static_cast<size_t>(a.rider_index)]);
    }

    std::sort(served_waiting_indices.begin(), served_waiting_indices.end(),
              std::greater<>());
    for (int w : served_waiting_indices) {
      waiting.erase(waiting.begin() + w);
    }
  }

  result.reneged_orders += static_cast<int64_t>(waiting.size());
  result.reneged_orders +=
      static_cast<int64_t>(workload.orders.size() - next_order);
  return result;
}

// ---------------------------------------------------------- comparisons

void ExpectBitIdentical(const SimResult& want, const SimResult& got,
                        const std::string& label) {
  EXPECT_EQ(want.served_orders, got.served_orders) << label;
  EXPECT_EQ(want.reneged_orders, got.reneged_orders) << label;
  EXPECT_EQ(want.total_orders, got.total_orders) << label;
  EXPECT_EQ(want.num_batches, got.num_batches) << label;
  // Bit-exact double comparisons: the staged engine must accumulate the
  // same values in the same order, not merely approximately agree.
  EXPECT_EQ(want.total_revenue, got.total_revenue) << label;
  EXPECT_EQ(want.served_wait_seconds.count(), got.served_wait_seconds.count())
      << label;
  EXPECT_EQ(want.served_wait_seconds.mean(), got.served_wait_seconds.mean())
      << label;
  EXPECT_EQ(want.served_wait_seconds.variance(),
            got.served_wait_seconds.variance())
      << label;
  EXPECT_EQ(want.driver_idle_seconds.count(), got.driver_idle_seconds.count())
      << label;
  EXPECT_EQ(want.driver_idle_seconds.mean(), got.driver_idle_seconds.mean())
      << label;
  EXPECT_EQ(want.driver_idle_seconds.max(), got.driver_idle_seconds.max())
      << label;
  EXPECT_EQ(want.idle_error.count(), got.idle_error.count()) << label;
  EXPECT_EQ(want.idle_error.Mae(), got.idle_error.Mae()) << label;
  EXPECT_EQ(want.idle_error.RealRmse(), got.idle_error.RealRmse()) << label;
  ASSERT_EQ(want.region_idle.size(), got.region_idle.size()) << label;
  for (size_t k = 0; k < want.region_idle.size(); ++k) {
    EXPECT_EQ(want.region_idle[k].predicted_sum,
              got.region_idle[k].predicted_sum)
        << label << " region " << k;
    EXPECT_EQ(want.region_idle[k].real_sum, got.region_idle[k].real_sum)
        << label << " region " << k;
    EXPECT_EQ(want.region_idle[k].count, got.region_idle[k].count)
        << label << " region " << k;
  }
}

using test::MakeSeeded;  // registry-built, canonical test seed by default

class EngineEquivalenceTest : public ::testing::Test {
 protected:
  EngineEquivalenceTest() : cost_(7.0, 1.3) {
    GeneratorConfig gcfg;
    gcfg.orders_per_day = 500.0;
    gcfg.seed = 20190417;
    gen_ = std::make_unique<NycLikeGenerator>(gcfg);
    workload_ = gen_->GenerateDay(/*day_index=*/1, /*num_drivers=*/35);
  }

  SimConfig BaseConfig() const {
    SimConfig cfg;
    cfg.horizon_seconds = 4 * 3600.0;
    cfg.batch_interval = 30.0;
    // Compare the idle samples too (ShortWithoutIdleSamples runs the
    // default, which records none).
    cfg.record_idle_samples = true;
    return cfg;
  }

  void CheckDispatcher(const std::string& name, SimConfig cfg,
                       const DemandForecast* forecast = nullptr) {
    if (DispatcherRegistry::Global().RequiresZeroPickupTravel(name)) {
      cfg.zero_pickup_travel = true;
    }
    for (int threads : {1, 4}) {
      cfg.num_threads = threads;
      auto ref_dispatcher = MakeSeeded(name);
      auto staged_dispatcher = MakeSeeded(name);
      ASSERT_NE(ref_dispatcher, nullptr) << name;
      SimResult want = ReferenceRun(cfg, workload_, gen_->grid(), cost_,
                                    forecast, *ref_dispatcher);
      // Guard against a vacuous pass: the scenario must actually serve and
      // renege orders across many batches.
      ASSERT_GT(want.served_orders, 0) << name;
      ASSERT_GT(want.reneged_orders, 0) << name;
      ASSERT_GT(want.num_batches, 100) << name;
      Simulator staged(cfg, workload_, gen_->grid(), cost_, forecast);
      SimResult got = staged.Run(*staged_dispatcher);
      ExpectBitIdentical(
          want, got, name + " @" + std::to_string(threads) + " threads");
      // The staged engine additionally times its batch construction.
      EXPECT_EQ(got.batch_build_seconds.count(), got.num_batches) << name;

      // An *empty* ScenarioScript must leave the scripted engine path —
      // event merge, surge multipliers, sign-on/off lifecycle — completely
      // dormant: every aggregate stays bit-identical to the monolith.
      ScenarioScript empty_script;
      auto scripted_dispatcher = MakeSeeded(name);
      Simulator scripted(cfg, workload_, gen_->grid(), cost_, forecast);
      SimResult got_scripted =
          scripted.Run(*scripted_dispatcher, empty_script);
      ExpectBitIdentical(want, got_scripted,
                         name + " empty-script @" + std::to_string(threads) +
                             " threads");
      EXPECT_EQ(got_scripted.cancelled_orders, 0) << name;
      EXPECT_EQ(got_scripted.driver_sign_ons, 0) << name;
      EXPECT_EQ(got_scripted.driver_sign_offs, 0) << name;
      EXPECT_EQ(got_scripted.surge_changes, 0) << name;
    }
  }

  StraightLineCostModel cost_;
  std::unique_ptr<NycLikeGenerator> gen_;
  Workload workload_;
};

TEST_F(EngineEquivalenceTest, Rand) { CheckDispatcher("RAND", BaseConfig()); }
TEST_F(EngineEquivalenceTest, Near) { CheckDispatcher("NEAR", BaseConfig()); }
TEST_F(EngineEquivalenceTest, Ltg) { CheckDispatcher("LTG", BaseConfig()); }
TEST_F(EngineEquivalenceTest, Polar) { CheckDispatcher("POLAR", BaseConfig()); }
TEST_F(EngineEquivalenceTest, Irg) { CheckDispatcher("IRG", BaseConfig()); }
TEST_F(EngineEquivalenceTest, Ls) { CheckDispatcher("LS", BaseConfig()); }
TEST_F(EngineEquivalenceTest, Short) { CheckDispatcher("SHORT", BaseConfig()); }
TEST_F(EngineEquivalenceTest, Upper) { CheckDispatcher("UPPER", BaseConfig()); }

TEST_F(EngineEquivalenceTest, IrgRegionLocalMode) {
  SimConfig cfg = BaseConfig();
  cfg.candidate_mode = CandidateMode::kRegionLocal;
  CheckDispatcher("IRG", cfg);
}

TEST_F(EngineEquivalenceTest, PredictionBackedDispatchersWithForecast) {
  // With a forecast attached, the staged BuildSnapshots forwards the exact
  // (now, t_c, region) arguments the monolith used — predicted_riders is
  // nonzero and feeds the ET chain / POLAR blueprint, so any wiring
  // regression breaks the bit-identical check here.
  DemandHistory realized = gen_->RealizedCounts(workload_, 48);
  auto oracle = MakeOraclePredictor();
  auto fc = DemandForecast::Build(*oracle, realized, /*eval_day=*/0);
  ASSERT_TRUE(fc.ok());
  for (const char* name : {"IRG", "LTG", "POLAR"}) {
    CheckDispatcher(name, BaseConfig(), &fc.value());
  }
}

// The default path: no idle samples, so no ET(k, 0) solve at (re)join.
TEST_F(EngineEquivalenceTest, ShortWithoutIdleSamples) {
  SimConfig cfg = BaseConfig();
  cfg.record_idle_samples = false;  // SimConfig's default
  CheckDispatcher("SHORT", cfg);
}

TEST_F(EngineEquivalenceTest, IdleSamplesChangeOnlyTheSamples) {
  // Recording idle samples adds only the ET(k, 0) solves of the capture,
  // values a dispatcher would compute the same way. Every roster
  // dispatcher, with a forecast so the ET chain sees predicted riders,
  // must run the same day with samples on and off.
  DemandHistory realized = gen_->RealizedCounts(workload_, 48);
  auto oracle = MakeOraclePredictor();
  auto fc = DemandForecast::Build(*oracle, realized, /*eval_day=*/0);
  ASSERT_TRUE(fc.ok());
  for (const std::string& name : test::FullRoster()) {
    SimResult on, off;
    for (bool record : {true, false}) {
      SimConfig cfg = BaseConfig();
      cfg.record_idle_samples = record;
      cfg.zero_pickup_travel =
          DispatcherRegistry::Global().RequiresZeroPickupTravel(name);
      auto dispatcher = MakeSeeded(name);
      ASSERT_NE(dispatcher, nullptr) << name;
      Simulator sim(cfg, workload_, gen_->grid(), cost_, &fc.value());
      (record ? on : off) = sim.Run(*dispatcher);
    }
    ASSERT_GT(on.served_orders, 0) << name;
    EXPECT_GT(on.idle_error.count(), 0) << name;
    EXPECT_EQ(off.idle_error.count(), 0) << name;
    for (const RegionIdleStats& reg : off.region_idle) {
      EXPECT_EQ(reg.count, 0) << name;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(on.total_revenue),
              std::bit_cast<uint64_t>(off.total_revenue))
        << name;
    EXPECT_EQ(on.served_orders, off.served_orders) << name;
    EXPECT_EQ(on.reneged_orders, off.reneged_orders) << name;
    EXPECT_EQ(on.num_batches, off.num_batches) << name;
    EXPECT_EQ(on.dispatch_sweeps, off.dispatch_sweeps) << name;
    EXPECT_EQ(on.dispatch_swaps_applied, off.dispatch_swaps_applied) << name;
    EXPECT_EQ(on.dispatch_proposals, off.dispatch_proposals) << name;
    EXPECT_EQ(on.driver_idle_seconds.count(), off.driver_idle_seconds.count())
        << name;
    EXPECT_EQ(std::bit_cast<uint64_t>(on.driver_idle_seconds.mean()),
              std::bit_cast<uint64_t>(off.driver_idle_seconds.mean()))
        << name;
    EXPECT_EQ(std::bit_cast<uint64_t>(on.driver_idle_seconds.variance()),
              std::bit_cast<uint64_t>(off.driver_idle_seconds.variance()))
        << name;
    EXPECT_EQ(std::bit_cast<uint64_t>(on.driver_idle_seconds.max()),
              std::bit_cast<uint64_t>(off.driver_idle_seconds.max()))
        << name;
  }
}

}  // namespace
}  // namespace mrvd
