// Scenario event subsystem semantics through the staged engine: driver
// shifts (signed-off drivers never receive assignments, sign-ons re-enter
// incrementally), explicit rider cancellations (counted separately from
// deadline reneges), and surge windows (predicted demand scaled for the
// affected regions while active) — under the full dispatcher roster.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/dispatcher_registry.h"
#include "dispatch/dispatchers.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "prediction/predictor.h"
#include "registry_test_helpers.h"
#include "scenario/generator.h"
#include "scenario/script.h"
#include "sim/engine.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

using test::FullRoster;
using test::MakeSeeded;

SimConfig ScenarioConfig() {
  SimConfig cfg;
  cfg.horizon_seconds = 4 * 3600.0;
  cfg.batch_interval = 30.0;
  return cfg;
}

// ------------------------------------------------------------ event stream

TEST(EventStreamTest, DrainsInTimeOrderWithStableTies) {
  ScenarioScript script;
  script.Cancel(300.0, 7)
      .SignOff(100.0, 1)
      .SignOn(300.0, 2)  // same time as the cancel: insertion order wins
      .Surge({200.0, 400.0, 1.5, {}});
  EXPECT_EQ(script.size(), 5u);  // surge window = begin + end events

  EventStream stream(script);
  std::vector<std::pair<double, ScenarioEventType>> drained;
  for (double now : {0.0, 250.0, 500.0}) {
    while (const ScenarioEvent* e = stream.PeekDue(now)) {
      drained.push_back({e->time, e->type});
      stream.Pop();
    }
  }
  EXPECT_TRUE(stream.Exhausted());
  ASSERT_EQ(drained.size(), 5u);
  EXPECT_EQ(drained[0].first, 100.0);
  EXPECT_EQ(drained[1].second, ScenarioEventType::kSurgeBegin);
  EXPECT_EQ(drained[2].second, ScenarioEventType::kRiderCancel);
  EXPECT_EQ(drained[3].second, ScenarioEventType::kDriverSignOn);
  EXPECT_EQ(drained[4].second, ScenarioEventType::kSurgeEnd);
  for (size_t i = 1; i < drained.size(); ++i) {
    EXPECT_LE(drained[i - 1].first, drained[i].first);
  }
}

TEST(EventStreamTest, EmptyStreamsAreExhaustedFromTheStart) {
  // Default-constructed (no script) and empty-script streams behave
  // identically: nothing is ever due, Exhausted() from the first call.
  EventStream no_script;
  EXPECT_TRUE(no_script.Exhausted());
  EXPECT_EQ(no_script.PeekDue(1e12), nullptr);

  ScenarioScript empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EventStream stream(empty);
  EXPECT_TRUE(stream.Exhausted());
  EXPECT_EQ(stream.PeekDue(0.0), nullptr);
  EXPECT_EQ(stream.PeekDue(1e12), nullptr);
}

TEST(EventStreamTest, SingleEventStream) {
  ScenarioScript script;
  script.SignOff(600.0, 42);
  EventStream stream(script);

  EXPECT_FALSE(stream.Exhausted());
  EXPECT_EQ(stream.PeekDue(599.999), nullptr);  // not due yet
  const ScenarioEvent* due = stream.PeekDue(600.0);  // due exactly at t
  ASSERT_NE(due, nullptr);
  EXPECT_EQ(due->type, ScenarioEventType::kDriverSignOff);
  EXPECT_EQ(due->driver_id, 42);
  // Peek does not consume: the same event stays due until Pop().
  EXPECT_EQ(stream.PeekDue(700.0), due);
  stream.Pop();
  EXPECT_TRUE(stream.Exhausted());
  EXPECT_EQ(stream.PeekDue(700.0), nullptr);
}

TEST(EventStreamTest, LargeSameTimestampBlockKeepsInsertionOrder) {
  // std::sort would be allowed to shuffle a same-timestamp block;
  // EventStream promises stability (insertion order breaks ties), which
  // the engine relies on for deterministic same-batch event application.
  // 256 elements is far past any introsort small-buffer special case.
  ScenarioScript script;
  script.SignOn(100.0, -1);  // earlier neighbour
  for (DriverId id = 0; id < 256; ++id) {
    if (id % 3 == 0) {
      script.SignOff(500.0, id);
    } else {
      script.SignOn(500.0, id);
    }
  }
  script.Cancel(900.0, 7);  // later neighbour

  EventStream stream(script);
  const ScenarioEvent* first = stream.PeekDue(1000.0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->time, 100.0);
  stream.Pop();
  for (DriverId id = 0; id < 256; ++id) {
    const ScenarioEvent* e = stream.PeekDue(1000.0);
    ASSERT_NE(e, nullptr) << id;
    EXPECT_EQ(e->time, 500.0) << id;
    EXPECT_EQ(e->driver_id, id) << id;
    EXPECT_EQ(e->type, id % 3 == 0 ? ScenarioEventType::kDriverSignOff
                                   : ScenarioEventType::kDriverSignOn)
        << id;
    stream.Pop();
  }
  const ScenarioEvent* last = stream.PeekDue(1000.0);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->type, ScenarioEventType::kRiderCancel);
  stream.Pop();
  EXPECT_TRUE(stream.Exhausted());
}

TEST(ScenarioScriptTest, KeepsInsertionOrderAndSurgeIndexing) {
  // The script itself is order-preserving (events() is insertion order;
  // only EventStream time-sorts), and surge_index addresses surges().
  ScenarioScript script;
  script.Cancel(900.0, 3).SignOn(100.0, 1);
  script.Surge({50.0, 60.0, 2.0, {4, 5}});
  const auto& events = script.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].type, ScenarioEventType::kRiderCancel);
  EXPECT_EQ(events[1].type, ScenarioEventType::kDriverSignOn);
  EXPECT_EQ(events[2].type, ScenarioEventType::kSurgeBegin);
  EXPECT_EQ(events[3].type, ScenarioEventType::kSurgeEnd);
  ASSERT_EQ(script.surges().size(), 1u);
  EXPECT_EQ(events[2].surge_index, 0);
  EXPECT_EQ(events[3].surge_index, 0);
  EXPECT_EQ(script.surges()[0].regions, (std::vector<RegionId>{4, 5}));
}

TEST(EventStreamTest, DegenerateSurgeWindowsAreIgnored) {
  ScenarioScript script;
  script.Surge({500.0, 500.0, 2.0, {}});   // empty interval
  script.Surge({500.0, 400.0, 2.0, {}});   // inverted
  script.Surge({0.0, 100.0, -1.0, {}});    // non-positive multiplier
  EXPECT_TRUE(script.empty());
  EXPECT_TRUE(script.surges().empty());
}

// ------------------------------------------------------------ driver shifts

class AssignmentRecorder : public SimObserver {
 public:
  void OnAssignmentApplied(double now, const AssignmentEvent& e) override {
    assignments.push_back({now, e.driver_id});
    served_ids.insert(e.order_id);
  }
  void OnDriverShiftChange(double now, DriverId driver_id,
                           bool signed_on) override {
    shift_changes.push_back({now, driver_id, signed_on});
  }
  void OnRiderCancelled(double /*now*/, const Order& order) override {
    cancelled_ids.insert(order.id);
  }

  struct ShiftChange {
    double now;
    DriverId driver;
    bool signed_on;
  };
  std::vector<std::pair<double, DriverId>> assignments;
  std::vector<ShiftChange> shift_changes;
  std::set<OrderId> served_ids;
  std::set<OrderId> cancelled_ids;
};

class ScenarioEngineTest : public ::testing::Test {
 protected:
  ScenarioEngineTest() : cost_(7.0, 1.3) {
    GeneratorConfig gcfg;
    gcfg.orders_per_day = 900.0;
    gcfg.seed = 20190417;
    gen_ = std::make_unique<NycLikeGenerator>(gcfg);
    workload_ = gen_->GenerateDay(/*day_index=*/1, /*num_drivers=*/40);
    // The scripts address drivers/orders by workload id; the generator
    // hands out ids equal to the array index (relied on below).
    for (size_t j = 0; j < workload_.drivers.size(); ++j) {
      EXPECT_EQ(workload_.drivers[j].id, static_cast<DriverId>(j));
    }
  }

  StraightLineCostModel cost_;
  std::unique_ptr<NycLikeGenerator> gen_;
  Workload workload_;
};

TEST_F(ScenarioEngineTest, SignedOffDriversNeverReceiveAssignments) {
  const double off_at = 3600.0, on_at = 7200.0;
  const int num_off = 10;
  ScenarioScript script;
  for (DriverId id = 0; id < num_off; ++id) {
    script.SignOff(off_at, id).SignOn(on_at, id);
  }

  for (const std::string& name : FullRoster()) {
    SimConfig cfg = ScenarioConfig();
    if (DispatcherRegistry::Global().RequiresZeroPickupTravel(name)) {
      cfg.zero_pickup_travel = true;
    }
    auto dispatcher = MakeSeeded(name, /*seed=*/5);
    ASSERT_NE(dispatcher, nullptr);
    Simulator sim(cfg, workload_, gen_->grid(), cost_, nullptr);
    AssignmentRecorder rec;
    SimResult r = sim.Run(*dispatcher, script, &rec);

    ASSERT_GT(r.served_orders, 0) << name;
    EXPECT_EQ(r.driver_sign_offs, num_off) << name;
    EXPECT_EQ(r.driver_sign_ons, num_off) << name;
    EXPECT_EQ(r.cancelled_orders, 0) << name;

    // The invariant: while a driver is off shift, no new assignment may
    // reference it. (AssignmentEvent::driver_id and the script share the
    // workload DriverSpec::id space.)
    bool assigned_during_off = false, assigned_after_on = false;
    for (const auto& [now, driver] : rec.assignments) {
      if (driver < num_off && now >= off_at && now < on_at) {
        assigned_during_off = true;
      }
      if (driver < num_off && now >= on_at) assigned_after_on = true;
    }
    EXPECT_FALSE(assigned_during_off) << name;
    // The second shift actually comes back to work.
    EXPECT_TRUE(assigned_after_on) << name;
  }
}

// ------------------------------------------------------------ cancellations

TEST_F(ScenarioEngineTest, CancellationsCountedSeparatelyFromReneges) {
  // Starve the market (few drivers) so cancels land on waiting riders.
  Workload starved = workload_;
  starved.drivers.resize(8);
  ScenarioScript script;
  int scripted_cancels = 0;
  for (size_t i = 0; i < starved.orders.size(); i += 3) {
    const Order& o = starved.orders[i];
    const double patience = o.pickup_deadline - o.request_time;
    script.Cancel(o.request_time + 0.25 * patience, o.id);
    ++scripted_cancels;
  }
  ASSERT_GT(scripted_cancels, 0);

  SimConfig cfg = ScenarioConfig();
  auto dispatcher = MakeNearestDispatcher();
  Simulator sim(cfg, starved, gen_->grid(), cost_, nullptr);
  AssignmentRecorder rec;
  SimResult r = sim.Run(*dispatcher, script, &rec);

  EXPECT_GT(r.cancelled_orders, 0);
  EXPECT_LE(r.cancelled_orders, scripted_cancels);
  EXPECT_EQ(r.cancelled_orders,
            static_cast<int64_t>(rec.cancelled_ids.size()));
  // Cancels are not reneges, and the three outcomes partition the day.
  EXPECT_EQ(r.served_orders + r.reneged_orders + r.cancelled_orders,
            r.total_orders);
  // A cancelled rider was never served.
  std::vector<OrderId> both;
  std::set_intersection(rec.cancelled_ids.begin(), rec.cancelled_ids.end(),
                        rec.served_ids.begin(), rec.served_ids.end(),
                        std::back_inserter(both));
  EXPECT_TRUE(both.empty());

  // The unscripted run reneges more and cancels nothing.
  auto baseline_dispatcher = MakeNearestDispatcher();
  Simulator baseline(cfg, starved, gen_->grid(), cost_, nullptr);
  SimResult b = baseline.Run(*baseline_dispatcher);
  EXPECT_EQ(b.cancelled_orders, 0);
  EXPECT_EQ(b.served_orders + b.reneged_orders, b.total_orders);
}

// ------------------------------------------------------------ surge windows

class SurgeChecker : public SimObserver {
 public:
  SurgeChecker(const DemandForecast* forecast, double window_seconds)
      : forecast_(forecast), window_seconds_(window_seconds) {}

  void OnBatchBuilt(double now, double /*build_seconds*/,
                    const BatchContext& ctx) override {
    for (int k = 0; k < static_cast<int>(ctx.snapshots().size()); ++k) {
      double expected = forecast_->WindowCount(now, window_seconds_, k);
      double m = 1.0;
      if (now >= 7200.0 && now < 10800.0) m *= 2.5;       // city-wide
      if (now >= 1800.0 && now < 5400.0 && k < 3) m *= 1.5;  // regional
      expected *= m;
      EXPECT_DOUBLE_EQ(
          ctx.snapshots()[static_cast<size_t>(k)].predicted_riders, expected)
          << "region " << k << " at t=" << now;
      if (m != 1.0 && expected > 0.0) saw_scaled_demand = true;
    }
  }
  void OnSurgeChange(double now, const SurgeWindow& window,
                     bool active) override {
    transitions.push_back({now, window.multiplier, active});
  }

  struct Transition {
    double now;
    double multiplier;
    bool active;
  };
  std::vector<Transition> transitions;
  bool saw_scaled_demand = false;

 private:
  const DemandForecast* forecast_;
  double window_seconds_;
};

TEST_F(ScenarioEngineTest, SurgeWindowsScalePredictedDemandWhileActive) {
  // An oracle forecast makes predicted_riders nonzero, so the surge
  // multiplier is observable in every batch snapshot.
  DemandHistory realized = gen_->RealizedCounts(workload_, 48);
  auto oracle = MakeOraclePredictor();
  auto forecast = DemandForecast::Build(*oracle, realized, /*eval_day=*/0);
  ASSERT_TRUE(forecast.ok());

  ScenarioScript script;
  script.Surge(RushHourSurge(7200.0, 10800.0, 2.5));
  SurgeWindow regional;
  regional.start_seconds = 1800.0;
  regional.end_seconds = 5400.0;
  regional.multiplier = 1.5;
  regional.regions = {0, 1, 2};
  script.Surge(regional);

  SimConfig cfg = ScenarioConfig();
  auto dispatcher = MakeIrgDispatcher();
  Simulator sim(cfg, workload_, gen_->grid(), cost_, &forecast.value());
  SurgeChecker checker(&forecast.value(), cfg.window_seconds);
  SimResult r = sim.Run(*dispatcher, script, &checker);

  EXPECT_EQ(r.surge_changes, 4);  // two windows, begin + end each
  ASSERT_EQ(checker.transitions.size(), 4u);
  EXPECT_EQ(checker.transitions[0].now, 1800.0);
  EXPECT_TRUE(checker.transitions[0].active);
  EXPECT_EQ(checker.transitions[1].now, 5400.0);
  EXPECT_FALSE(checker.transitions[1].active);
  EXPECT_EQ(checker.transitions[2].now, 7200.0);
  EXPECT_EQ(checker.transitions[2].multiplier, 2.5);
  EXPECT_EQ(checker.transitions[3].now, 10800.0);
  EXPECT_TRUE(checker.saw_scaled_demand);
}

// ------------------------------------------------------- scripted-day runs

TEST_F(ScenarioEngineTest, TwoShiftSurgeCancellationDayEndToEnd) {
  ScenarioDayConfig day_cfg;
  day_cfg.two_shift_fleet = true;
  day_cfg.shift_change_seconds = 2 * 3600.0;  // inside the 4h horizon
  day_cfg.shift_overlap_seconds = 600.0;
  day_cfg.cancel_probability = 0.15;
  day_cfg.surges.push_back(RushHourSurge(3600.0, 7200.0, 1.8));
  ScenarioScript script = BuildScenarioDay(workload_, day_cfg);

  // Script structure: every cancel lies strictly inside its order's
  // patience window.
  int cancels_in_script = 0;
  for (const ScenarioEvent& e : script.events()) {
    if (e.type != ScenarioEventType::kRiderCancel) continue;
    ++cancels_in_script;
    const Order& o = workload_.orders[static_cast<size_t>(e.order_id)];
    EXPECT_GT(e.time, o.request_time);
    EXPECT_LT(e.time, o.pickup_deadline);
  }
  ASSERT_GT(cancels_in_script, 0);

  const int n = static_cast<int>(workload_.drivers.size());
  for (const char* name : {"IRG", "SHORT"}) {
    SimConfig cfg = ScenarioConfig();
    auto dispatcher = MakeSeeded(name, /*seed=*/5);
    Simulator sim(cfg, workload_, gen_->grid(), cost_, nullptr);
    AssignmentRecorder rec;
    SimResult r = sim.Run(*dispatcher, script, &rec);

    // Whole fleet signs off once (evening shift at t=0, morning shift
    // after the overlap); the evening shift signs back on.
    EXPECT_EQ(r.driver_sign_offs, n) << name;
    EXPECT_EQ(r.driver_sign_ons, n / 2) << name;
    EXPECT_EQ(r.surge_changes, 2) << name;
    EXPECT_GT(r.served_orders, 0) << name;
    EXPECT_GT(r.cancelled_orders, 0) << name;
    EXPECT_EQ(r.served_orders + r.reneged_orders + r.cancelled_orders,
              r.total_orders)
        << name;

    // Before the shift change only the morning half works; the evening
    // half gets its first assignments only after signing on.
    for (const auto& [now, driver] : rec.assignments) {
      if (now < day_cfg.shift_change_seconds) {
        EXPECT_LT(driver, n / 2) << name << " at t=" << now;
      }
    }
  }
}

}  // namespace
}  // namespace mrvd
