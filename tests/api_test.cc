// Experiment API layer (src/api/): SimulationBuilder validation,
// DispatcherRegistry spec parsing and self-registration, ObserverList
// event-forwarding order, and RunOne's spec resolution (unknown specs,
// config overrides, scenario choice, replication seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "dispatch/dispatchers.h"
#include "scenario/script.h"

namespace mrvd {
namespace {

// ------------------------------------------------------ SimConfig::Validate

TEST(SimConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_TRUE(SimConfig{}.Validate().ok());
}

TEST(SimConfigValidateTest, RejectsNonPositiveCoreIntervals) {
  SimConfig cfg;
  cfg.batch_interval = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  EXPECT_NE(cfg.Validate().message().find("batch_interval"), std::string::npos);

  cfg = SimConfig{};
  cfg.window_seconds = -1.0;
  EXPECT_FALSE(cfg.Validate().ok());
  EXPECT_NE(cfg.Validate().message().find("window_seconds"), std::string::npos);

  cfg = SimConfig{};
  cfg.horizon_seconds = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  EXPECT_NE(cfg.Validate().message().find("horizon_seconds"),
            std::string::npos);
}

TEST(SimConfigValidateTest, RejectsNonFiniteValues) {
  // ParseDouble accepts "inf"/"nan", so a config delta can smuggle them
  // in; an infinite horizon (or batch interval) would hang the batch loop
  // forever and NaN comparisons silently misbehave — Validate() is the
  // gate.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {inf, nan}) {
    SimConfig cfg;
    cfg.horizon_seconds = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;

    cfg = SimConfig{};
    cfg.batch_interval = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;

    cfg = SimConfig{};
    cfg.window_seconds = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;

    cfg = SimConfig{};
    cfg.alpha = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;

    cfg = SimConfig{};
    cfg.reneging_beta = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;
  }
}

TEST(SimConfigValidateTest, RejectsAnIntervalTooSmallToAdvanceTheClock) {
  // The batch loop advances by `now += batch_interval`. At 1e-12 on a 24 h
  // horizon the sum stops changing near 16,400 s and the loop never ends,
  // so these configs are only validated, never run.
  for (double tiny : {1e-12, 1e-300}) {
    SimConfig cfg;
    cfg.batch_interval = tiny;
    const Status st = cfg.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << tiny;
    EXPECT_NE(st.message().find("batch_interval"), std::string::npos);
    EXPECT_NE(st.message().find("horizon_seconds"), std::string::npos);
  }

  // The smallest accepted interval is horizon * ε: it still advances the
  // last clock value below the horizon, and one step below it is refused.
  SimConfig smallest;
  smallest.batch_interval =
      smallest.horizon_seconds * std::numeric_limits<double>::epsilon();
  EXPECT_TRUE(smallest.Validate().ok()) << smallest.Validate();
  const double last = std::nextafter(smallest.horizon_seconds, 0.0);
  EXPECT_GT(last + smallest.batch_interval, last);
  smallest.batch_interval = std::nextafter(smallest.batch_interval, 0.0);
  EXPECT_FALSE(smallest.Validate().ok());
}

TEST(SimConfigValidateTest, RejectsBadRates) {
  SimConfig cfg;
  cfg.alpha = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SimConfig{};
  cfg.reneging_beta = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SimConfigValidateDeathTest, SimulatorConstructorAbortsOnInvalidConfig) {
  GeneratorConfig gcfg;
  gcfg.grid_rows = 4;
  gcfg.grid_cols = 4;
  gcfg.orders_per_day = 50;
  NycLikeGenerator gen(gcfg);
  Workload day = gen.GenerateDay(0, 5);
  StraightLineCostModel cost(11.0, 1.3);
  SimConfig bad;
  bad.batch_interval = -3.0;
  EXPECT_DEATH_IF_SUPPORTED(
      { Simulator sim(bad, day, gen.grid(), cost, nullptr); },
      "invalid SimConfig");
}

TEST(SimConfigValidateDeathTest, SimulatorConstructorAbortsOnForecastMismatch) {
  // Built directly, past SimulationBuilder's Status check, a forecast for 4
  // regions must not drive a 16-region run: the batch build would read
  // past the per-region forecast buffer.
  GeneratorConfig gcfg;
  gcfg.grid_rows = 4;
  gcfg.grid_cols = 4;
  gcfg.orders_per_day = 50;
  NycLikeGenerator gen(gcfg);
  Workload day = gen.GenerateDay(0, 5);
  StraightLineCostModel cost(11.0, 1.3);
  DemandHistory history(/*num_days=*/1, /*slots_per_day=*/48,
                        /*num_regions=*/4);
  auto oracle = MakeOraclePredictor();
  StatusOr<DemandForecast> forecast =
      DemandForecast::Build(*oracle, history, /*eval_day=*/0);
  ASSERT_TRUE(forecast.ok()) << forecast.status();
  EXPECT_DEATH_IF_SUPPORTED(
      { Simulator sim(SimConfig{}, day, gen.grid(), cost, &*forecast); },
      "forecast covers 4 regions but the grid has 16");
}

// ------------------------------------------------------- DispatcherRegistry

TEST(DispatcherRegistryTest, RosterContainsEveryBuiltin) {
  std::vector<std::string> names = DispatcherRegistry::Global().Names();
  for (const char* expected :
       {"IRG", "LS", "LTG", "NEAR", "POLAR", "RAND", "SHORT", "UPPER"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(DispatcherRegistryTest, CreatesFromPlainAndParameterisedSpecs) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  auto irg = registry.Create("IRG");
  ASSERT_TRUE(irg.ok()) << irg.status();
  EXPECT_EQ((*irg)->name(), "IRG");

  auto ls = registry.Create("LS:max_sweeps=8");
  ASSERT_TRUE(ls.ok()) << ls.status();
  EXPECT_EQ((*ls)->name(), "LS");

  auto rand = registry.Create("RAND:seed=42");
  ASSERT_TRUE(rand.ok()) << rand.status();
  EXPECT_EQ((*rand)->name(), "RAND");

  // Whitespace around the name, keys and values is tolerated.
  auto spaced = registry.Create("  LS : max_sweeps = 4 ");
  ASSERT_TRUE(spaced.ok()) << spaced.status();
  EXPECT_EQ((*spaced)->name(), "LS");
}

TEST(DispatcherRegistryTest, UnknownNameFailsListingTheRoster) {
  auto d = DispatcherRegistry::Global().Create("NOPE");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
  // The error names the known roster so a typo is a one-glance fix.
  EXPECT_NE(d.status().message().find("IRG"), std::string::npos);
  EXPECT_NE(d.status().message().find("UPPER"), std::string::npos);
}

TEST(DispatcherRegistryTest, BadParametersFailWithDeclaredNames) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();

  // A removed parameter (LS's `parallel`) fails like any unknown one.
  for (const char* spec : {"LS:bogus=1", "LS:parallel=0"}) {
    auto unknown_param = registry.Create(spec);
    ASSERT_FALSE(unknown_param.ok()) << spec;
    EXPECT_EQ(unknown_param.status().code(), StatusCode::kInvalidArgument)
        << spec;
    EXPECT_NE(unknown_param.status().message().find("max_sweeps"),
              std::string::npos)
        << spec;
  }

  auto param_on_paramless = registry.Create("IRG:seed=1");
  ASSERT_FALSE(param_on_paramless.ok());
  EXPECT_NE(param_on_paramless.status().message().find("no parameter"),
            std::string::npos);

  auto bad_value = registry.Create("LS:max_sweeps=abc");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);

  auto duplicate = registry.Create("LS:max_sweeps=2,max_sweeps=3");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().message().find("duplicate"), std::string::npos);

  auto malformed = registry.Create("LS:max_sweeps");
  ASSERT_FALSE(malformed.ok());

  auto empty_name = registry.Create("  ");
  ASSERT_FALSE(empty_name.ok());
}

TEST(DispatcherRegistryTest, Int64ParamsKeepFullFidelity) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  // Above 2^53: would be corrupted by a double round-trip.
  auto big = registry.Create("RAND:seed=9007199254740993");
  EXPECT_TRUE(big.ok()) << big.status();

  // Beyond int64: rejected loudly, never clamped to LLONG_MAX.
  auto overflow = registry.Create("RAND:seed=99999999999999999999");
  ASSERT_FALSE(overflow.ok());
}

TEST(DispatcherRegistryTest, Traits) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  EXPECT_TRUE(registry.RequiresZeroPickupTravel("UPPER"));
  EXPECT_FALSE(registry.RequiresZeroPickupTravel("IRG"));
  EXPECT_TRUE(registry.HasParam("RAND", "seed"));
  EXPECT_FALSE(registry.HasParam("RAND", "max_sweeps"));
}

TEST(DispatcherRegistryTest, MaxSweepsOutsideItsRangeIsRejected) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  // 0 and -1 would run no sweep (LS would return IRG's assignment under its
  // own key); 2^32 + 1 would narrow to 1 sweep.
  for (const char* spec :
       {"LS:max_sweeps=0", "LS:max_sweeps=-1", "LS:max_sweeps=4294967297"}) {
    auto created = registry.Create(spec);
    ASSERT_FALSE(created.ok()) << spec;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_NE(created.status().message().find("max_sweeps"),
              std::string::npos)
        << spec;
    StatusOr<std::string> canonical = registry.Canonicalize(spec);
    ASSERT_FALSE(canonical.ok()) << spec;
    EXPECT_EQ(canonical.status().code(), StatusCode::kInvalidArgument)
        << spec;
    EXPECT_NE(canonical.status().message().find("max_sweeps"),
              std::string::npos)
        << spec;
  }

  // The top of the range (2^31 - 1) is accepted by both.
  auto largest = registry.Create("LS:max_sweeps=2147483647");
  EXPECT_TRUE(largest.ok()) << largest.status();
  StatusOr<std::string> canonical =
      registry.Canonicalize("LS:max_sweeps=2147483647");
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  EXPECT_EQ(*canonical, "LS:max_sweeps=2147483647");

  // The defaults spelled out: LS has exactly one parameter.
  StatusOr<std::string> defaults = registry.Canonicalize("LS");
  ASSERT_TRUE(defaults.ok()) << defaults.status();
  EXPECT_EQ(*defaults, "LS:max_sweeps=16");
}

/// Minimal dispatcher for the self-registration test.
class NullDispatcher final : public Dispatcher {
 public:
  std::string name() const override { return "NULL_TEST"; }
  void Dispatch(const BatchContext&, std::vector<Assignment>*) override {}
};

TEST(DispatcherRegistryTest, SelfRegistrationAndDuplicateRejection) {
  DispatcherRegistry& registry = DispatcherRegistry::Global();
  Status first = registry.Register(
      "NULL_TEST", {}, [](const CatalogParams&) {
        return std::make_unique<NullDispatcher>();
      });
  ASSERT_TRUE(first.ok()) << first;
  EXPECT_TRUE(registry.Known("NULL_TEST"));

  auto d = registry.Create("NULL_TEST");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->name(), "NULL_TEST");

  // First registration wins; a duplicate is rejected, not overwritten.
  Status dup = registry.Register(
      "NULL_TEST", {}, [](const CatalogParams&) {
        return MakeIrgDispatcher();
      });
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);
  auto still = registry.Create("NULL_TEST");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ((*still)->name(), "NULL_TEST");
}

// ------------------------------------------------------------- tiny fixture

/// One small generated day shared by the builder/chain/runner tests.
class ApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig gcfg;
    gcfg.grid_rows = 8;
    gcfg.grid_cols = 8;
    gcfg.orders_per_day = 3000;
    gcfg.seed = 20190417;
    builder_ = new SimulationBuilder();
    // Runs record idle samples, so ExpectSameAggregates compares them.
    SimConfig config;
    config.record_idle_samples = true;
    builder_->GenerateNycDay(/*day_index=*/1, /*num_drivers=*/40, gcfg)
        .WithOracleForecast()
        .WithConfig(config)
        .BatchInterval(30.0)
        .HorizonSeconds(4 * 3600.0);
  }
  static void TearDownTestSuite() {
    delete builder_;
    builder_ = nullptr;
  }

  static SimulationBuilder* builder_;
};

SimulationBuilder* ApiTest::builder_ = nullptr;

void ExpectSameAggregates(const SimResult& want, const SimResult& got,
                          const std::string& label) {
  EXPECT_EQ(want.served_orders, got.served_orders) << label;
  EXPECT_EQ(want.reneged_orders, got.reneged_orders) << label;
  EXPECT_EQ(want.cancelled_orders, got.cancelled_orders) << label;
  EXPECT_EQ(want.total_orders, got.total_orders) << label;
  EXPECT_EQ(want.num_batches, got.num_batches) << label;
  EXPECT_EQ(want.total_revenue, got.total_revenue) << label;
  EXPECT_EQ(want.served_wait_seconds.count(), got.served_wait_seconds.count())
      << label;
  EXPECT_EQ(want.served_wait_seconds.mean(), got.served_wait_seconds.mean())
      << label;
  EXPECT_EQ(want.served_wait_seconds.variance(),
            got.served_wait_seconds.variance())
      << label;
  EXPECT_EQ(want.driver_idle_seconds.mean(), got.driver_idle_seconds.mean())
      << label;
  EXPECT_EQ(want.idle_error.count(), got.idle_error.count()) << label;
  EXPECT_EQ(want.idle_error.Mae(), got.idle_error.Mae()) << label;
}

// --------------------------------------------------------- SimulationBuilder

TEST_F(ApiTest, BuildWithoutWorkloadFails) {
  StatusOr<Simulation> sim = SimulationBuilder().Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sim.status().message().find("workload"), std::string::npos);
}

TEST_F(ApiTest, BuildRejectsInvalidConfig) {
  SimulationBuilder bad = *builder_;
  bad.BatchInterval(0.0);
  StatusOr<Simulation> sim = bad.Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_NE(sim.status().message().find("batch_interval"), std::string::npos);
  // Intervals too small to advance the batch clock (never run).
  for (double tiny : {1e-12, 1e-300}) {
    SimulationBuilder b = *builder_;
    StatusOr<Simulation> s = b.BatchInterval(tiny).Build();
    ASSERT_FALSE(s.ok()) << tiny;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.status().message().find("batch_interval"), std::string::npos);
  }

  // Straight-line travel must keep the SpeedMps contract candidate
  // generation prunes on: a positive finite speed and a detour >= 1.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (double speed : {nan, inf, -inf, 0.0, -7.0}) {
    SimulationBuilder b = *builder_;
    StatusOr<Simulation> s = b.WithStraightLineTravel(speed, 1.3).Build();
    ASSERT_FALSE(s.ok()) << speed;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.status().message().find("speed_mps"), std::string::npos);
  }
  for (double detour : {nan, inf, 0.5, 0.0, -1.3}) {
    SimulationBuilder b = *builder_;
    StatusOr<Simulation> s = b.WithStraightLineTravel(11.0, detour).Build();
    ASSERT_FALSE(s.ok()) << detour;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.status().message().find("detour"), std::string::npos);
  }
  SimulationBuilder direct = *builder_;
  EXPECT_TRUE(direct.WithStraightLineTravel(0.5, 1.0).Build().ok());
}

TEST_F(ApiTest, BuildRejectsAGravityScaleTheGeneratorCannotDraw) {
  // exp(-ring / scale) is NaN or infinite for a scale of 0 or below (or
  // NaN); +inf means no decay and stays valid.
  GeneratorConfig city;
  city.grid_rows = 4;
  city.grid_cols = 4;
  city.orders_per_day = 200;
  for (double scale : {0.0, -0.01, std::nan("")}) {
    city.gravity_scale_cells = scale;
    StatusOr<Simulation> sim =
        SimulationBuilder().GenerateNycDay(0, 5, city).Build();
    ASSERT_FALSE(sim.ok()) << scale;
    EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument) << scale;
    EXPECT_NE(sim.status().message().find("gravity_scale_cells"),
              std::string::npos)
        << scale;
  }
  city.gravity_scale_cells = std::numeric_limits<double>::infinity();
  StatusOr<Simulation> no_decay =
      SimulationBuilder().GenerateNycDay(0, 5, city).Build();
  EXPECT_TRUE(no_decay.ok()) << no_decay.status();
}

TEST_F(ApiTest, BuildRejectsForecastGridMismatch) {
  // An oracle forecast for a 4x4 grid day cannot drive an 8x8 simulation.
  GeneratorConfig small;
  small.grid_rows = 4;
  small.grid_cols = 4;
  small.orders_per_day = 200;
  StatusOr<Simulation> tiny = SimulationBuilder()
                                  .GenerateNycDay(0, 5, small)
                                  .WithOracleForecast()
                                  .Build();
  ASSERT_TRUE(tiny.ok()) << tiny.status();

  SimulationBuilder mismatched = *builder_;
  mismatched.WithForecast(*tiny->forecast());
  StatusOr<Simulation> sim = mismatched.Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_NE(sim.status().message().find("regions"), std::string::npos);
}

TEST_F(ApiTest, RunBySpecMatchesDirectEngineRun) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok()) << sim.status();

  StatusOr<SimResult> through_api = sim->Run("LS:max_sweeps=16");
  ASSERT_TRUE(through_api.ok()) << through_api.status();
  ASSERT_GT(through_api->served_orders, 0);

  // The same run hand-wired through the engine — the API is assembly only.
  SimConfig cfg = sim->config();
  Simulator engine(cfg, sim->workload(), sim->grid(), sim->travel_model(),
                   sim->forecast());
  auto ls = MakeLocalSearchDispatcher(16);
  SimResult direct = engine.Run(*ls);
  ExpectSameAggregates(direct, *through_api, "LS builder vs direct");
}

TEST_F(ApiTest, RunUnknownSpecFailsListingRoster) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  StatusOr<SimResult> r = sim->Run("TYPO:seed=1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("known dispatchers"), std::string::npos);
}

TEST_F(ApiTest, UpperRunsWithZeroPickupTraitApplied) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  // The caller never touches zero_pickup_travel; the registry trait does.
  ASSERT_FALSE(sim->config().zero_pickup_travel);
  StatusOr<SimResult> upper = sim->Run("UPPER");
  ASSERT_TRUE(upper.ok()) << upper.status();
  EXPECT_GT(upper->served_orders, 0);

  // Bit for bit the run under an explicit zero_pickup_travel = true, which
  // differs from one without it.
  for (bool zero_pickup : {true, false}) {
    SimConfig cfg = sim->config();
    cfg.zero_pickup_travel = zero_pickup;
    auto d = DispatcherRegistry::Global().Create("UPPER");
    ASSERT_TRUE(d.ok()) << d.status();
    StatusOr<SimResult> explicit_run = sim->RunWith(cfg, **d, sim->scenario());
    ASSERT_TRUE(explicit_run.ok()) << explicit_run.status();
    if (zero_pickup) {
      ExpectSameAggregates(*explicit_run, *upper, "UPPER: Run vs RunWith");
    } else {
      EXPECT_NE(explicit_run->total_revenue, upper->total_revenue);
    }
  }
}

// ------------------------------------------------------------- ObserverList

/// Appends (observer_id, hook_tag) to a shared log on every hook.
class RecordingObserver final : public SimObserver {
 public:
  RecordingObserver(int id, std::vector<std::pair<int, char>>* log)
      : id_(id), log_(log) {}

  void OnBatchBuilt(double, double, const BatchContext&) override {
    log_->push_back({id_, 'b'});
  }
  void OnDispatchDone(double, double,
                      const std::vector<Assignment>&) override {
    log_->push_back({id_, 'd'});
  }
  void OnAssignmentApplied(double, const AssignmentEvent&) override {
    log_->push_back({id_, 'a'});
  }
  void OnRiderReneged(double, const Order&) override {
    log_->push_back({id_, 'r'});
  }
  void OnBatchEnd(double) override { log_->push_back({id_, 'e'}); }
  void OnRunEnd(double, int64_t) override { log_->push_back({id_, 'z'}); }

 private:
  int id_;
  std::vector<std::pair<int, char>>* log_;
};

TEST_F(ApiTest, ObserverListForwardsEveryEventInRegistrationOrder) {
  std::vector<std::pair<int, char>> log;
  RecordingObserver first(1, &log);
  RecordingObserver second(2, &log);

  ObserverList list;
  list.Add(&first);
  list.Add(&second);
  list.Add(nullptr);  // ignored

  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  StatusOr<SimResult> r = sim->Run("NEAR", &list);
  ASSERT_TRUE(r.ok()) << r.status();

  // Both links saw every event, pairwise: for each engine event the first
  // link fires before the second, and the hook tags agree.
  ASSERT_FALSE(log.empty());
  ASSERT_EQ(log.size() % 2, 0u);
  for (size_t i = 0; i < log.size(); i += 2) {
    EXPECT_EQ(log[i].first, 1) << "event " << i;
    EXPECT_EQ(log[i + 1].first, 2) << "event " << i;
    EXPECT_EQ(log[i].second, log[i + 1].second) << "event " << i;
  }
  // The log ends with OnRunEnd and contains batch/dispatch/apply events.
  EXPECT_EQ(log.back().second, 'z');
  EXPECT_NE(log[0].second, 'z');
}

// ------------------------------------------------------------------ RunOne

TEST_F(ApiTest, RunOneReplicationSeedEqualsExplicitSeed) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());

  // replication_seed=7 on a bare "RAND" spec equals the explicit
  // "RAND:seed=7" spec, bit for bit.
  RunSpec seeded("RAND", "RAND-replicated");
  seeded.replication_seed = 7;
  StatusOr<RunResult> replicated = RunOne(*sim, seeded);
  StatusOr<RunResult> explicit_seed = RunOne(*sim, RunSpec("RAND:seed=7"));
  ASSERT_TRUE(replicated.ok()) << replicated.status();
  ASSERT_TRUE(explicit_seed.ok()) << explicit_seed.status();
  EXPECT_GT(replicated->result.served_orders, 0);
  EXPECT_EQ(replicated->label, "RAND-replicated");
  EXPECT_EQ(replicated->replication_seed, 7u);
  ExpectSameAggregates(explicit_seed->result, replicated->result,
                       "replication seed vs explicit seed");
}

TEST_F(ApiTest, RunOneFailsOnUnknownSpec) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  StatusOr<RunResult> result = RunOne(*sim, RunSpec("TYPO"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("known dispatchers"),
            std::string::npos);
}

TEST_F(ApiTest, RunOneAppliesConfigOverridesAndScenarioChoice) {
  // A script that cancels a handful of early orders.
  ScenarioScript script;
  for (OrderId id = 0; id < 40; ++id) script.Cancel(600.0 + id, id);
  SimulationBuilder with_scenario = *builder_;
  with_scenario.WithScenario(std::move(script));
  StatusOr<Simulation> sim = with_scenario.Build();
  ASSERT_TRUE(sim.ok());

  RunSpec unscripted("NEAR", "unscripted");
  unscripted.use_scenario = false;
  RunSpec half_horizon("NEAR", "half");
  SimConfig half_cfg = sim->config();
  half_cfg.horizon_seconds /= 2;
  half_horizon.config = half_cfg;

  StatusOr<RunResult> scripted_run = RunOne(*sim, RunSpec("NEAR", "scripted"));
  StatusOr<RunResult> unscripted_run = RunOne(*sim, unscripted);
  StatusOr<RunResult> half_run = RunOne(*sim, half_horizon);
  ASSERT_TRUE(scripted_run.ok()) << scripted_run.status();
  ASSERT_TRUE(unscripted_run.ok()) << unscripted_run.status();
  ASSERT_TRUE(half_run.ok()) << half_run.status();
  EXPECT_GT(scripted_run->result.cancelled_orders, 0);
  EXPECT_EQ(unscripted_run->result.cancelled_orders, 0);
  EXPECT_LT(half_run->result.num_batches, scripted_run->result.num_batches);

  // An invalid per-spec config fails before the run's first batch.
  struct BatchCounter : SimObserver {
    void OnBatchEnd(double) override { ++batches; }
    int batches = 0;
  } counter;
  RunSpec bad("IRG");
  SimConfig bad_cfg = sim->config();
  bad_cfg.window_seconds = -5.0;
  bad.config = bad_cfg;
  bad.observer = &counter;
  StatusOr<RunResult> invalid = RunOne(*sim, bad);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(invalid.status().message().find("window_seconds"),
            std::string::npos);
  EXPECT_EQ(counter.batches, 0);
}

/// Counts the batches it is handed and assigns nothing.
class CountingDispatcher final : public Dispatcher {
 public:
  std::string name() const override { return "COUNTING"; }
  void Dispatch(const BatchContext&, std::vector<Assignment>*) override {
    ++batches;
  }
  int batches = 0;
};

TEST_F(ApiTest, RunWithReturnsInvalidArgumentOnAnInvalidConfig) {
  // The Simulator aborts on these configs (see the death tests above);
  // RunWith must hand the caller a Status instead, before any batch runs.
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  for (double interval : {-3.0, 1e-300}) {
    SimConfig bad = sim->config();
    bad.batch_interval = interval;
    CountingDispatcher dispatcher;
    StatusOr<SimResult> result =
        sim->RunWith(bad, dispatcher, /*scenario=*/nullptr);
    ASSERT_FALSE(result.ok()) << interval;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << interval;
    EXPECT_NE(result.status().message().find("batch_interval"),
              std::string::npos)
        << result.status();
    EXPECT_EQ(dispatcher.batches, 0) << interval;
  }
}

}  // namespace
}  // namespace mrvd
