// End-to-end integration: a scaled-down day over the full pipeline
// (generator -> predictors -> forecast -> simulator -> all dispatchers),
// asserting the qualitative relationships the paper's evaluation reports.
#include <gtest/gtest.h>

#include <map>

#include "dispatch/dispatchers.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "prediction/predictor.h"
#include "sim/engine.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig cfg;
    cfg.grid_rows = 8;
    cfg.grid_cols = 8;
    cfg.orders_per_day = 6000.0;
    cfg.base_pickup_wait = 180.0;
    generator_ = new NycLikeGenerator(cfg);
    workload_ = new Workload(generator_->GenerateDay(/*day_index=*/14,
                                                     /*num_drivers=*/70));
    cost_ = new StraightLineCostModel(7.0, 1.3);

    // Oracle forecast over the realized counts of the test day.
    realized_ = new DemandHistory(generator_->RealizedCounts(*workload_, 48));
    oracle_ = MakeOraclePredictor().release();
    auto fc = DemandForecast::Build(*oracle_, *realized_, 0);
    ASSERT_TRUE(fc.ok());
    forecast_ = new DemandForecast(std::move(fc).value());
  }
  static void TearDownTestSuite() {
    delete forecast_;
    delete oracle_;
    delete realized_;
    delete cost_;
    delete workload_;
    delete generator_;
  }

  static SimConfig BaseConfig() {
    SimConfig cfg;
    cfg.batch_interval = 10.0;
    cfg.window_seconds = 1200.0;
    return cfg;
  }

  static SimResult RunDispatcher(Dispatcher& d, const SimConfig& cfg,
                                 bool with_forecast = true) {
    Simulator sim(cfg, *workload_, generator_->grid(), *cost_,
                  with_forecast ? forecast_ : nullptr);
    return sim.Run(d);
  }

  static NycLikeGenerator* generator_;
  static Workload* workload_;
  static StraightLineCostModel* cost_;
  static DemandHistory* realized_;
  static DemandPredictor* oracle_;
  static DemandForecast* forecast_;
};

NycLikeGenerator* IntegrationTest::generator_ = nullptr;
Workload* IntegrationTest::workload_ = nullptr;
StraightLineCostModel* IntegrationTest::cost_ = nullptr;
DemandHistory* IntegrationTest::realized_ = nullptr;
DemandPredictor* IntegrationTest::oracle_ = nullptr;
DemandForecast* IntegrationTest::forecast_ = nullptr;

TEST_F(IntegrationTest, AllApproachesConserveOrders) {
  auto rand = MakeRandomDispatcher(3);
  auto near = MakeNearestDispatcher();
  auto irg = MakeIrgDispatcher();
  for (Dispatcher* d : {rand.get(), near.get(), irg.get()}) {
    SimResult r = RunDispatcher(*d, BaseConfig());
    EXPECT_EQ(r.served_orders + r.reneged_orders, r.total_orders)
        << d->name();
    EXPECT_GT(r.served_orders, 0) << d->name();
    EXPECT_GT(r.total_revenue, 0.0) << d->name();
  }
}

TEST_F(IntegrationTest, UpperBoundDominatesEveryApproach) {
  SimConfig upper_cfg = BaseConfig();
  upper_cfg.zero_pickup_travel = true;
  auto upper = MakeUpperBoundDispatcher();
  double upper_rev = RunDispatcher(*upper, upper_cfg).total_revenue;

  auto ls = MakeLocalSearchDispatcher();
  auto ltg = MakeLongTripGreedyDispatcher();
  for (Dispatcher* d : {static_cast<Dispatcher*>(ls.get()),
                        static_cast<Dispatcher*>(ltg.get())}) {
    double rev = RunDispatcher(*d, BaseConfig()).total_revenue;
    EXPECT_LE(rev, upper_rev * 1.0001) << d->name();
  }
}

TEST_F(IntegrationTest, QueueingApproachesBeatRandom) {
  auto rand = MakeRandomDispatcher(11);
  auto irg = MakeIrgDispatcher();
  auto ls = MakeLocalSearchDispatcher();
  double rev_rand = RunDispatcher(*rand, BaseConfig()).total_revenue;
  double rev_irg = RunDispatcher(*irg, BaseConfig()).total_revenue;
  double rev_ls = RunDispatcher(*ls, BaseConfig()).total_revenue;
  EXPECT_GT(rev_irg, rev_rand);
  EXPECT_GT(rev_ls, rev_rand);
}

TEST_F(IntegrationTest, ShortServesCompetitively) {
  // SHORT's served-order advantage is established at realistic scale by
  // bench_fig13_served_orders; at this toy scale we only require it to be
  // within noise of the strongest served-count baseline.
  auto shrt = MakeShortDispatcher();
  auto rand = MakeRandomDispatcher(5);
  int64_t served_short = RunDispatcher(*shrt, BaseConfig()).served_orders;
  int64_t served_rand = RunDispatcher(*rand, BaseConfig()).served_orders;
  EXPECT_GE(static_cast<double>(served_short),
            static_cast<double>(served_rand) * 0.93);
}

TEST_F(IntegrationTest, LongerWaitingTimeRaisesRevenue) {
  // Figure 10 trend: larger τ -> more riders served.
  GeneratorConfig cfg;
  cfg.grid_rows = 8;
  cfg.grid_cols = 8;
  cfg.orders_per_day = 6000.0;
  cfg.base_pickup_wait = 60.0;
  NycLikeGenerator impatient_gen(cfg);
  Workload impatient = impatient_gen.GenerateDay(14, 70);

  auto near = MakeNearestDispatcher();
  Simulator sim_short(BaseConfig(), impatient, impatient_gen.grid(), *cost_,
                      nullptr);
  double rev_short_wait = sim_short.Run(*near).total_revenue;

  double rev_long_wait = RunDispatcher(*near, BaseConfig(), false).total_revenue;
  EXPECT_GT(rev_long_wait, rev_short_wait);
}

TEST_F(IntegrationTest, MoreDriversMoreRevenue) {
  // Figure 7 trend.
  Workload more_drivers = generator_->GenerateDay(14, 140);
  auto near = MakeNearestDispatcher();
  Simulator sim_more(BaseConfig(), more_drivers, generator_->grid(), *cost_,
                     nullptr);
  double rev_more = sim_more.Run(*near).total_revenue;
  double rev_base = RunDispatcher(*near, BaseConfig(), false).total_revenue;
  EXPECT_GT(rev_more, rev_base * 1.05);
}

TEST_F(IntegrationTest, IdleTimeEstimatesTrackReality) {
  // Table 3's claim at small scale: the queueing estimate of driver idle
  // time is within a reasonable relative error of the realized idle time.
  auto irg = MakeIrgDispatcher();
  SimConfig cfg = BaseConfig();
  cfg.record_idle_samples = true;  // off by default
  SimResult r = RunDispatcher(*irg, cfg);
  ASSERT_GT(r.idle_error.count(), 100);
  // At this toy scale (70 drivers, 6k orders) estimates are noisy; the
  // paper-scale accuracy claim is checked by bench_table3_idle_time.
  EXPECT_LT(r.idle_error.RelativeRmsePct(), 200.0);
  // Region-level predictions correlate: regions with higher mean real idle
  // should tend to have higher predicted idle. Check the global means are
  // the same order of magnitude.
  double mean_real = 0, mean_pred = 0;
  int64_t n = 0;
  for (const auto& reg : r.region_idle) {
    mean_real += reg.real_sum;
    mean_pred += reg.predicted_sum;
    n += reg.count;
  }
  ASSERT_GT(n, 0);
  mean_real /= static_cast<double>(n);
  mean_pred /= static_cast<double>(n);
  EXPECT_GT(mean_pred, mean_real * 0.1);
  EXPECT_LT(mean_pred, mean_real * 10.0);
}

TEST_F(IntegrationTest, BatchRunningTimesAreSane) {
  auto ls = MakeLocalSearchDispatcher();
  SimResult r = RunDispatcher(*ls, BaseConfig());
  EXPECT_GT(r.num_batches, 1000);
  EXPECT_LT(r.batch_seconds.mean(), 0.5);  // well under the 2 s the paper cites
}

TEST_F(IntegrationTest, DeterministicAcrossRuns) {
  auto irg1 = MakeIrgDispatcher();
  auto irg2 = MakeIrgDispatcher();
  SimResult a = RunDispatcher(*irg1, BaseConfig());
  SimResult b = RunDispatcher(*irg2, BaseConfig());
  EXPECT_DOUBLE_EQ(a.total_revenue, b.total_revenue);
  EXPECT_EQ(a.served_orders, b.served_orders);
}

}  // namespace
}  // namespace mrvd
