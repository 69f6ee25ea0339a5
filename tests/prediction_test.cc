#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "prediction/forecast.h"
#include "prediction/gbrt.h"
#include "prediction/linalg.h"
#include "prediction/predictor.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ----------------------------------------------------------------- linalg

TEST(LinalgTest, CholeskySolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5].
  auto x = CholeskySolve({4, 2, 2, 3}, 2, {10, 8});
  ASSERT_TRUE(x.ok()) << x.status();
  EXPECT_NEAR((*x)[0], 1.75, 1e-12);
  EXPECT_NEAR((*x)[1], 1.5, 1e-12);
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  auto x = CholeskySolve({1, 2, 2, 1}, 2, {1, 1});
  EXPECT_FALSE(x.ok());
}

TEST(LinalgTest, RidgeFitRecoversLinearModel) {
  // y = 3 x0 - 2 x1 + 1 with tiny noise.
  Rng rng(3);
  const int rows = 400, cols = 3;
  std::vector<double> x, y;
  for (int i = 0; i < rows; ++i) {
    double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    x.insert(x.end(), {a, b, 1.0});
    y.push_back(3 * a - 2 * b + 1 + rng.Normal(0, 0.001));
  }
  auto w = RidgeFit(x, rows, cols, y, 1e-8);
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR((*w)[0], 3.0, 0.01);
  EXPECT_NEAR((*w)[1], -2.0, 0.01);
  EXPECT_NEAR((*w)[2], 1.0, 0.01);
}

// ------------------------------------------------------------------- GBRT

TEST(GbrtTest, FitsStepFunction) {
  Rng rng(5);
  const int rows = 2000;
  std::vector<double> x, y;
  for (int i = 0; i < rows; ++i) {
    double v = rng.Uniform(0, 1);
    x.push_back(v);
    y.push_back(v < 0.5 ? 1.0 : 5.0);
  }
  GbrtRegressorOptions opt;
  opt.num_trees = 30;
  auto model = GbrtRegressor::Fit(x, rows, 1, y, opt);
  ASSERT_TRUE(model.ok()) << model.status();
  double lo = model->Predict(std::vector<double>{0.2});
  double hi = model->Predict(std::vector<double>{0.8});
  EXPECT_NEAR(lo, 1.0, 0.3);
  EXPECT_NEAR(hi, 5.0, 0.3);
}

TEST(GbrtTest, FitsAdditiveFunction) {
  Rng rng(6);
  const int rows = 4000;
  std::vector<double> x, y;
  for (int i = 0; i < rows; ++i) {
    double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
    x.insert(x.end(), {a, b});
    y.push_back(2 * a + std::sin(6 * b));
  }
  GbrtRegressorOptions opt;
  opt.num_trees = 120;
  opt.max_depth = 4;
  auto model = GbrtRegressor::Fit(x, rows, 2, y, opt);
  ASSERT_TRUE(model.ok());
  double se = 0;
  int n_test = 200;
  Rng trng(7);
  for (int i = 0; i < n_test; ++i) {
    double a = trng.Uniform(0.05, 0.95), b = trng.Uniform(0.05, 0.95);
    double pred = model->Predict(std::vector<double>{a, b});
    double truth = 2 * a + std::sin(6 * b);
    se += (pred - truth) * (pred - truth);
  }
  EXPECT_LT(std::sqrt(se / n_test), 0.25);
}

TEST(GbrtTest, RejectsBadDimensions) {
  EXPECT_FALSE(GbrtRegressor::Fit({1, 2}, 3, 1, {1, 2, 3}).ok());
}

// -------------------------------------------------------------- predictors

class PredictorOrderingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig cfg;
    cfg.grid_rows = 8;
    cfg.grid_cols = 8;
    cfg.orders_per_day = 20000.0;
    generator_ = new NycLikeGenerator(cfg);
    // 28 days of history; the final 2 days are the evaluation window.
    history_ = new DemandHistory(generator_->GenerateHistory(28, 48));
  }
  static void TearDownTestSuite() {
    delete generator_;
    delete history_;
    generator_ = nullptr;
    history_ = nullptr;
  }

  static NycLikeGenerator* generator_;
  static DemandHistory* history_;
  static constexpr int kEvalStart = 26 * 48;
};

NycLikeGenerator* PredictorOrderingTest::generator_ = nullptr;
DemandHistory* PredictorOrderingTest::history_ = nullptr;

TEST_F(PredictorOrderingTest, AllPredictorsTrainAndPredictNonNegative) {
  auto preds = {MakeHistoricalAveragePredictor(), MakeLinearRegressionPredictor(),
                MakeDeepStSurrogatePredictor(), MakeOraclePredictor()};
  for (const auto& p : preds) {
    ASSERT_TRUE(p->Train(*history_, generator_->grid()).ok()) << p->name();
    for (int r : {0, 13, 63}) {
      EXPECT_GE(p->PredictStep(*history_, kEvalStart + 5, r), 0.0)
          << p->name();
    }
  }
}

TEST_F(PredictorOrderingTest, OracleIsExact) {
  auto oracle = MakeOraclePredictor();
  ASSERT_TRUE(oracle->Train(*history_, generator_->grid()).ok());
  auto eval = EvaluatePredictor(*oracle, *history_, kEvalStart);
  EXPECT_DOUBLE_EQ(eval.real_rmse, 0.0);
  EXPECT_DOUBLE_EQ(eval.rel_rmse_pct, 0.0);
}

TEST_F(PredictorOrderingTest, AccuracyOrderingMatchesTable6) {
  // Table 6: DeepST < GBRT < LR < HA in RMSE. We require the surrogate to
  // beat LR, LR (ridge over the same lags) to beat plain HA, and GBRT to
  // beat HA. (GBRT vs LR can be close on a linear-ish synthetic workload.)
  auto ha = MakeHistoricalAveragePredictor();
  auto lr = MakeLinearRegressionPredictor();
  auto gbrt = MakeGbrtPredictor();
  auto deepst = MakeDeepStSurrogatePredictor();
  for (DemandPredictor* p :
       {ha.get(), lr.get(), gbrt.get(), deepst.get()}) {
    ASSERT_TRUE(p->Train(*history_, generator_->grid()).ok()) << p->name();
  }
  auto e_ha = EvaluatePredictor(*ha, *history_, kEvalStart);
  auto e_lr = EvaluatePredictor(*lr, *history_, kEvalStart);
  auto e_gbrt = EvaluatePredictor(*gbrt, *history_, kEvalStart);
  auto e_deepst = EvaluatePredictor(*deepst, *history_, kEvalStart);

  EXPECT_LT(e_lr.real_rmse, e_ha.real_rmse);
  EXPECT_LT(e_gbrt.real_rmse, e_ha.real_rmse);
  EXPECT_LT(e_deepst.real_rmse, e_lr.real_rmse);
  EXPECT_GT(e_ha.num_predictions, 0);
}

TEST_F(PredictorOrderingTest, HaIsMeanOfLags) {
  auto ha = MakeHistoricalAveragePredictor(15);
  ASSERT_TRUE(ha->Train(*history_, generator_->grid()).ok());
  int step = kEvalStart + 20, region = 9;
  double expected = 0;
  for (int k = 1; k <= 15; ++k) {
    expected += history_->at_step(step - k, region);
  }
  expected /= 15;
  EXPECT_NEAR(ha->PredictStep(*history_, step, region), expected, 1e-9);
}

// --------------------------------------------------------------- forecast

TEST_F(PredictorOrderingTest, ForecastWindowSumsSlots) {
  auto oracle = MakeOraclePredictor();
  auto fc = DemandForecast::Build(*oracle, *history_, /*eval_day=*/27);
  ASSERT_TRUE(fc.ok()) << fc.status();
  int region = 20;
  // A full-slot window equals the slot count.
  double slot_secs = kSecondsPerDay / 48;
  EXPECT_NEAR(fc->WindowCount(slot_secs * 10, slot_secs, region),
              fc->SlotCount(10, region), 1e-9);
  // A half-slot window is half the count.
  EXPECT_NEAR(fc->WindowCount(slot_secs * 10, slot_secs / 2, region),
              fc->SlotCount(10, region) / 2, 1e-9);
  // Window spanning two slots = sum of halves.
  EXPECT_NEAR(
      fc->WindowCount(slot_secs * 10.5, slot_secs, region),
      fc->SlotCount(10, region) / 2 + fc->SlotCount(11, region) / 2, 1e-9);
}

TEST_F(PredictorOrderingTest, ForecastTruncatesAtMidnight) {
  auto oracle = MakeOraclePredictor();
  auto fc = DemandForecast::Build(*oracle, *history_, 27);
  ASSERT_TRUE(fc.ok());
  double near_midnight = kSecondsPerDay - 100.0;
  double count = fc->WindowCount(near_midnight, 3600.0, 5);
  double slot_secs = kSecondsPerDay / 48;
  EXPECT_LE(count, fc->SlotCount(47, 5) * (100.0 / slot_secs) + 1e-9);
}

/// WindowCount as it summed before the shared slot walk: both forecast
/// paths must reproduce these bits.
double ReferenceWindowCount(const DemandForecast& fc, double t_seconds,
                            double window_seconds, int region) {
  const double slot_secs = kSecondsPerDay / fc.slots_per_day();
  double t0 = std::max(0.0, t_seconds);
  double t1 = std::min(kSecondsPerDay, t_seconds + window_seconds);
  double total = 0.0;
  int first_slot = static_cast<int>(t0 / slot_secs);
  int last_slot = static_cast<int>((t1 - 1e-9) / slot_secs);
  for (int s = first_slot; s <= last_slot && s < fc.slots_per_day(); ++s) {
    double lo = std::max(t0, s * slot_secs);
    double hi = std::min(t1, (s + 1) * slot_secs);
    if (hi <= lo) continue;
    total += fc.SlotCount(s, region) * (hi - lo) / slot_secs;
  }
  return total;
}

TEST(ForecastWindowCountsTest, RowCountsEqualPerRegionCountsBitForBit) {
  constexpr int kRegions = 37;
  for (int slots : {48, 7}) {
    // Fractional per-slot counts, so any change in the order or grouping
    // of the arithmetic shows in the low bits.
    DemandHistory history(/*num_days=*/1, slots, kRegions);
    Rng rng(static_cast<uint64_t>(slots));
    for (int slot = 0; slot < slots; ++slot) {
      for (int k = 0; k < kRegions; ++k) {
        history.set(0, slot, k, rng.Uniform(0.0, 97.0));
      }
    }
    auto oracle = MakeOraclePredictor();
    auto fc = DemandForecast::Build(*oracle, history, /*eval_day=*/0);
    ASSERT_TRUE(fc.ok()) << fc.status();
    const double slot_secs = kSecondsPerDay / slots;

    struct Window {
      const char* what;
      double t, width;
    };
    std::vector<Window> windows = {
        {"inside one slot", 3 * slot_secs + 100.0, 600.0},
        {"across a slot boundary", 5 * slot_secs - 300.0, 1200.0},
        {"longer than a slot", 2 * slot_secs + 17.5, 2.5 * slot_secs},
        {"ending on a boundary", 4 * slot_secs - 1200.0, 1200.0},
        {"ending exactly at a boundary", slot_secs, slot_secs},
        {"starting before 0", -500.0, 1200.0},
        {"crossing midnight", kSecondsPerDay - 600.0, 1200.0},
        {"after midnight", kSecondsPerDay + 100.0, 1200.0},
        {"zero width", 6 * slot_secs + 10.0, 0.0},
        {"the whole day", 0.0, kSecondsPerDay},
    };
    // A batch clock sweeping the day with the default t_c.
    for (double t = 0.0; t < kSecondsPerDay; t += 997.3) {
      windows.push_back({"sweep", t, 1200.0});
    }

    std::vector<DemandForecast::WindowSlot> window_slots;
    std::vector<double> counts(static_cast<size_t>(kRegions));
    for (const Window& w : windows) {
      // The slot list is found once per window; the counts are summed over
      // ranges of regions, as a batch context sums one grid row: all of
      // them, and ranges inside and at the end.
      fc->WindowSlots(w.t, w.width, &window_slots);
      for (auto [first, count] : {std::pair{0, kRegions}, std::pair{5, 7},
                                  std::pair{kRegions - 3, 3}}) {
        fc->WindowCountsOf(window_slots, first, count, counts.data());
        for (int i = 0; i < count; ++i) {
          const int k = first + i;
          const uint64_t got =
              std::bit_cast<uint64_t>(counts[static_cast<size_t>(i)]);
          EXPECT_EQ(got,
                    std::bit_cast<uint64_t>(fc->WindowCount(w.t, w.width, k)))
              << slots << " slots, " << w.what << " t=" << w.t
              << " region " << k;
          EXPECT_EQ(got, std::bit_cast<uint64_t>(
                             ReferenceWindowCount(*fc, w.t, w.width, k)))
              << slots << " slots, " << w.what << " t=" << w.t
              << " region " << k;
        }
      }
    }
  }
}

TEST_F(PredictorOrderingTest, ForecastRejectsBadDay) {
  auto oracle = MakeOraclePredictor();
  EXPECT_FALSE(DemandForecast::Build(*oracle, *history_, 99).ok());
}

}  // namespace
}  // namespace mrvd
