// HA, LR, DeepST-surrogate and Oracle predictors plus the shared evaluator.
// GBRT lives in gbrt.cc.
#include <algorithm>
#include <cmath>

#include "prediction/linalg.h"
#include "prediction/predictor.h"
#include "stats/metrics.h"

namespace mrvd {

namespace {

double LagOrZero(const DemandHistory& h, int step, int region, int back) {
  int s = step - back;
  if (s < 0) return 0.0;
  return h.at_step(s, region);
}

/// Historical Average: mean of the previous `lags` slots (Appendix A).
class HistoricalAveragePredictor final : public DemandPredictor {
 public:
  explicit HistoricalAveragePredictor(int lags) : lags_(lags) {}

  std::string name() const override { return "HA"; }

  Status Train(const DemandHistory& /*history*/,
               const Grid& /*grid*/) override {
    return Status::OK();  // nothing to fit
  }

  double PredictStep(const DemandHistory& observed, int step,
                     int region) const override {
    double sum = 0.0;
    for (int k = 1; k <= lags_; ++k) sum += LagOrZero(observed, step, region, k);
    return sum / lags_;
  }

 private:
  int lags_;
};

/// Linear Regression over the previous `lags` slots, weights shared across
/// regions, fitted by ridge-regularized normal equations.
class LinearRegressionPredictor final : public DemandPredictor {
 public:
  LinearRegressionPredictor(int lags, double ridge)
      : lags_(lags), ridge_(ridge) {}

  std::string name() const override { return "LR"; }

  Status Train(const DemandHistory& history,
               const Grid& /*grid*/) override {
    const int cols = lags_ + 1;  // + intercept
    std::vector<double> x, y;
    for (int step = lags_; step < history.num_steps(); ++step) {
      for (int r = 0; r < history.num_regions(); ++r) {
        for (int k = 1; k <= lags_; ++k) {
          x.push_back(LagOrZero(history, step, r, k));
        }
        x.push_back(1.0);
        y.push_back(history.at_step(step, r));
      }
    }
    int rows = static_cast<int>(y.size());
    if (rows < cols) {
      return Status::FailedPrecondition("LR: not enough training rows");
    }
    auto w = RidgeFit(x, rows, cols, y, ridge_);
    MRVD_RETURN_NOT_OK(w.status());
    weights_ = std::move(w).value();
    return Status::OK();
  }

  double PredictStep(const DemandHistory& observed, int step,
                     int region) const override {
    if (weights_.empty()) return 0.0;
    double v = weights_.back();  // intercept
    for (int k = 1; k <= lags_; ++k) {
      v += weights_[static_cast<size_t>(k - 1)] *
           LagOrZero(observed, step, region, k);
    }
    return std::max(0.0, v);
  }

 private:
  int lags_;
  double ridge_;
  std::vector<double> weights_;
};

/// Linearised DeepST: ridge regression over the DeepST feature groups —
/// closeness (recent slots), period (same slot previous days), trend (same
/// slot previous weeks), metadata (time-of-day harmonics, weekend flag) and
/// a spatial 8-neighbour aggregate of the last slot (the conv-layer
/// surrogate). The paper's DeepST is a deep residual CNN; running one would
/// need a neural-network runtime, which this dependency-free library does
/// not carry. The dispatchers read a forecast only as each region's
/// predicted riders and drivers, so what must carry over is DeepST's inputs
/// and its rank in accuracy (the most accurate learned model, ahead of
/// GBRT, LR and HA, as bench_table6_prediction_accuracy prints), not its
/// architecture.
class DeepStSurrogatePredictor final : public DemandPredictor {
 public:
  explicit DeepStSurrogatePredictor(const DeepStOptions& options)
      : opt_(options) {}

  std::string name() const override { return "DeepST"; }

  Status Train(const DemandHistory& history, const Grid& grid) override {
    grid_cols_ = grid.cols();
    grid_rows_ = grid.rows();
    slots_per_day_ = history.slots_per_day();
    int min_step = MinStep();
    std::vector<double> x, y;
    std::vector<double> feat;
    for (int step = min_step; step < history.num_steps(); ++step) {
      for (int r = 0; r < history.num_regions(); ++r) {
        BuildFeatures(history, step, r, &feat);
        x.insert(x.end(), feat.begin(), feat.end());
        y.push_back(history.at_step(step, r));
      }
    }
    int cols = static_cast<int>(feat.size());
    int rows = static_cast<int>(y.size());
    if (rows < cols) {
      return Status::FailedPrecondition("DeepST: not enough training rows");
    }
    auto w = RidgeFit(x, rows, cols, y, opt_.ridge);
    MRVD_RETURN_NOT_OK(w.status());
    weights_ = std::move(w).value();
    return Status::OK();
  }

  double PredictStep(const DemandHistory& observed, int step,
                     int region) const override {
    if (weights_.empty()) return 0.0;
    std::vector<double> feat;
    BuildFeatures(observed, step, region, &feat);
    double v = 0.0;
    for (size_t i = 0; i < feat.size(); ++i) v += feat[i] * weights_[i];
    return std::max(0.0, v);
  }

 private:
  int MinStep() const {
    return std::max({opt_.closeness_lags,
                     opt_.period_days * slots_per_day_,
                     opt_.trend_weeks * 7 * slots_per_day_});
  }

  void BuildFeatures(const DemandHistory& h, int step, int region,
                     std::vector<double>* out) const {
    out->clear();
    // Closeness.
    for (int k = 1; k <= opt_.closeness_lags; ++k) {
      out->push_back(LagOrZero(h, step, region, k));
    }
    // Period: same slot, previous days.
    for (int d = 1; d <= opt_.period_days; ++d) {
      out->push_back(LagOrZero(h, step, region, d * slots_per_day_));
    }
    // Trend: same slot, previous weeks.
    for (int wk = 1; wk <= opt_.trend_weeks; ++wk) {
      out->push_back(LagOrZero(h, step, region, wk * 7 * slots_per_day_));
    }
    // Spatial aggregate: mean last-slot count over the 8 neighbours.
    int row = region / grid_cols_, col = region % grid_cols_;
    double nsum = 0.0;
    int ncount = 0;
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        if (dr == 0 && dc == 0) continue;
        int rr = row + dr, cc = col + dc;
        if (rr < 0 || rr >= grid_rows_ || cc < 0 || cc >= grid_cols_) continue;
        nsum += LagOrZero(h, step, rr * grid_cols_ + cc, 1);
        ++ncount;
      }
    }
    out->push_back(ncount > 0 ? nsum / ncount : 0.0);
    // Metadata: time-of-day harmonics + weekend flag.
    int slot = step % slots_per_day_;
    int day = step / slots_per_day_;
    double phase = 2.0 * M_PI * slot / slots_per_day_;
    out->push_back(std::sin(phase));
    out->push_back(std::cos(phase));
    out->push_back(std::sin(2.0 * phase));
    out->push_back(std::cos(2.0 * phase));
    out->push_back(day % 7 >= 5 ? 1.0 : 0.0);
    out->push_back(1.0);  // intercept
  }

  DeepStOptions opt_;
  int grid_rows_ = 0, grid_cols_ = 0, slots_per_day_ = 48;
  std::vector<double> weights_;
};

/// Ground-truth oracle: returns the realized count ("Real").
class OraclePredictor final : public DemandPredictor {
 public:
  std::string name() const override { return "Real"; }
  Status Train(const DemandHistory&, const Grid&) override {
    return Status::OK();
  }
  double PredictStep(const DemandHistory& observed, int step,
                     int region) const override {
    return observed.at_step(step, region);
  }
};

}  // namespace

std::unique_ptr<DemandPredictor> MakeHistoricalAveragePredictor(int lags) {
  return std::make_unique<HistoricalAveragePredictor>(lags);
}

std::unique_ptr<DemandPredictor> MakeLinearRegressionPredictor(int lags,
                                                               double ridge) {
  return std::make_unique<LinearRegressionPredictor>(lags, ridge);
}

std::unique_ptr<DemandPredictor> MakeDeepStSurrogatePredictor(
    const DeepStOptions& options) {
  return std::make_unique<DeepStSurrogatePredictor>(options);
}

std::unique_ptr<DemandPredictor> MakeOraclePredictor() {
  return std::make_unique<OraclePredictor>();
}

PredictorEvaluation EvaluatePredictor(const DemandPredictor& predictor,
                                      const DemandHistory& observed,
                                      int eval_start_step) {
  ErrorStats err;
  for (int step = eval_start_step; step < observed.num_steps(); ++step) {
    for (int r = 0; r < observed.num_regions(); ++r) {
      double pred = predictor.PredictStep(observed, step, r);
      err.Add(pred, observed.at_step(step, r));
    }
  }
  PredictorEvaluation eval;
  eval.name = predictor.name();
  eval.rel_rmse_pct = err.RelativeRmsePct();
  eval.real_rmse = err.RealRmse();
  eval.mae = err.Mae();
  eval.num_predictions = err.count();
  return eval;
}

}  // namespace mrvd
