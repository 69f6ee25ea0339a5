// Table 6 (Appendix A): demand-prediction accuracy of HA, LR, GBRT and the
// DeepST surrogate on held-out evaluation days. Expected shape:
// DeepST < GBRT < LR < HA in RMSE.
//
// The predictors train on the tensor the `paper` entry trains its own
// forecast on: 21 generated days, then the evaluation day's realized counts.
#include <cstdio>
#include <memory>
#include <vector>

#include "campaign/workload_catalog.h"
#include "experiment_common.h"
#include "prediction/predictor.h"
#include "util/strings.h"

using namespace mrvd;
using namespace mrvd::bench;

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Table 6 (scale=%.2f)\n", scale.scale);

  // The day's own forecast is unused; the ground truth is the cheapest.
  const Simulation day = OrDie(
      WorkloadCatalog::Global().Build(scale.Paper("predictor=Real")));
  constexpr int kTrainDays = 21;  // the paper day is day 21
  const DemandHistory observed =
      day.generator()->ObservedHistory(kTrainDays, day.workload(), 48);

  std::vector<std::unique_ptr<DemandPredictor>> predictors;
  predictors.push_back(MakeDeepStSurrogatePredictor());
  predictors.push_back(MakeHistoricalAveragePredictor());
  predictors.push_back(MakeLinearRegressionPredictor());
  predictors.push_back(MakeGbrtPredictor());

  PrintTableHeader("Table 6: Results of the Demand Prediction Methods",
                   {"model", "RMSE (%)", "Real RMSE", "MAE", "#preds"});
  for (auto& p : predictors) {
    Status st = p->Train(observed, day.grid());
    if (!st.ok()) {
      PrintTableRow({p->name(), "train failed", st.ToString(), "", ""});
      continue;
    }
    PredictorEvaluation eval =
        EvaluatePredictor(*p, observed, kTrainDays * 48);
    PrintTableRow({eval.name, StrFormat("%.2f", eval.rel_rmse_pct),
                   StrFormat("%.2f", eval.real_rmse),
                   StrFormat("%.2f", eval.mae),
                   StrFormat("%lld", (long long)eval.num_predictions)});
  }
  std::printf("(RMSE %% is relative to the mean per-slot count; the paper's\n"
              " 'Real RMSE (s)' column is in counts here — same metric, the\n"
              " paper's unit label appears to be a typo)\n");
  return 0;
}
