// Table 4: effect of the demand-prediction method (HA, LR, GBRT, DeepST,
// Real) on the total revenue achieved by the prediction-guided approaches
// (IRG, LS, POLAR). Expected shape: revenue rises with predictor accuracy
// and LS >= IRG >= POLAR.
//
// The predictor axis is the `paper` entry's predictor parameter.
#include <cstdio>
#include <string>
#include <vector>

#include "experiment_common.h"

using namespace mrvd;
using namespace mrvd::bench;

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Table 4 (scale=%.2f)\n", scale.scale);

  const std::vector<std::string> predictors = {"HA", "LR", "GBRT", "DeepST",
                                               "Real"};
  CampaignSpec spec;
  spec.name = "table4_prediction_effect";
  for (const std::string& predictor : predictors) {
    spec.workloads.push_back(scale.Paper("predictor=" + predictor));
  }
  spec.dispatchers = {"IRG", "LS", "POLAR"};
  const CellGrid grid = OrDie(RunBenchCampaign(scale, spec));

  std::vector<std::string> header = {"approach"};
  header.insert(header.end(), predictors.begin(), predictors.end());
  PrintTableHeader("Table 4: Effects of Prediction Methods (total revenue)",
                   header);
  for (size_t d = 0; d < spec.dispatchers.size(); ++d) {
    std::vector<std::string> row = {spec.dispatchers[d]};
    for (const RunArtifact& cell : grid[d]) {
      row.push_back(FormatRevenue(cell.revenue));
    }
    PrintTableRow(row);
  }
  return 0;
}
