// Figure 8: effect of the batch interval Δ (3..30 s) on total revenue and
// batch running time. Expected shape: revenue decays slightly with Δ (more
// riders time out between batches); IRG-R/LS-R (ground-truth demand) above
// IRG-P/LS-P; all queueing approaches above RAND/LTG/NEAR/POLAR.
//
// Δ is a config delta over the default `paper` day. The "-P" rows run on
// its DeepST forecast; the "-R" rows are a second campaign over the same
// day with predictor=Real.
#include <cstdio>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "util/strings.h"

using namespace mrvd;
using namespace mrvd::bench;

int main() {
  const ExperimentScale scale = OrDie(ResolveScale());
  std::printf("Reproduction of Figure 8 (scale=%.2f)\n", scale.scale);

  CampaignSpec spec;
  spec.name = "fig8_vary_delta";
  spec.workloads = {scale.Paper()};
  spec.dispatchers = {"RAND", "LTG", "NEAR", "POLAR", "IRG", "LS"};
  for (double delta : {3, 5, 10, 20, 30}) {
    spec.config_deltas.push_back(StrFormat("batch_interval=%g", delta));
  }
  const CellGrid predicted = OrDie(RunBenchCampaign(scale, spec));
  spec.name = "fig8_vary_delta_real";
  spec.workloads = {scale.Paper("predictor=Real")};
  spec.dispatchers = {"IRG", "LS"};
  const CellGrid real = OrDie(RunBenchCampaign(scale, spec));

  PrintRevenueAndBatchTime("Figure 8", "Δ", {"3s", "5s", "10s", "20s", "30s"},
                           {{"RAND", &predicted[0]},
                            {"LTG", &predicted[1]},
                            {"NEAR", &predicted[2]},
                            {"POLAR", &predicted[3]},
                            {"IRG-P", &predicted[4]},
                            {"IRG-R", &real[0]},
                            {"LS-P", &predicted[5]},
                            {"LS-R", &real[1]}});
  return 0;
}
